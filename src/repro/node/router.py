"""Partitioning (the left side of Figure 1).

Tenant keyspaces are split into fixed partitions mapped onto storage
nodes; the cluster client (:class:`~repro.net.ClusterClient`) sends each
request to the node owning its partition.  The paper delegates dynamic
placement and weight distribution to Pisces and focuses on the per-node
mechanism; this layer adds just enough of the system-wide substrate to
run multi-node experiments: replica sets per partition (primary first)
and a monotonically increasing map version, so clients can detect stale
owner resolutions after a failover.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Partition", "PartitionMap"]


@dataclass(frozen=True)
class Partition:
    """One tenant keyspace shard and its replica set (primary first).

    Two routing modes share this type.  *Mod-hash* partitions (the
    original static placement) leave ``lo``/``hi`` as ``None`` and own
    every key with ``key % partitions_per_tenant == index``.
    *Range* partitions (control-plane placement) own the contiguous
    key range ``[lo, hi)``; ranges can be split and migrated at
    runtime, so ``index`` is a stable id, not a position.
    """

    tenant: str
    index: int
    replicas: Tuple[str, ...]
    #: inclusive lower key bound (range mode); None = mod-hash mode
    lo: Optional[int] = None
    #: exclusive upper key bound (range mode)
    hi: Optional[int] = None

    @property
    def node(self) -> str:
        """The partition's current primary."""
        return self.replicas[0]

    @property
    def width(self) -> int:
        """Keys owned (range mode); 1 for mod-hash partitions."""
        if self.lo is None or self.hi is None:
            return 1
        return self.hi - self.lo


class PartitionMap:
    """Static hash partitioning of tenant keyspaces over nodes.

    The map is **versioned**: placement and promotion bump ``version``,
    which is how routers know to drop cached owner resolutions.  The
    replica chain for partition ``i`` over nodes ``n_0..n_{k-1}`` is
    ``n_{i mod k}, n_{(i+1) mod k}, ...`` — round-robin primaries with
    the following nodes as backups, so replica load spreads evenly.
    """

    def __init__(self, partitions_per_tenant: int = 8):
        if partitions_per_tenant < 1:
            raise ValueError("need at least one partition per tenant")
        self.partitions_per_tenant = partitions_per_tenant
        self.version = 0
        self._map: Dict[str, List[Partition]] = {}
        #: the node ring each tenant was placed over (placement order) —
        #: what hint-holder selection walks when home replicas are
        #: unreachable in leaderless mode
        self._rings: Dict[str, Tuple[str, ...]] = {}
        #: keyspace size per range-partitioned tenant
        self._key_space: Dict[str, int] = {}
        #: per-tenant (sorted los, positions) for range-mode routing
        self._by_lo: Dict[str, Tuple[List[int], List[int]]] = {}

    def place_tenant(self, tenant: str, nodes: Sequence[str], rf: int = 1) -> None:
        """Assign the tenant's partitions round-robin over ``nodes``.

        ``rf`` replicas per partition (clamped to the node count).
        Placement is deterministic in ``(nodes, rf)``: re-placing a
        tenant over the same node list yields the same partitions.
        """
        if not nodes:
            raise ValueError("no nodes to place on")
        if rf < 1:
            raise ValueError(f"replication factor {rf} < 1")
        width = min(rf, len(nodes))
        self._map[tenant] = [
            Partition(
                tenant,
                i,
                tuple(nodes[(i + r) % len(nodes)] for r in range(width)),
            )
            for i in range(self.partitions_per_tenant)
        ]
        self._rings[tenant] = tuple(nodes)
        self.version += 1

    def place_tenant_ranges(
        self,
        tenant: str,
        replica_sets: Sequence[Tuple[str, ...]],
        key_space: int,
        ring: Sequence[str] = (),
    ) -> None:
        """Place a tenant as contiguous key ranges over given replicas.

        The keyspace ``[0, key_space)`` is split into
        ``len(replica_sets)`` equal-width ranges; partition ``i`` gets
        ``replica_sets[i]`` (primary first).  The control plane computes
        the replica sets from the consistent-hash ring; this map only
        records and versions them.  ``ring`` is the node walk order for
        hint-candidate selection (defaults to the distinct nodes in
        placement order).
        """
        if not replica_sets:
            raise ValueError("no replica sets to place")
        if key_space < len(replica_sets):
            raise ValueError(f"key space {key_space} smaller than partition count")
        n = len(replica_sets)
        self._map[tenant] = [
            Partition(
                tenant,
                i,
                tuple(replica_sets[i]),
                lo=i * key_space // n,
                hi=(i + 1) * key_space // n,
            )
            for i in range(n)
        ]
        self._key_space[tenant] = key_space
        if ring:
            self._rings[tenant] = tuple(ring)
        else:
            seen: Dict[str, None] = {}
            for rs in replica_sets:
                for name in rs:
                    seen.setdefault(name, None)
            self._rings[tenant] = tuple(seen)
        self._reindex(tenant)
        self.version += 1

    def ranged(self, tenant: str) -> bool:
        """True when the tenant routes by key range, not mod-hash."""
        return tenant in self._key_space

    def key_space(self, tenant: str) -> int:
        return self._key_space[tenant]

    def _reindex(self, tenant: str) -> None:
        """Rebuild the sorted-range index after a placement mutation."""
        pairs = sorted(
            (p.lo, pos) for pos, p in enumerate(self._map[tenant])
        )
        self._by_lo[tenant] = ([lo for lo, _ in pairs], [pos for _, pos in pairs])

    def _find(self, tenant: str, index: int) -> int:
        """List position of the partition with stable id ``index``."""
        partitions = self._map.get(tenant)
        if partitions is None:
            raise KeyError(f"tenant {tenant!r} not placed")
        for pos, p in enumerate(partitions):
            if p.index == index:
                return pos
        raise KeyError(f"no partition {tenant}/{index}")

    def get_partition(self, tenant: str, index: int) -> Partition:
        """The partition with stable id ``index``."""
        return self._map[tenant][self._find(tenant, index)]

    def partition_of(self, tenant: str, key: int) -> Partition:
        partitions = self._map.get(tenant)
        if partitions is None:
            raise KeyError(f"tenant {tenant!r} not placed")
        if tenant in self._key_space:
            if not 0 <= key < self._key_space[tenant]:
                raise KeyError(
                    f"key {key} outside {tenant!r} keyspace "
                    f"[0, {self._key_space[tenant]})"
                )
            los, positions = self._by_lo[tenant]
            return partitions[positions[bisect.bisect_right(los, key) - 1]]
        return partitions[key % self.partitions_per_tenant]

    def partitions(self, tenant: str) -> List[Partition]:
        """The tenant's partitions, in index order."""
        partitions = self._map.get(tenant)
        if partitions is None:
            raise KeyError(f"tenant {tenant!r} not placed")
        return list(partitions)

    def node_of(self, tenant: str, key: int) -> str:
        """The key's current primary."""
        return self.partition_of(tenant, key).node

    def replicas_of(self, tenant: str, key: int) -> Tuple[str, ...]:
        """The key's replica set, primary first."""
        return self.partition_of(tenant, key).replicas

    def nodes_of(self, tenant: str) -> List[str]:
        """Distinct nodes hosting any replica, in placement order."""
        seen: Dict[str, None] = {}
        for p in self._map.get(tenant, []):
            for name in p.replicas:
                seen.setdefault(name, None)
        return list(seen)

    def tenants(self) -> List[str]:
        return list(self._map)

    def partitions_on(self, tenant: str, node: str) -> int:
        """How many of the tenant's partitions ``node`` is primary for."""
        return sum(1 for p in self._map.get(tenant, []) if p.node == node)

    def replicas_on(self, tenant: str, node: str) -> int:
        """How many of the tenant's partitions have *any* replica on
        ``node`` (primary included) — the write-load weight."""
        return sum(1 for p in self._map.get(tenant, []) if node in p.replicas)

    def primary_weight(self, tenant: str, node: str) -> float:
        """Fraction of the tenant's keyspace ``node`` is primary for.

        Mod-hash tenants weight partitions equally; range tenants
        weight by key-range width, so post-split unequal ranges get
        proportionally unequal reservation shares.
        """
        partitions = self._map.get(tenant, [])
        total = sum(p.width for p in partitions)
        if total == 0:
            return 0.0
        return sum(p.width for p in partitions if p.node == node) / total

    def replica_weight(self, tenant: str, node: str) -> float:
        """Fraction of the tenant's keyspace with *any* replica on
        ``node`` (primary included)."""
        partitions = self._map.get(tenant, [])
        total = sum(p.width for p in partitions)
        if total == 0:
            return 0.0
        return sum(p.width for p in partitions if node in p.replicas) / total

    def next_index(self, tenant: str) -> int:
        """The next unused stable partition id for a tenant."""
        partitions = self._map.get(tenant)
        if partitions is None:
            raise KeyError(f"tenant {tenant!r} not placed")
        return max(p.index for p in partitions) + 1

    def set_replicas(
        self, tenant: str, index: int, replicas: Tuple[str, ...]
    ) -> None:
        """Atomically install a migrated partition's new replica set.

        This is the cutover commit: one version bump swaps ownership,
        invalidating every cached resolution so clients re-resolve to
        the new primary.  The key range (or mod slot) is unchanged.
        """
        if not replicas:
            raise ValueError("replica set cannot be empty")
        pos = self._find(tenant, index)
        old = self._map[tenant][pos]
        self._map[tenant][pos] = Partition(
            tenant, index, tuple(replicas), lo=old.lo, hi=old.hi
        )
        self.version += 1

    def split(
        self, tenant: str, index: int, at: int, new_replicas: Tuple[str, ...]
    ) -> Partition:
        """Atomically split a range partition in two at key ``at``.

        The lower half ``[lo, at)`` keeps the old id and replicas (its
        data does not move); the upper half ``[at, hi)`` gets a fresh
        stable id and ``new_replicas``.  One version bump installs
        both, so clients never observe a map with a coverage gap.
        Returns the new upper partition.
        """
        if tenant not in self._key_space:
            raise ValueError(f"tenant {tenant!r} is not range-partitioned")
        pos = self._find(tenant, index)
        old = self._map[tenant][pos]
        if not old.lo < at < old.hi:
            raise ValueError(
                f"split point {at} outside ({old.lo}, {old.hi}) "
                f"for {tenant}/{index}"
            )
        upper = Partition(
            tenant, self.next_index(tenant), tuple(new_replicas),
            lo=at, hi=old.hi,
        )
        self._map[tenant][pos] = Partition(
            tenant, index, old.replicas, lo=old.lo, hi=at
        )
        self._map[tenant].append(upper)
        self._reindex(tenant)
        self.version += 1
        return upper

    def hint_candidates(self, tenant: str, index: int) -> List[str]:
        """Ring successors beyond a partition's replica set, in walk
        order — the Dynamo-style sloppy-quorum spill targets: when a
        home replica is unreachable, the write (plus a hint naming the
        intended owner) lands on the first reachable candidate, to be
        handed back when the owner recovers."""
        partitions = self._map.get(tenant)
        if partitions is None:
            raise KeyError(f"tenant {tenant!r} not placed")
        ring = self._rings[tenant]
        partition = partitions[self._find(tenant, index)]
        width = len(partition.replicas)
        return [
            ring[(index + width + i) % len(ring)]
            for i in range(len(ring) - width)
            if ring[(index + width + i) % len(ring)] not in partition.replicas
        ]

    def promote(self, tenant: str, index: int, new_primary: str) -> None:
        """Fail a partition over: reorder its replica chain so
        ``new_primary`` leads, and bump the map version.

        The demoted old primary stays in the chain (it may hold durable
        data worth reconciling when it returns); re-replication onto a
        fresh node is out of scope here.
        """
        partitions = self._map.get(tenant)
        if partitions is None:
            raise KeyError(f"tenant {tenant!r} not placed")
        pos = self._find(tenant, index)
        partition = partitions[pos]
        if new_primary not in partition.replicas:
            raise ValueError(
                f"{new_primary} is not a replica of {tenant}/{index} "
                f"({partition.replicas})"
            )
        reordered = (new_primary,) + tuple(
            name for name in partition.replicas if name != new_primary
        )
        partitions[pos] = Partition(
            tenant, index, reordered, lo=partition.lo, hi=partition.hi
        )
        self.version += 1
