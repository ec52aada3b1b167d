"""Multi-node shared key-value storage (the Pisces-lite layer).

``StorageCluster`` stands in for the system-wide policies of §2.1: it
places tenant partitions across nodes, splits each tenant's *global*
reservation into local per-node reservations proportional to the
partitions hosted there, and collects the overflow notifications Libra
emits when a node's reservations exceed its provisionable capacity —
the signal a real deployment would use to migrate partitions.

The cluster also assembles the network substrate from :mod:`repro.net`
that its :class:`~repro.net.NetConfig` describes (by default, rf=1): a
shared fabric, one replica service per node for the configured protocol
(:class:`~repro.net.PrimaryBackupService` or
:class:`~repro.net.LeaderlessService`), replication at the configured
factor, and a heartbeat failure detector
that promotes backups (and re-splits reservations) when a node dies.
Clients reach the nodes only over that fabric (:meth:`make_client`).
Replicated writes consume VOPs on every replica, so the reservation
split weights PUTs by *replica* share — provisioned write capacity is
paid ``rf`` times, exactly as Libra's demand estimates will observe it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from ..core.policy import OverflowReport, Reservation
from ..engine import EngineConfig
from ..sim import Simulator
from ..ssd import SsdProfile
from .router import PartitionMap
from .server import NodeConfig, StorageNode
from .tenant import RequestStats

__all__ = ["StorageCluster"]


class StorageCluster:
    """A set of storage nodes plus placement and reservation splitting."""

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int = 2,
        profile: Union[str, SsdProfile] = "intel320",
        config: Optional[NodeConfig] = None,
        partitions_per_tenant: int = 8,
        seed: int = 0,
        net=None,
        obs=None,
    ):
        if n_nodes < 1:
            raise ValueError("cluster needs at least one node")
        self.sim = sim
        #: shared repro.obs.Observability handle — every node publishes
        #: spans into the same tracer, so cross-node traces line up
        self.obs = obs
        self.nodes: Dict[str, StorageNode] = {}
        self.overflows: List[OverflowReport] = []
        # Construction parameters, kept for control-plane node adds.
        self._profile = profile
        self._node_config = config
        self._seed = seed
        self._node_seq = 0
        for _ in range(n_nodes):
            self._new_node()
        self.partition_map = PartitionMap(partitions_per_tenant)
        self._global_reservations: Dict[str, Reservation] = {}
        # -- optional control plane (repro.control) ------------------------
        #: consistent-hash ring; created by :meth:`enable_control`
        self.ring = None
        self._key_space = 0
        self._reshard = None
        # -- network substrate (repro.net) ---------------------------------
        from ..net import (
            FailureDetector,
            LeaderlessService,
            Membership,
            NetConfig,
            NetworkFabric,
            PrimaryBackupService,
        )

        self.net = net = NetConfig() if net is None else net
        self._service_cls = LeaderlessService if net.leaderless else PrimaryBackupService
        self._clients = 0
        self.fabric = NetworkFabric(sim, net)
        self.membership = Membership()
        self.services, self.anti_entropy, self.heartbeats = {}, {}, {}
        # Wiring runs in two phases around the detector's construction,
        # node by node within each: the background loops' start order
        # fixes which of them runs first at a shared instant.
        self._serve(list(self.nodes))
        self.detector = FailureDetector(
            sim, self.fabric, self.partition_map, self.membership, config=net,
            on_failover=self._on_failover,
        )
        self._watch(list(self.nodes))

    def _serve(self, names: List[str]) -> None:
        """Start new nodes' replica services (leaderless: and anti-entropy)."""
        from ..net import AntiEntropyService

        for name in names:
            self.services[name] = self._service_cls(
                self.sim, self.nodes[name], self.fabric, self.partition_map,
                self.membership, config=self.net,
            )
        if self.net.leaderless:
            for name in names:
                self.anti_entropy[name] = AntiEntropyService(self.sim, self.services[name])

    def _watch(self, names: List[str]) -> None:
        """Admit served nodes to the membership and the detector, and
        start their heartbeats."""
        from ..net import HeartbeatService

        for name in names:
            self.membership.add(name)
            self.detector.watch(name)
            self.heartbeats[name] = HeartbeatService(
                self.sim, self.services[name].rpc, self.detector.endpoint.name,
                self.net.heartbeat_interval,
            )

    def _new_node(self, name: Optional[str] = None) -> str:
        """Construct the next StorageNode (no net wiring)."""
        if name is None:
            name = f"node{self._node_seq}"
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        self.nodes[name] = StorageNode(
            self.sim,
            profile=self._profile,
            config=self._node_config,
            seed=self._seed + self._node_seq,
            name=name,
            on_overflow=self.overflows.append,
            obs=self.obs,
        )
        self._node_seq += 1
        return name

    @property
    def rf(self) -> int:
        """The cluster's replication factor."""
        return self.net.rf

    # -- control plane (repro.control) -------------------------------------

    @property
    def reshard(self):
        """The lazily created live-migration coordinator."""
        if self._reshard is None:
            from ..control.reshard import ReshardCoordinator

            self._reshard = ReshardCoordinator(self)
        return self._reshard

    def enable_control(self, key_space: int = 1 << 20, vnodes: int = 64) -> None:
        """Switch on ring placement for subsequently added tenants.

        Builds the consistent-hash ring over the current nodes; tenants
        placed with :meth:`add_ranged_tenant` get contiguous key ranges
        ``[0, key_space)`` whose replica sets the ring picks, and
        :meth:`grow`/:meth:`drain_node` keep them balanced with
        minimal-movement migrations.  Existing mod-hash tenants are
        untouched.  Live migration ships snapshots and WAL tails over
        each node's :class:`~repro.net.PrimaryBackupService`.

        A leaderless cluster is refused: its coordinators neither fence
        nor tail-capture writes, and a migration's applies would bypass
        the destination's version store.
        """
        if self.net.leaderless:
            raise ValueError("the control plane needs primary-backup replication")
        from ..control.ring import HashRing

        self.ring = HashRing(list(self.nodes), vnodes=vnodes)
        self._key_space = key_space

    def add_ranged_tenant(
        self,
        tenant: str,
        reservation: Reservation,
        n_partitions: Optional[int] = None,
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        """Place a tenant as ring-placed key ranges (control-plane mode).

        The reservation split follows keyspace *width* rather than
        partition count, so post-split unequal ranges get proportional
        shares.
        """
        if self.ring is None:
            raise RuntimeError("call enable_control() before add_ranged_tenant()")
        n = self.partition_map.partitions_per_tenant if n_partitions is None else n_partitions
        if n < 1:
            raise ValueError(f"need at least one partition, got {n_partitions!r}")
        self._global_reservations[tenant] = reservation
        replica_sets = [
            self.ring.successors(f"{tenant}/{i}", self.rf) for i in range(n)
        ]
        self.partition_map.place_tenant_ranges(
            tenant, replica_sets, self._key_space, ring=self.ring.nodes
        )
        for name, node in self.nodes.items():
            local = self._local_reservation(tenant, name)
            if local is None:
                continue
            node.add_tenant(tenant, local, engine_config=engine_config)
            self.services[name].watch_tenant(tenant)

    def ensure_tenant(self, name: str, tenant: str) -> None:
        """Register a tenant on a node ahead of a migration (zero
        reservation until the post-cutover re-split assigns its share)."""
        node = self.nodes[name]
        if tenant in node.tenants:
            return
        node.add_tenant(tenant, Reservation())
        self.services[name].watch_tenant(tenant)

    def add_node(self, name: Optional[str] = None) -> str:
        """Provision one node: engine stack plus full net wiring.

        Pure state change (no DES time passes); data only moves once
        :meth:`grow` or a migration moves partitions onto it.
        """
        name = self._new_node(name)
        self._serve([name])
        self._watch([name])
        return name

    def grow(self, name: Optional[str] = None):
        """DES generator: add a node and rebalance ranged tenants onto it.

        The ring computes the minimal-movement placement; every moved
        partition is live-migrated (snapshot + tail + fenced cutover),
        one at a time, each with its own atomic map bump and
        reservation re-split.  Returns the migration reports.
        """
        name = self.add_node(name)
        reports = []
        if self.ring is None:
            return reports
        self.ring.add_node(name)
        for tenant in sorted(self.partition_map.tenants()):
            if not self.partition_map.ranged(tenant):
                continue
            for partition in sorted(
                self.partition_map.partitions(tenant), key=lambda p: p.index
            ):
                new_rs = self.ring.successors(
                    f"{tenant}/{partition.index}", self.rf
                )
                if new_rs != partition.replicas:
                    report = yield from self.reshard.migrate(
                        tenant, partition.index, new_rs
                    )
                    if report is not None:
                        reports.append(report)
        return reports

    def drain_node(self, name: str):
        """DES generator: migrate everything off a node, then retire it.

        The ring drops the node first so successor walks skip it; every
        partition with a replica here is live-migrated to its new
        placement.  The node then leaves the membership view cleanly —
        no suspicion, no failover — and stops.
        """
        if self.ring is not None and name in self.ring:
            self.ring.remove_node(name)
        reports = []
        for tenant in sorted(self.partition_map.tenants()):
            if not self.partition_map.ranged(tenant):
                continue
            for partition in sorted(
                self.partition_map.partitions(tenant), key=lambda p: p.index
            ):
                if name not in partition.replicas:
                    continue
                if self.ring is not None:
                    new_rs = self.ring.successors(
                        f"{tenant}/{partition.index}", self.rf
                    )
                else:
                    survivors = tuple(
                        r for r in partition.replicas if r != name
                    )
                    if not survivors:
                        continue
                    new_rs = survivors
                report = yield from self.reshard.migrate(
                    tenant, partition.index, new_rs
                )
                if report is not None:
                    reports.append(report)
        heartbeat = self.heartbeats.pop(name, None)
        if heartbeat is not None:
            heartbeat.stop()
        self.detector.unwatch(name)
        self.membership.remove(name)
        ae = self.anti_entropy.pop(name, None)
        if ae is not None:
            ae.stop()
        self.nodes[name].stop()
        return reports

    def split_partition(self, tenant: str, index: int, at: Optional[int] = None):
        """DES generator: split a hot range partition in two.

        The ring places the new upper half (so the split usually also
        sheds load); without a ring the split is in place.
        """
        new_replicas = None
        if self.ring is not None:
            new_index = self.partition_map.next_index(tenant)
            new_replicas = self.ring.successors(f"{tenant}/{new_index}", self.rf)
        report = yield from self.reshard.split(
            tenant, index, at=at, new_replicas=new_replicas
        )
        return report

    # -- tenant management -------------------------------------------------------

    def add_tenant(
        self,
        tenant: str,
        reservation: Reservation,
        engine_config: Optional[EngineConfig] = None,
    ) -> None:
        """Place a tenant and split its global reservation over replicas.

        Local reservations are proportional to hosted load (uniform
        demand assumption — the DynamoDB-style contract; Pisces would
        adapt these weights dynamically): GETs follow the node's
        *primary* partition share, PUTs its *replica* share, since a
        replicated write is durably applied — and costed — on every
        replica.  Nodes hosting no replica of the tenant (possible when
        the cluster has more nodes than partitions) are skipped
        entirely: no engine, no principal, no zero reservation to
        confuse the per-node policy.
        """
        self._global_reservations[tenant] = reservation
        node_names = list(self.nodes)
        self.partition_map.place_tenant(tenant, node_names, rf=self.rf)
        for name, node in self.nodes.items():
            local = self._local_reservation(tenant, name)
            if local is None:
                continue
            node.add_tenant(tenant, local, engine_config=engine_config)
            self.services[name].watch_tenant(tenant)

    def _local_reservation(self, tenant: str, name: str) -> Optional[Reservation]:
        """The tenant's reservation share on one node; None if unhosted.

        Primary-backup: GETs follow the node's *primary* share (the
        primary serves reads), PUTs its *replica* share.  Leaderless:
        reads fan out to any ``R`` of the ``rf`` home replicas, so the
        GET share follows the replica share scaled by ``R / rf`` — the
        expected fraction of the tenant's read work each replica
        absorbs under any-replica coordination; writes still land
        durably on every replica, so the PUT share is unchanged.
        """
        primary_share = self.partition_map.primary_weight(tenant, name)
        replica_share = self.partition_map.replica_weight(tenant, name)
        if replica_share == 0:
            return None
        reservation = self._global_reservations[tenant]
        if self.net.leaderless:
            rf = self.rf
            read_share = min(self.net.effective_read_quorum, rf) / rf
            return Reservation(
                gets=reservation.gets * replica_share * read_share,
                puts=reservation.puts * replica_share,
            )
        return Reservation(
            gets=reservation.gets * primary_share,
            puts=reservation.puts * replica_share,
        )

    def make_client(self, name: Optional[str] = None):
        """A new :class:`~repro.net.ClusterClient` on the fabric."""
        from ..net import ClusterClient

        if name is None:
            name = f"client{self._clients}"
        self._clients += 1
        tracer = self.obs.tracer if self.obs is not None else None
        return ClusterClient(
            self.sim, self.fabric, self.partition_map, self.membership,
            name=name, config=self.net, tracer=tracer,
        )

    # -- failures ----------------------------------------------------------------

    def kill_node(self, name: str) -> None:
        """Fail a node mid-run: machine loss, silent on the network.

        The failure detector notices the missing heartbeats, promotes
        backups for every partition the node led, and re-splits the
        affected tenants' reservations.
        """
        node = self.nodes[name]
        node.fail()
        self.fabric.set_down(name)
        heartbeat = self.heartbeats.get(name)
        if heartbeat is not None:
            heartbeat.stop()

    def _on_failover(self, record) -> None:
        """Detector callback: follow promotions with reservation moves."""
        for tenant in {tenant for tenant, _pid, _node, _seq in record.promotions}:
            self._resplit_tenant(tenant)

    def _resplit_tenant(self, tenant: str) -> None:
        """Re-split a tenant's global reservation over the current map.

        After a failover the promoted primaries carry the dead node's
        GET share; dead nodes are skipped (their schedulers are
        stopped).  A surviving node that hosts replicas but never saw
        the tenant cannot appear here — promotion only reorders an
        existing replica chain.
        """
        for name, node in self.nodes.items():
            if node.failed or tenant not in node.tenants:
                continue
            local = self._local_reservation(tenant, name)
            if local is not None:
                node.set_reservation(tenant, local)

    # -- reservation redistribution (the §2.1 higher-level policy) ---------------------

    def redistribute_reservations(self, margin: float = 0.95) -> int:
        """Shift local reservations off overbooked nodes.

        For every node whose estimated VOP demand exceeds ``margin`` ×
        its provisionable capacity (the condition under which Libra
        scales allocations down and signals overflow), each tenant's
        local reservation is shaved proportionally to fit, and the
        shaved request rates are added to the tenant's least-loaded
        other node.  This is the "redistribute local reservations"
        response the paper delegates to Pisces-style policies; partition
        *migration* (moving the data itself) is out of scope here, so a
        receiving node serves the extra reservation only to the extent
        requests reach it.

        Returns the number of (tenant, node→node) moves performed.
        """
        if not 0 < margin <= 1.0:
            raise ValueError(f"margin {margin} not in (0, 1]")
        moves = 0
        demands = {
            name: node.policy.estimated_demand() for name, node in self.nodes.items()
        }
        totals = {name: sum(d.values()) for name, d in demands.items()}
        budgets = {
            name: node.capacity_vops * margin for name, node in self.nodes.items()
        }
        # Process the most overloaded nodes first, moving residuals only
        # into remaining *headroom* so a receiver is never pushed over
        # its own budget (no intra-pass ping-pong).
        overloaded = sorted(
            (name for name in self.nodes if totals[name] > budgets[name]),
            key=lambda name: budgets[name] - totals[name],
        )
        for name in overloaded:
            node = self.nodes[name]
            total = totals[name]
            budget = budgets[name]
            if total <= budget:
                continue
            keep = budget / total
            for tenant in list(node.tenants):
                local = node.policy.reservation(tenant)
                residual = local.scaled(1.0 - keep)
                node.set_reservation(tenant, local.scaled(keep))
                demand_shift = demands[name].get(tenant, 0.0) * (1.0 - keep)
                totals[name] -= demand_shift
                target = self._most_headroom_other(tenant, name, totals, budgets)
                if target is None:
                    # Nowhere to put it: the reservation stays here (the
                    # local policy will keep scaling it down until a
                    # partition migration resolves the hotspot).
                    node.set_reservation(tenant, local)
                    totals[name] += demand_shift
                    continue
                headroom = budgets[target] - totals[target]
                accept = min(1.0, headroom / demand_shift) if demand_shift > 0 else 1.0
                if accept < 1.0:
                    # Partially return what the target cannot absorb.
                    returned = 1.0 - accept
                    base = node.policy.reservation(tenant)
                    node.set_reservation(
                        tenant,
                        Reservation(
                            gets=base.gets + residual.gets * returned,
                            puts=base.puts + residual.puts * returned,
                        ),
                    )
                    totals[name] += demand_shift * returned
                target_node = self.nodes[target]
                if tenant not in target_node.tenants:
                    target_node.add_tenant(tenant, Reservation())
                    self.services[target].watch_tenant(tenant)
                current = target_node.policy.reservation(tenant)
                target_node.set_reservation(
                    tenant,
                    Reservation(
                        gets=current.gets + residual.gets * accept,
                        puts=current.puts + residual.puts * accept,
                    ),
                )
                totals[target] += demand_shift * accept
                moves += 1
        return moves

    def _most_headroom_other(
        self,
        tenant: str,
        exclude: str,
        totals: Dict[str, float],
        budgets: Dict[str, float],
    ):
        candidates = [
            name
            for name in self.partition_map.nodes_of(tenant)
            if name != exclude
            and not self.nodes[name].failed
            and budgets[name] - totals[name] > 0
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda name: budgets[name] - totals[name])

    # -- aggregation ------------------------------------------------------------------

    def total_stats(self, tenant: str) -> RequestStats:
        """System-wide request stats for a tenant (summed over nodes).

        App-level counters (gets/puts/deletes) count each client
        request once, on its serving primary; backup write load is in
        ``repl_applies``/``repl_units``.
        """
        total = RequestStats()
        for node in self.nodes.values():
            stats = node.request_stats.get(tenant)
            if stats is not None:
                total.merge(stats)
        return total

    def durable_record_counts(self, tenant: str) -> Dict[str, int]:
        """Per-node durable WAL record counts for a tenant.

        Fed by the WAL commit hook; the cluster-wide sum versus acked
        client writes is the replication write amplification.
        """
        return {
            name: service.durable_records.get(tenant, 0)
            for name, service in self.services.items()
        }

    def divergent_partitions(self, tenant: str) -> List[int]:
        """Partition ids whose home replicas' version stores disagree
        (leaderless mode) — the convergence probe behind the
        time-to-convergence measurements: empty means every replica of
        every partition holds the identical surviving version set.
        """
        divergent = []
        for partition in self.partition_map.partitions(tenant):
            fingerprints = {
                self.services[name].versions.fingerprint(tenant, partition.index)
                for name in partition.replicas
            }
            if len(fingerprints) > 1:
                divergent.append(partition.index)
        return divergent

    def converged(self, tenant: str) -> bool:
        """True when all the tenant's replicas agree (leaderless mode)."""
        return not self.divergent_partitions(tenant)

    def stop(self) -> None:
        for heartbeat in self.heartbeats.values():
            heartbeat.stop()
        for service in self.services.values():
            service.stop()
        for ae in self.anti_entropy.values():
            ae.stop()
        self.detector.stop()
        for node in self.nodes.values():
            node.stop()
