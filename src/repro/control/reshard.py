"""Live partition migration: placement and the cutover commit.

Moving a partition while it serves traffic is catch-up-then-cutover,
and the transfer protocol lives behind one module:
:meth:`~repro.net.PrimaryBackupService.transfer` on the source primary.

1. **Snapshot ship** — the source primary range-scans the partition's
   keys (a real, charged engine read) and ships them in batches to
   every joining replica, which applies them through the full charged
   replica path (``StorageNode.apply_replica``).  Migration traffic is
   therefore priced in VOPs on both ends, shows up in Libra's demand
   estimates, and reconciles in :class:`~repro.obs.audit.VopAudit`.
2. **Catch-up rounds** — writes that committed on the source after the
   snapshot started were collected in a WAL tail; the source replays
   the tail in rounds until it is short enough to drain inside a fence
   window.
3. **Fence + cutover** — the source stops admitting writes to the
   migrating range (in-flight ones commit first and join the tail),
   the final tail drains, and the commit this module supplies runs:
   one atomic :meth:`PartitionMap.set_replicas` (or
   :meth:`PartitionMap.split`) version bump hands ownership over, and
   sequence state is aligned across the new replica set.
   Clients that raced the fence see their retries give up on the
   version change and re-resolve to the new primary — no acknowledged
   write is ever lost, because every acknowledged write is either in
   the snapshot, in a replayed tail round, or in the fenced drain.

Invariants the tests and ``scalefig`` lean on:

- a write is acknowledged only after it is durable on the source (and
  its quorum), and every acknowledged write reaches the destination
  before the map bump;
- the map version strictly increases, and each cutover is a single
  bump (clients never observe an intermediate placement);
- after cutover the cluster re-derives every node's share of the
  tenant's reservation from the new map
  (``StorageCluster.split_reservation``), so a source that no longer
  hosts the tenant drops to a zero reservation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["ReshardCoordinator", "MigrationReport"]


@dataclass
class MigrationReport:
    """One completed migration or split, for reports and tests."""

    kind: str  # "move" | "split"
    tenant: str
    index: int
    #: new stable id of the upper half (splits only)
    new_index: Optional[int] = None
    old_replicas: Tuple[str, ...] = ()
    new_replicas: Tuple[str, ...] = ()
    snapshot_records: int = 0
    tail_rounds: int = 0
    tail_records: int = 0
    started: float = 0.0
    cutover_at: float = 0.0
    #: fence window: how long writes to the range were rejected
    fence_seconds: float = 0.0
    map_version: int = 0

    def summary(self) -> str:
        target = (
            f"{self.tenant}/{self.index}->{self.new_index}"
            if self.kind == "split"
            else f"{self.tenant}/{self.index}"
        )
        return (
            f"{self.kind} {target}: {self.snapshot_records} snapshot + "
            f"{self.tail_records} tail records over {self.tail_rounds} rounds, "
            f"fence {self.fence_seconds * 1e3:.2f}ms, map v{self.map_version}"
        )


@dataclass
class ReshardCoordinator:
    """Drives live migrations and splits against a ``StorageCluster``.

    A DES actor: its public methods are generators the caller drives
    with ``yield from`` (or wraps in ``sim.process``).  One migration
    runs at a time per source partition; distinct partitions may
    migrate concurrently.  A move and a split share one body; they
    differ only in the key range that moves and in the commit.
    """

    cluster: object
    reports: List[MigrationReport] = field(default_factory=list)

    def migrate(self, tenant: str, index: int, new_replicas: Tuple[str, ...]):
        """DES generator: move a partition to ``new_replicas``.

        Returns the :class:`MigrationReport` (also appended to
        ``reports``), or ``None`` when the placement is unchanged.
        """
        pm = self.cluster.partition_map
        services = self.cluster.services
        partition = pm.get_partition(tenant, index)
        new_replicas = tuple(new_replicas)
        if new_replicas == partition.replicas:
            return None
        if partition.lo is None:
            raise ValueError(
                f"{tenant}/{index} is mod-hash placed; only range partitions migrate"
            )

        def commit(report):
            pm.set_replicas(tenant, index, new_replicas)
            # Declare the acked prefix on every new member so the new
            # primary's stream continues above any survivor's applied
            # sequence (a survivor would otherwise drop it as stale).
            seq = max(
                services[name].applied_seq(tenant, index)
                for name in set(partition.replicas) | set(new_replicas)
            )
            for name in new_replicas:
                services[name].reset_stream(tenant, index, seq)

        return (yield from self._move("move", partition, partition.lo, new_replicas, commit))

    def split(
        self,
        tenant: str,
        index: int,
        at: Optional[int] = None,
        new_replicas: Optional[Tuple[str, ...]] = None,
    ):
        """DES generator: split a range partition in two at key ``at``.

        The lower half keeps its id, replicas, and data; the upper half
        ``[at, hi)`` gets a fresh id on ``new_replicas`` (defaulting to
        the current replicas — an in-place metadata split with no data
        movement).  When the upper half moves, its data migrates with
        the same snapshot/tail/fence transfer as :meth:`migrate`.
        """
        pm = self.cluster.partition_map
        services = self.cluster.services
        partition = pm.get_partition(tenant, index)
        if partition.lo is None:
            raise ValueError(f"{tenant}/{index} is mod-hash placed; cannot split")
        if at is None:
            at = (partition.lo + partition.hi) // 2
        if not partition.lo < at < partition.hi:
            raise ValueError(
                f"split point {at} outside ({partition.lo}, {partition.hi})"
            )
        new_replicas = tuple(new_replicas or partition.replicas)

        def commit(report):
            report.new_index = pm.split(tenant, index, at, new_replicas).index
            # The upper half is a fresh stream: every new replica
            # starts at sequence zero, already aligned.
            for name in new_replicas:
                services[name].reset_stream(tenant, report.new_index, 0)

        # Only the upper range is tailed and fenced; writes to the
        # lower half flow untouched throughout.
        return (yield from self._move("split", partition, at, new_replicas, commit))

    def _move(self, kind, partition, lo, new_replicas, commit):
        """DES generator: transfer ``[lo, partition.hi)`` to the joining
        replicas, run ``commit(report)`` inside the source's fence, then
        re-split the tenant's reservation over the new map."""
        cluster = self.cluster
        tenant = partition.tenant
        report = MigrationReport(
            kind, tenant, partition.index, old_replicas=partition.replicas,
            new_replicas=new_replicas, started=cluster.sim.now,
        )
        # Joining replicas need the data shipped; survivors from the old
        # set already hold the applied prefix.
        targets = [n for n in new_replicas if n not in partition.replicas]
        for name in new_replicas:
            cluster.ensure_tenant(name, tenant)
        source = cluster.services[partition.node]
        (
            report.snapshot_records, report.tail_rounds, report.tail_records, fenced_at
        ) = yield from source.transfer(
            tenant, partition.index, lo, partition.hi, targets, lambda: commit(report)
        )
        report.cutover_at = cluster.sim.now
        report.fence_seconds = report.cutover_at - fenced_at
        report.map_version = cluster.partition_map.version
        cluster.split_reservation(tenant)
        self.reports.append(report)
        return report
