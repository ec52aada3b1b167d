"""Failure detection and partition failover.

Every storage node's replica service endpoint casts a heartbeat to a
cluster controller endpoint on a fixed period; the controller's
:class:`FailureDetector` sweeps the table and declares any node silent
for longer than the suspicion timeout **dead**.  Under primary-backup
there is no un-suspecting (a killed node stays killed; flapping
detectors are out of scope for the single-failure experiments that mode
serves).  Under **leaderless** replication the detector instead treats
death as *suspicion*: a suspected node whose heartbeats resume — a
partitioned node after the heal — is revived
(:meth:`~repro.net.replication.Membership.mark_live`), which is the
signal hinted handoff waits for, and no promotions run (there is no
primary to promote; any home replica coordinates).

Failover of a dead node's primaries is sequence-aware: for each
affected partition the detector queries every live backup replica for
its applied sequence (``repl.seq`` RPCs over the same fabric) and
promotes the replica with the **highest applied prefix**.  Because
write quorums guarantee every acknowledged write reached at least
``write_quorum - 1`` backups — each holding a contiguous prefix — the
max-sequence live replica holds every acknowledged write whenever at
most ``rf - write_quorum`` replicas are down.  Promotion bumps the
:class:`~repro.node.router.PartitionMap` version, which invalidates
router and client owner caches ("re-resolve stale owners"), and the
cluster re-splits the affected tenants' reservations over the surviving
replica layout so Libra's per-node demand targets follow the data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..faults import StorageFault
from ..node.router import PartitionMap
from ..sim import Simulator
from .fabric import NetConfig, NetworkFabric
from .replication import Membership
from .rpc import ACK_BYTES, RpcEndpoint

__all__ = ["HeartbeatService", "FailureDetector", "FailoverRecord"]

#: wire bytes of one heartbeat cast
HEARTBEAT_BYTES = 32


class FailoverRecord:
    """One completed failover, for reports and tests."""

    __slots__ = ("node", "at", "promotions")

    def __init__(self, node: str, at: float):
        self.node = node
        self.at = at
        #: (tenant, pid, new_primary, applied_seq) per promoted partition
        self.promotions: List[Tuple[str, int, str, int]] = []

    def __repr__(self) -> str:
        return (
            f"<FailoverRecord {self.node} at {self.at:.3f}s "
            f"{len(self.promotions)} promotions>"
        )


class HeartbeatService:
    """Periodic liveness casts from one node to the controller."""

    def __init__(
        self,
        sim: Simulator,
        endpoint: RpcEndpoint,
        controller: str,
        interval: float,
    ):
        self.sim = sim
        self.endpoint = endpoint
        self.controller = controller
        self.interval = interval
        self.beats = 0
        self._stopped = False
        sim.process(self._loop(), name=f"heartbeat.{endpoint.name}")

    def _loop(self):
        while not self._stopped:
            # The fabric drops casts from a down endpoint, so a killed
            # node goes silent without the service having to know.
            self.endpoint.cast(
                self.controller, "ctrl.heartbeat", self.endpoint.name, HEARTBEAT_BYTES
            )
            self.beats += 1
            yield self.sim.timeout(self.interval)

    def stop(self) -> None:
        self._stopped = True


class FailureDetector:
    """The controller: heartbeat table, suspicion sweep, failover driver."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        partition_map: PartitionMap,
        membership: Membership,
        config: Optional[NetConfig] = None,
        name: str = "ctrl",
        on_failover: Optional[Callable[[FailoverRecord], None]] = None,
    ):
        self.sim = sim
        self.partition_map = partition_map
        self.membership = membership
        self.config = config or fabric.config
        self.on_failover = on_failover
        self.endpoint = RpcEndpoint(sim, fabric, name, config=self.config)
        self.endpoint.register_cast("ctrl.heartbeat", self._on_heartbeat)
        #: node -> sim time of the freshest heartbeat received (or of
        #: :meth:`watch`, which starts a node's grace period)
        self.last_seen: Dict[str, float] = {}
        self.failovers: List[FailoverRecord] = []
        #: dead nodes that still lead a partition none of whose live
        #: replicas answered ``repl.seq``; retried every sweep
        self._unpromoted: Set[str] = set()
        self._stopped = False
        sim.process(self._sweep(), name=f"detector.{name}")

    def watch(self, name: str) -> None:
        """Track a node; its grace period starts now."""
        self.last_seen[name] = self.sim.now

    def unwatch(self, name: str) -> None:
        """Stop tracking a drained node (no suspicion, no failover)."""
        self.last_seen.pop(name, None)

    def _on_heartbeat(self, node: str) -> None:
        if node in self.last_seen:
            self.last_seen[node] = self.sim.now
            # Leaderless: a suspected node whose heartbeats resume is
            # recovered — revive it so hinted handoff starts delivering.
            # Primary-backup keeps declared deaths final (the promoted
            # map must not flap back).
            if self.config.leaderless and not self.membership.is_live(node):
                self.membership.mark_live(node)

    def _sweep(self):
        interval = self.config.heartbeat_interval
        while not self._stopped:
            yield self.sim.timeout(interval)
            deadline = self.sim.now - self.config.suspicion_timeout
            for node in sorted(self._unpromoted):
                yield from self._failover(node)
            for node in sorted(self.last_seen):
                if self.membership.is_live(node) and self.last_seen[node] < deadline:
                    self.membership.mark_dead(node)
                    if not self.config.leaderless:
                        yield from self._failover(node)

    def stop(self) -> None:
        self._stopped = True

    # -- failover ----------------------------------------------------------

    def _failover(self, dead: str):
        """DES sub-generator: promote a backup for every partition the
        dead node led, choosing the max applied sequence among live
        replicas.

        A replica that did not answer has an unknown applied prefix, so
        it is never promoted: a partition none of whose live replicas
        answered keeps its dead primary, and the node is retried on the
        next sweep.  That covers only the all-silent case.  When some
        replicas answer, the best of them is promoted even if a silent
        one holds a longer prefix, so acked writes past the promoted
        prefix can be lost.  The record is kept once the failover
        completes, or earlier if it already promoted something (the map
        moved, so reservations re-split).
        """
        record = FailoverRecord(dead, self.sim.now)
        unanswered = False
        for tenant in self.partition_map.tenants():
            for partition in self.partition_map.partitions(tenant):
                if partition.node != dead:
                    continue
                candidates = [
                    name
                    for name in partition.replicas[1:]
                    if self.membership.is_live(name)
                ]
                if not candidates:
                    # Every replica is gone; the partition is
                    # unavailable until an operator intervenes.
                    continue
                best, best_seq = None, -1
                for name in candidates:
                    seq = yield from self._applied_seq(name, tenant, partition.index)
                    if seq > best_seq:
                        best, best_seq = name, seq
                if best is None:
                    unanswered = True
                    continue
                self.partition_map.promote(tenant, partition.index, best)
                record.promotions.append((tenant, partition.index, best, best_seq))
        if unanswered:
            self._unpromoted.add(dead)
            if not record.promotions:
                return
        else:
            self._unpromoted.discard(dead)
        self.failovers.append(record)
        if self.on_failover is not None:
            self.on_failover(record)

    def _applied_seq(self, name: str, tenant: str, pid: int):
        """Query one replica's applied sequence; unreachable → -1 (the
        in-process service state is *not* consulted — the controller
        only knows what the wire tells it)."""
        try:
            return (yield from self.endpoint.call(name, "repl.seq", (tenant, pid), ACK_BYTES))
        except StorageFault:
            return -1
