"""What both replication protocols share.

Each storage node runs one replica service for the cluster's
``NetConfig.replication_mode`` — a
:class:`~repro.net.primary_backup.PrimaryBackupService` or a
:class:`~repro.net.leaderless.LeaderlessService` — and answers only that
protocol's methods.  Both stand on what lives here: the shared liveness
view (:class:`Membership`), the one reply counter behind every quorum
(:class:`Quorum`), and the thin base (:class:`ReplicaService`: the RPC
endpoint, the durable-record counter, the quorum outcome counters).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..sim import Event, Simulator
from .rpc import RpcEndpoint

__all__ = ["Membership", "Quorum", "ReplicaService"]


class Membership:
    """The cluster's shared view of which nodes are alive.

    In the simulation every service reads one membership object — the
    abstraction of a converged gossip/ZooKeeper view.  The failure
    detector is the only writer; everyone else asks :meth:`is_live`
    before spending an RPC budget on a dead peer.
    """

    def __init__(self, names=()):
        #: the live names: read it, never change it (the methods do)
        self.live: Set[str] = set(names)
        self._dead: List[str] = []
        #: dead→live transitions (leaderless recovery; see the detector)
        self.revivals = 0

    def is_live(self, name: str) -> bool:
        return name in self.live

    def live_first(self, names) -> List[str]:
        """``names`` in order, membership-live ones first, then the
        suspected-dead ones.

        Under a network partition the majority-side detector marks the
        minority's nodes dead while they stay reachable from their own
        side, so a walk that must find *someone* reachable (a
        leaderless coordinator, a hint holder) still tries them last.
        """
        live = self.live
        return [n for n in names if n in live] + [n for n in names if n not in live]

    def mark_dead(self, name: str) -> None:
        if name in self.live:
            self.live.discard(name)
            self._dead.append(name)

    def mark_live(self, name: str) -> None:
        """Revive a suspected-dead node (leaderless mode: a partitioned
        node whose heartbeats resume after the heal is *recovered*, the
        signal hinted handoff waits for — unlike primary-backup, where
        a declared death is final)."""
        if name in self._dead:
            self._dead.remove(name)
            self.live.add(name)
            self.revivals += 1

    def add(self, name: str) -> None:
        """Admit a freshly provisioned node (control-plane node add)."""
        self.live.add(name)

    def remove(self, name: str) -> None:
        """Retire a drained node: gone from the view without being
        declared dead, so no failover machinery runs for it."""
        self.live.discard(name)
        if name in self._dead:
            self._dead.remove(name)


class Quorum(Event):
    """Replies to one fan-out, counted toward a quorum: an event.

    Called as each reply's ``done(ok, value)`` (the
    :meth:`~repro.net.rpc.RpcEndpoint.call_async` callback shape).  It
    succeeds once ``need`` replies are ok; once all ``total`` have
    answered short of that, it succeeds if at least ``least`` are ok
    (default ``need``) and otherwise fails with ``error``, naming the
    request's ``tenant`` and ``key``.  Later replies are still counted
    but settle nothing.
    """

    __slots__ = ("need", "least", "total", "acks", "answered", "error", "owner",
                 "tenant", "key")

    def __init__(self, sim: Simulator, need: int, total: int, error, owner: str,
                 tenant: str, key: int, least: Optional[int] = None):
        Event.__init__(self, sim)
        self.need = need
        self.least = least
        self.total = total
        self.acks = 0
        self.answered = 0
        self.error = error
        self.owner = owner
        self.tenant = tenant
        self.key = key

    def __call__(self, ok: bool, _value=None) -> None:
        if ok:
            self.acks += 1
        self.answered += 1
        if self._triggered:
            return
        if self.acks >= self.need:
            self.succeed()
        elif self.answered == self.total:
            if self.acks >= (self.need if self.least is None else self.least):
                self.succeed()
                return
            self.fail(
                self.error(
                    f"{self.owner}: {self.tenant} key {self.key}: "
                    f"{self.acks}/{self.need} replies"
                )
            )


class ReplicaService:
    """The base of one node's replica service: its RPC endpoint and the
    counters both protocols keep.  The subclass registers its methods."""

    def __init__(self, sim, node, fabric, partition_map, membership, config=None):
        self.sim = sim
        self.node = node
        self.partition_map = partition_map
        self.membership = membership
        self.config = config or fabric.config
        self.rpc = RpcEndpoint(
            sim, fabric, node.name, config=self.config, tracer=node.tracer
        )
        #: durable WAL records per tenant on this node (coordinator or
        #: primary writes, replica applies, and engine-internal record
        #: commits alike) — fed by the WAL commit hook, used to report
        #: replication write amplification (cluster-wide durable records
        #: vs acked writes)
        self.durable_records: Dict[str, int] = {}
        #: writes this node acked that reached their quorum
        self.quorum_acks = 0
        #: writes that failed to assemble a quorum (surfaced to client)
        self.quorum_failures = 0

    def watch_tenant(self, tenant: str) -> None:
        """Subscribe the durable-record counter to the tenant's WAL.

        Registered through :meth:`LsmEngine.subscribe_wal` so the hook
        survives WAL rotation at memtable flushes.
        """
        counts = self.durable_records
        counts.setdefault(tenant, 0)

        def on_commit(records):
            counts[tenant] += len(records)

        self.node.engines[tenant].subscribe_wal(on_commit)

    def stop(self) -> None:
        """Stop background loops (none here)."""
