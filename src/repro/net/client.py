"""The cluster's client library: resolution, RPC, and failover retries.

A :class:`ClusterClient` is what a tenant application links against: it
owns a fabric endpoint (client requests pay real serialization and
propagation time, both ways), resolves each key to its partition
primary through the shared :class:`~repro.node.router.PartitionMap`,
and calls the primary's ``kv.*`` methods.

Failover shows up here as *re-resolution*: when a call's RPC budget is
exhausted (the primary died, or the network ate every attempt), the
client re-resolves the key — the map version has usually been bumped by
the failure detector by then, so the cached owner is dropped and the
new primary is tried.  The budget is additionally *abandoned early*
(the RPC layer's ``give_up`` hook, consulted after each failed attempt)
once the membership has declared the target dead or the partition map
version has moved: a client holding a pre-failover resolution
re-resolves after one failed attempt instead of hammering a dead
endpoint with its whole retry budget.  A target already known dead is
not called at all: ``_call_primary`` fails that round fast itself.  The
rounds budget bounds how long a request can chase a moving owner before
the failure surfaces to the application.

Under **leaderless** replication (``NetConfig.replication_mode``) there
is no primary: the client walks the key's home replicas — membership-
live ones first, then suspected-dead ones, because a *partitioned* node
is marked dead by the majority-side detector yet still answers clients
on its own side — and the first replica to accept coordinates the
request (``lkv.put`` / ``lkv.get``).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from ..core.tracker import NORMALIZED_REQUEST_BYTES
from ..faults import NodeUnreachable, RetriesExhausted, StorageFault
from ..node.router import PartitionMap
from ..node.tenant import LatencyRecorder, RequestStats
from ..sim import Simulator
from .fabric import NetConfig, NetworkFabric
from .replication import Membership, Quorum
from .rpc import ACK_BYTES, RpcEndpoint

__all__ = ["ClusterClient"]


class ClusterClient:
    """One application's window onto the replicated cluster."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        partition_map: PartitionMap,
        membership: Membership,
        name: str = "client0",
        config: Optional[NetConfig] = None,
        resolve_rounds: int = 3,
        tracer=None,
    ):
        if resolve_rounds < 1:
            raise ValueError("need at least one resolution round")
        self.sim = sim
        self.partition_map = partition_map
        self.membership = membership
        self._live = membership.live
        self.config = config or fabric.config
        self.resolve_rounds = resolve_rounds
        #: optional repro.obs Tracer; client requests allocate the root
        #: trace ids that the whole downstream stack inherits
        self.tracer = tracer
        self.rpc = RpcEndpoint(sim, fabric, name, config=self.config, tracer=tracer)
        #: per-tenant end-to-end latency (network + storage + retries)
        self.latencies: Dict[str, LatencyRecorder] = defaultdict(LatencyRecorder)
        #: per-tenant app-level counters as seen from this client
        self.stats: Dict[str, RequestStats] = defaultdict(RequestStats)
        self._version_seen = -1
        #: (tenant, partition) -> (primary, give_up) under ``_version_seen``
        self._primary_cache: Dict[tuple, tuple] = {}
        #: the request protocol: a leaderless request finds a coordinator
        #: among the key's home replicas, a primary-backup one its primary
        self._leaderless = self.config.leaderless
        #: primary-backup GETs read a quorum when one above 1 is set, and
        #: the primary alone otherwise
        read_quorum = self.config.read_quorum
        self._primary_reads = not self._leaderless and (read_quorum is None or read_quorum <= 1)
        #: tenant -> (RequestStats, its latency series by kind), from its
        #: first answer
        self._books: Dict[str, tuple] = {}

    # -- resolution (the cluster's one route cache) ------------------------

    def resolve(self, tenant: str, key: int) -> str:
        """The key's primary, via a map-version-aware cache."""
        return self._route(tenant, key)[0]

    def _route(self, tenant: str, key: int) -> tuple:
        """``(primary, give_up)`` for the key, cached per map version.

        ``give_up`` is the RPC budget's early exit for a call to that
        primary: the detector declared it dead, or the map moved since
        the call began.  Every cached route was resolved at the current
        version, so one closure per partition and version serves every
        call instead of one per call.
        """
        pm = self.partition_map
        if pm.version != self._version_seen:
            self._primary_cache.clear()
            self._version_seen = pm.version
        partition = pm.partition_of(tenant, key)
        slot = (tenant, partition.index)
        try:
            return self._primary_cache[slot]
        except KeyError:
            target = partition.node
            route = self._primary_cache[slot] = (
                target,
                lambda t=target, v=pm.version: (
                    not self.membership.is_live(t) or self.partition_map.version != v
                ),
            )
            return route

    # -- request API (drive with ``yield from``) ---------------------------
    #
    # A primary-backup request whose cached primary is live goes straight
    # to ``RpcEndpoint.call``; ``_call_primary``'s rounds run from the
    # start without one, and continue from the first round's
    # ``RetriesExhausted`` with one.  Payloads are tuples: ``(tenant,
    # key)`` for a GET, ``(tenant, key, size, op)`` for a write; the
    # trace id rides on the message.

    def get(self, tenant: str, key: int):
        """GET; returns the object size or None.

        With a primary-backup ``read_quorum`` above 1 the read goes to a
        quorum of replicas and the chain-senior reply wins (replicas
        hold prefixes of one last-writer-wins stream, so the most senior
        respondent is the freshest).
        """
        started = self.sim.now
        tr = self.tracer
        trace = None if tr is None else tr.new_trace()
        payload = (tenant, key)
        if self._primary_reads:
            target, give_up = self._route(tenant, key)
            if target in self._live:
                try:
                    size = yield from self.rpc.call(
                        target, "kv.get", payload, ACK_BYTES, trace, give_up
                    )
                except RetriesExhausted as exc:
                    size = yield from self._call_primary(
                        tenant, key, "kv.get", payload, ACK_BYTES, trace, (target, exc)
                    )
            else:
                size = yield from self._call_primary(
                    tenant, key, "kv.get", payload, ACK_BYTES, trace
                )
        elif self._leaderless:
            size = yield from self._call_coordinator(
                tenant, key, "lkv.get", payload, ACK_BYTES, trace
            )
        else:
            size = yield from self._quorum_get(tenant, key, payload, trace)
        self._note(tenant, "get", size or 1024, started, trace)
        return size

    def put(self, tenant: str, key: int, size: int, op: str = "put"):
        """PUT; acked once durable on the partition's write quorum.

        Returns the serving replica's reply: True from a primary, and a
        leaderless coordinator's dict carrying the stamped version, which
        the partition experiments record to audit acked-write survival.
        ``op="delete"`` is :meth:`delete`.
        """
        started = self.sim.now
        tr = self.tracer
        trace = None if tr is None else tr.new_trace()
        payload = (tenant, key, size, op)
        if op == "put":
            method, nbytes, noted = "kv.put", size, size
        else:
            method, nbytes, noted = "kv.delete", ACK_BYTES, 1024
        if self._leaderless:
            reply = yield from self._call_coordinator(
                tenant, key, "lkv.put", payload, nbytes, trace
            )
        else:
            target, give_up = self._route(tenant, key)
            if target in self._live:
                try:
                    reply = yield from self.rpc.call(
                        target, method, payload, nbytes, trace, give_up
                    )
                except RetriesExhausted as exc:
                    reply = yield from self._call_primary(
                        tenant, key, method, payload, nbytes, trace, (target, exc)
                    )
            else:
                reply = yield from self._call_primary(tenant, key, method, payload, nbytes, trace)
        self._note(tenant, op, noted, started, trace)
        return reply

    def delete(self, tenant: str, key: int):
        """DELETE: a write of a tombstone (drive with ``yield from``)."""
        return self.put(tenant, key, 0, "delete")

    # -- internals ---------------------------------------------------------

    def _call_primary(self, tenant: str, key: int, method: str, payload, nbytes: int,
                      trace: Optional[int] = None, failed: Optional[tuple] = None):
        """Call the key's primary, re-resolving across failovers.

        ``failed`` is ``(primary, RetriesExhausted)`` when the request's
        first round already called its live cached primary and failed;
        the rounds left continue from there.
        """
        stats = self.stats[tenant]
        last: Optional[StorageFault] = None
        tried: Optional[str] = None
        rounds = range(self.resolve_rounds)
        if failed is not None:
            tried, last = failed
            stats.retries += 1
            rounds = rounds[1:]
        for _round in rounds:
            target, give_up = self._route(tenant, key)
            if target == tried:
                # Same owner as the round that just failed: wait out
                # roughly one detection period so the map has a chance
                # to change before burning another full RPC budget.
                yield self.sim.timeout(self.config.suspicion_timeout)
                target, give_up = self._route(tenant, key)
            tried = target
            if not self.membership.is_live(target):
                # Known-dead owner: fail fast, then re-resolve (the
                # detector bumps the map right after marking it dead).
                stats.retries += 1
                last = NodeUnreachable(
                    f"{self.rpc.name}: primary {target} for {tenant}/{key} is down"
                )
                yield self.sim.timeout(self.config.rpc_backoff)
                continue
            try:
                # Abandon the remaining retry budget the moment the
                # detector declares the owner dead or the map version
                # moves (a failover happened): the next round
                # re-resolves against the fresh map instead of burning
                # attempt after attempt on a dead endpoint.
                result = yield from self.rpc.call(target, method, payload, nbytes, trace, give_up)
                return result
            except RetriesExhausted as exc:
                stats.retries += 1
                last = exc
        stats.errors += 1
        raise RetriesExhausted(
            f"{self.rpc.name}: {method} {tenant}/{key} failed after "
            f"{self.resolve_rounds} resolution rounds"
        ) from last

    def _call_coordinator(self, tenant: str, key: int, method: str, payload,
                          nbytes: int, trace: Optional[int] = None):
        """Leaderless routing: walk the key's home replicas until one
        accepts the coordination.

        Membership-live replicas go first; suspected-dead ones are
        still tried last, because under a network partition the
        majority-side detector marks minority nodes dead while they
        remain perfectly reachable from clients on their own side —
        that fallback is what keeps both sides available.
        """
        stats = self.stats[tenant]
        partition = self.partition_map.partition_of(tenant, key)
        candidates = self.membership.live_first(partition.replicas)
        last: Optional[StorageFault] = None
        for target in candidates:
            try:
                result = yield from self.rpc.call(
                    target, method, payload, nbytes, trace=trace
                )
                return result
            except RetriesExhausted as exc:
                stats.retries += 1
                last = exc
        stats.errors += 1
        raise RetriesExhausted(
            f"{self.rpc.name}: {method} {tenant}/{key}: no home replica "
            f"reachable ({candidates})"
        ) from last

    def _quorum_get(self, tenant: str, key: int, payload: tuple,
                    trace: Optional[int] = None):
        """Read from a quorum of live replicas; chain-senior reply wins."""
        partition = self.partition_map.partition_of(tenant, key)
        live = [r for r in partition.replicas if self.membership.is_live(r)]
        if not live:
            raise NodeUnreachable(
                f"{self.rpc.name}: no live replica for {tenant}/{partition.index}"
            )
        need = min(self.config.effective_read_quorum, len(live))
        # Once every live replica has answered, one reply is enough.
        quorum = Quorum(
            self.sim, need, len(live), NodeUnreachable, self.rpc.name, tenant, key, least=1
        )
        replies: Dict[int, Optional[int]] = {}
        for rank, name in enumerate(live):
            self.sim.process(
                self._read_one(name, rank, payload, replies, quorum, trace),
                name=f"qread.{self.rpc.name}.{name}",
            )
        yield quorum
        # Chain order = seniority: rank 0 is the primary.
        return replies[min(replies)]

    def _read_one(self, target, rank, payload, replies, quorum, trace=None):
        try:
            reply = yield from self.rpc.call(
                target, "kv.get", payload, ACK_BYTES, trace=trace
            )
        except StorageFault:
            quorum(False)
            return
        replies[rank] = reply
        quorum(True)

    def _note(
        self, tenant: str, kind: str, size: int, started: float,
        trace: Optional[int] = None,
    ) -> None:
        """Count an answered request and its latency; span it if tracing."""
        try:
            stats, series = self._books[tenant]
        except KeyError:
            stats, series = self._books[tenant] = (
                self.stats[tenant], self.latencies[tenant].series
            )
        units = size / NORMALIZED_REQUEST_BYTES if size > NORMALIZED_REQUEST_BYTES else 1.0
        if kind == "get":  # the two hot kinds, without a call
            stats.gets += 1
            stats.get_units += units
        elif kind == "put":
            stats.puts += 1
            stats.put_units += units
        else:
            stats.note_units(kind, units)
        latency = self.sim.now - started
        series = series[kind]  # LatencyRecorder.record, inline
        series.samples.append(latency)
        series.count += 1
        series.total += latency
        tr = self.tracer
        if tr is not None:
            tr.span(
                kind, "client", self.rpc.name, tenant, started, self.sim.now,
                trace=trace, args={"bytes": size},
            )
