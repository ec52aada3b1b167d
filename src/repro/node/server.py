"""The storage node: protocol layer → cache → engines → Libra → SSD.

``StorageNode`` assembles the full per-node stack of Figure 1: one
simulated SSD, one Libra scheduler with its tracker and resource
policy, a shared filesystem, and one LSM engine per tenant partition.
Tenant requests enter through :meth:`get`/:meth:`put`/:meth:`delete`
(driven with ``yield from`` inside DES processes), are served by the
tenant's engine through tagged IO, and are counted in normalized (1 KB)
units so achieved throughput is directly comparable to reservations.

Request path.  Everything a request needs about its tenant — engine,
counters, latency recorder, the event a crashed tenant's requests wait
on, and the GET, PUT and DELETE ``IoTag`` of an untraced request — is
one :class:`_TenantContext`, built in :meth:`StorageNode.add_tenant`
and resolved with one dict lookup per request.  Tags are immutable and
compare by value, so every untraced request of a tenant can carry the
same tag object; only a traced request (its id rides on the tag) builds
its own.  A request attempts its engine op in its own frame, entering
:meth:`StorageNode._execute` only after a transient fault, while its
tenant is down or under a budget; :meth:`StorageNode._account` does all
of a completed request's bookkeeping with the size normalized once.

Cache coherence.  Writes update the object cache at their
acknowledgement; a GET that missed fills it when its engine read
returns.  ``_TenantContext.fills`` holds the keys with such a read in
flight, and a fill that a write to its key overtook stores nothing
(see :mod:`repro.node.cache` for the rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Union

from ..core.capacity import stack_floor
from ..core.calibration import reference_calibration
from ..core.policy import OverflowReport, Reservation, ResourcePolicy
from ..core.scheduler import LibraScheduler, SchedulerConfig
from ..core.tags import IoTag, RequestClass
from ..core.tracker import NORMALIZED_REQUEST_BYTES, ResourceTracker
from ..core.vop import CostModel, make_cost_model
from ..engine import EngineConfig, LsmEngine
from ..faults import (
    TRANSIENT_FAULTS,
    FaultPlan,
    RequestTimeout,
    RetriesExhausted,
    StorageFault,
)
from ..obs import Observability, VopAudit
from ..sim import Event, Simulator
from ..ssd import SimFilesystem, SsdProfile, get_profile, make_device
from .cache import ObjectCache
from .tenant import LatencyRecorder, RequestStats, TenantDescriptor

__all__ = ["NodeConfig", "StorageNode"]

MIB = 1024 * 1024
#: first backoff between recovery attempts after a crash (doubles per
#: attempt, up to 64x)
RECOVERY_BACKOFF = 0.01


@dataclass
class NodeConfig:
    """Per-node assembly options."""

    cost_model: str = "exact"
    #: None -> use the profile's reference capacity floor
    capacity_vops: Optional[float] = None
    #: the Fig 11 ablation switch: False = "No Profile" provisioning
    track_indirect: bool = True
    #: object cache size; 0 disables (IO-bound evaluation default)
    cache_bytes: int = 0
    engine: EngineConfig = None  # type: ignore[assignment]
    scheduler: Optional[SchedulerConfig] = None
    #: transparent retries per request before RetriesExhausted surfaces
    max_retries: int = 4
    #: initial retry backoff in seconds (doubles per attempt)
    retry_backoff: float = 0.002
    #: per-attempt latency budget; None disables the timeout race (the
    #: default keeps healthy runs on the exact seed event ordering)
    request_timeout: Optional[float] = None

    def __post_init__(self):
        if self.engine is None:
            self.engine = EngineConfig()
        for name in ("cache_bytes", "max_retries"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(f"{name} {value!r} must be an int >= 0")
        if not (math.isfinite(self.retry_backoff) and self.retry_backoff >= 0):
            raise ValueError(f"retry_backoff {self.retry_backoff!r} must be finite and >= 0")
        for name in ("capacity_vops", "request_timeout"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value!r} must be None or finite and > 0")


#: request kind -> the class the tracker profiles it under (a DELETE's
#: IO is charged through its tag, but no reservation is sized by it)
_PROFILED = {
    "get": RequestClass.GET,
    "put": RequestClass.PUT,
    "repl": RequestClass.PUT,
    "repl_read": RequestClass.GET,
}


class _TenantContext:
    """What every request of one tenant needs, resolved once."""

    __slots__ = (
        "name", "engine", "stats", "latencies", "down",
        "get_tag", "put_tag", "delete_tag", "fills",
    )

    def __init__(self, name: str, engine: LsmEngine):
        self.name = name
        self.engine = engine
        self.stats = RequestStats()
        self.latencies = LatencyRecorder()
        #: set while the engine is down (crashed, not yet restarted):
        #: requests wait on it instead of failing
        self.down: Optional[Event] = None
        # The tags of an untraced request, shared by all of them.
        self.get_tag = IoTag(name, RequestClass.GET)
        self.put_tag = IoTag(name, RequestClass.PUT)
        self.delete_tag = IoTag(name, RequestClass.DELETE)
        #: key -> [GETs whose engine read will fill the cache, writes to
        #: the key acknowledged since the first of them started]; an
        #: entry lives only while such a read is in flight
        self.fills: Dict[int, List[int]] = {}


class _Contexts(dict):
    """Tenant name -> :class:`_TenantContext`, naming the node's tenants
    when asked for one it does not have."""

    def __init__(self, node_name: str):
        super().__init__()
        self.node_name = node_name

    def __missing__(self, tenant):
        raise KeyError(f"unknown tenant {tenant!r} on {self.node_name}; have {list(self)}")


class StorageNode:
    """A single shared-storage node running Libra."""

    def __init__(
        self,
        sim: Simulator,
        profile: Union[str, SsdProfile] = "intel320",
        config: Optional[NodeConfig] = None,
        seed: int = 0,
        name: str = "node0",
        on_overflow: Optional[Callable[[OverflowReport], None]] = None,
        fault_plan: Optional[FaultPlan] = None,
        obs: Optional[Observability] = None,
    ):
        self.sim = sim
        self.name = name
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.config = config or NodeConfig()
        self.obs = obs or Observability()
        self.tracer = self.obs.tracer
        self.device = make_device(
            sim, self.profile, seed=seed, fault_plan=fault_plan, tracer=self.tracer
        )
        calibration = reference_calibration(self.profile)
        self.cost_model: CostModel = make_cost_model(self.config.cost_model, calibration)
        self.tracker = ResourceTracker()
        self.scheduler = LibraScheduler(
            sim,
            self.device,
            self.cost_model,
            config=self.config.scheduler,
            io_observer=self.tracker.note_io,
            tracer=self.tracer,
        )
        self.audit: Optional[VopAudit] = None
        if self.obs.audit:
            self.audit = VopAudit(self.cost_model)
            self.audit.attach(self.scheduler, self.device)
        self.fs = SimFilesystem(sim, self.scheduler, capacity=self.profile.logical_capacity)
        capacity = self.config.capacity_vops
        if capacity is None:
            # Provision against the stack-aware floor: the raw-IO floor
            # overestimates what app-request workloads (with their
            # FLUSH/COMPACT secondary IO) can sustain.
            capacity = stack_floor(self.profile.name)
        self.capacity_vops = capacity
        self.policy = ResourcePolicy(
            sim,
            self.scheduler,
            self.tracker,
            capacity_vops=capacity,
            track_indirect=self.config.track_indirect,
            on_overflow=on_overflow,
        )
        self.cache = (
            ObjectCache(self.config.cache_bytes) if self.config.cache_bytes > 0 else None
        )
        self.tenants: Dict[str, TenantDescriptor] = {}
        # Per tenant, the same objects its request context holds.
        self.engines: Dict[str, LsmEngine] = {}
        self.request_stats: Dict[str, RequestStats] = {}
        self.latencies: Dict[str, LatencyRecorder] = {}
        self._contexts = _Contexts(name)
        #: False: every attempt runs in :meth:`_execute` (not only retries)
        self._inline = self.config.request_timeout is None
        #: True once :meth:`fail` killed the whole node
        self.failed = False

    # -- tenant lifecycle ------------------------------------------------------

    def add_tenant(
        self,
        name: str,
        reservation: Optional[Reservation] = None,
        engine_config: Optional[EngineConfig] = None,
    ) -> TenantDescriptor:
        """Register a tenant: scheduler principal + engine partition."""
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already on {self.name}")
        descriptor = TenantDescriptor(name, reservation or Reservation())
        self.scheduler.register_tenant(name)
        self.policy.set_reservation(name, descriptor.reservation)
        engine = LsmEngine(
            self.sim,
            self.fs,
            name,
            config=engine_config or self.config.engine,
            tracker=self.tracker,
            tracer=self.tracer,
        )
        ctx = self._contexts[name] = _TenantContext(name, engine)
        self.tenants[name] = descriptor
        self.engines[name] = engine
        self.request_stats[name] = ctx.stats
        self.latencies[name] = ctx.latencies
        return descriptor

    def set_reservation(self, name: str, reservation: Reservation) -> None:
        """Update a tenant's local app-request reservation."""
        self._contexts[name]  # KeyError for an unknown tenant
        self.tenants[name] = TenantDescriptor(name, reservation)
        self.policy.set_reservation(name, reservation)

    def engine(self, name: str) -> LsmEngine:
        return self.engines[name]

    def stats(self, name: str) -> RequestStats:
        """Live app-level request counters for a tenant."""
        return self.request_stats[name]

    # -- request API (drive with ``yield from``) ----------------------------------

    def _traced(self, tag: IoTag, trace: Optional[int]):
        """``(tag, trace id)`` of a request entering at this node.

        An RPC-forwarded request arrives with the client's id and keeps
        it; a direct caller gets a fresh one when tracing is on.  Only a
        request that has an id carries a tag of its own; the request
        methods skip this call when no tracer is installed and no id
        came in.
        """
        tr = self.tracer
        if trace is None and tr is not None:
            trace = tr.new_trace()
        return tag.with_trace(trace), trace

    def get(self, tenant: str, key: int, trace: Optional[int] = None):
        """GET: cache, then the tenant's LSM engine. Returns size or None."""
        ctx = self._contexts[tenant]
        started = self.sim.now
        tag = ctx.get_tag
        if trace is not None or self.tracer is not None:
            tag, trace = self._traced(tag, trace)
        cache = self.cache
        fill = None
        if cache is not None:
            size = cache.get(tenant, key)
            if size is not None:
                ctx.stats.cache_hits += 1
                self._account(ctx, "get", size, started, trace)
                return size
            # The engine read takes simulated time: note that a fill of
            # this key is in flight, so a write acknowledged meanwhile
            # can tell it that what it read is no longer current.
            fills = ctx.fills
            fill = fills.get(key)
            if fill is None:
                fill = fills[key] = [0, 0]
            fill[0] += 1
            writes_before = fill[1]
        op, args, direct = ctx.engine.get, (key, tag), ctx.down is None and self._inline
        try:
            size = yield from op(*args) if direct else self._execute(ctx, op, args)
        except TRANSIENT_FAULTS as exc:
            size = yield from self._execute(ctx, op, args, exc)
        finally:
            if fill is not None:
                fill[0] -= 1
                if not fill[0]:
                    del ctx.fills[key]
        if fill is not None:
            if fill[1] != writes_before:
                cache.touch(tenant, key)
            elif size is not None:
                cache.put(tenant, key, size)
        self._account(ctx, "get", size or 1024, started, trace)
        return size

    def put(self, tenant: str, key: int, size: int, trace: Optional[int] = None):
        """PUT: write-through cache update + durable engine write.

        The completion contract is an *acknowledgement*: when this
        generator returns, the record's group commit landed and it will
        survive a crash.  A failed attempt is retried transparently; a
        timed-out or crashed attempt may or may not be durable, but the
        caller was not acknowledged and retrying is safe (the engine is
        last-writer-wins per key).
        """
        ctx = self._contexts[tenant]
        started = self.sim.now
        tag = ctx.put_tag
        if trace is not None or self.tracer is not None:
            tag, trace = self._traced(tag, trace)
        op, args, direct = ctx.engine.put, (key, size, tag), ctx.down is None and self._inline
        try:
            yield from op(*args) if direct else self._execute(ctx, op, args)
        except TRANSIENT_FAULTS as exc:
            yield from self._execute(ctx, op, args, exc)
        if self.cache is not None:
            self._write_through(ctx, key, size)
        self._account(ctx, "put", size, started, trace)

    def scan(self, tenant: str, lo: int, hi: int, limit=None, trace: Optional[int] = None):
        """Range scan via the tenant's engine.

        Returned bytes are accounted as normalized GET units (the
        natural extension of the size-normalized request contract).
        """
        ctx = self._contexts[tenant]
        started = self.sim.now
        tag = ctx.get_tag
        if trace is not None or self.tracer is not None:
            tag, trace = self._traced(tag, trace)
        op, args, direct = ctx.engine.scan, (lo, hi, tag, limit), ctx.down is None and self._inline
        try:
            results = yield from op(*args) if direct else self._execute(ctx, op, args)
        except TRANSIENT_FAULTS as exc:
            results = yield from self._execute(ctx, op, args, exc)
        total_bytes = sum(map(itemgetter(1), results))
        self._account(ctx, "get", total_bytes or 1024, started, trace)
        return results

    def delete(self, tenant: str, key: int, trace: Optional[int] = None):
        """DELETE: tombstone write; invalidates the cache."""
        ctx = self._contexts[tenant]
        started = self.sim.now
        tag = ctx.delete_tag
        if trace is not None or self.tracer is not None:
            tag, trace = self._traced(tag, trace)
        op, args, direct = ctx.engine.delete, (key, tag), ctx.down is None and self._inline
        try:
            yield from op(*args) if direct else self._execute(ctx, op, args)
        except TRANSIENT_FAULTS as exc:
            yield from self._execute(ctx, op, args, exc)
        if self.cache is not None:
            self._write_through(ctx, key, None)
        self._account(ctx, "delete", 1024, started, trace)

    # -- replication apply path (see repro.net.replication) --------------------

    def apply_replica(
        self, tenant: str, key: int, size: int, op: str = "put",
        trace: Optional[int] = None,
    ):
        """Apply a replicated record shipped from a partition's primary.

        The backup runs the same durable write path as a client PUT —
        WAL group commit, memtable, eventual FLUSH/COMPACT — so
        replication consumes real VOPs here, and the tracker counts the
        record as PUT work so the tenant's cost profile (and therefore
        Libra's per-node demand estimate) reflects backup-write load.
        Only the request *stats* differ: the apply lands in
        ``repl_applies``/``repl_units``, never in the app-level
        ``puts``, so system-wide throughput sums stay double-count
        free.  Sequence idempotence is the caller's job (the
        replication layer applies records in order, once).
        """
        ctx = self._contexts[tenant]
        started = self.sim.now
        tag = ctx.delete_tag if op == "delete" else ctx.put_tag
        if trace is not None or self.tracer is not None:
            tag, trace = self._traced(tag, trace)
        if op == "delete":
            write, args, size = ctx.engine.delete, (key, tag), None
        else:
            write, args = ctx.engine.put, (key, size, tag)
        direct = ctx.down is None and self._inline
        try:
            yield from write(*args) if direct else self._execute(ctx, write, args)
        except TRANSIENT_FAULTS as exc:
            yield from self._execute(ctx, write, args, exc)
        if self.cache is not None:
            self._write_through(ctx, key, size)
        self._account(ctx, "repl", size or 1024, started, trace)

    def read_replica(self, tenant: str, key: int, trace: Optional[int] = None):
        """Serve a replica-local read for another coordinator's quorum
        read (leaderless mode).

        Runs the full engine read path — the IO is real and charged to
        the tenant as GET work, so quorum reads at consistency R cost R
        replica reads in Libra's currency — but is counted under
        ``repl_reads`` rather than app-level ``gets``: the coordinator
        counts the application request exactly once.
        """
        ctx = self._contexts[tenant]
        started = self.sim.now
        tag = ctx.get_tag
        if trace is not None or self.tracer is not None:
            tag, trace = self._traced(tag, trace)
        op, args, direct = ctx.engine.get, (key, tag), ctx.down is None and self._inline
        try:
            size = yield from op(*args) if direct else self._execute(ctx, op, args)
        except TRANSIENT_FAULTS as exc:
            size = yield from self._execute(ctx, op, args, exc)
        self._account(ctx, "repl_read", size or 1024, started, trace)
        return size

    def _write_through(self, ctx: _TenantContext, key: int, size: Optional[int]) -> None:
        """Update the cache at a write's acknowledgement (``size`` None:
        the write was a DELETE) and tell any GET whose engine read of
        the key is still in flight that it was overtaken."""
        fill = ctx.fills.get(key)
        if fill is not None:
            fill[1] += 1
        if size is None:
            self.cache.invalidate(ctx.name, key)
        else:
            self.cache.put(ctx.name, key, size)

    def _account(
        self, ctx: _TenantContext, kind: str, size: int, started: float,
        trace: Optional[int],
    ) -> None:
        """Book one completed request: counters, latency, span, tracker."""
        units = size / NORMALIZED_REQUEST_BYTES if size > NORMALIZED_REQUEST_BYTES else 1.0
        now = self.sim.now
        stats = ctx.stats
        if kind == "get":  # the two hot kinds, without a call
            stats.gets += 1
            stats.get_units += units
        elif kind == "put":
            stats.puts += 1
            stats.put_units += units
        else:
            stats.note_units(kind, units)
        latency = now - started
        series = ctx.latencies.series[kind]  # LatencyRecorder.record, inline
        series.samples.append(latency)
        series.count += 1
        series.total += latency
        tr = self.tracer
        if tr is not None:
            tr.span(
                kind, "node", self.name, ctx.name, started, now,
                trace=trace, args={"bytes": size},
            )
        request = _PROFILED.get(kind)
        if request is not None:
            self.tracker.note_units(ctx.name, request, units)

    # -- failure handling ------------------------------------------------------

    def _execute(self, ctx: _TenantContext, op, args: tuple, failed=None):
        """DES sub-generator: run one engine op under the failure policy.

        ``op(*args)`` makes a fresh attempt each time it is called
        (``failed``: the fault of one the request made itself).
        Transient faults (device errors, corruption that out-ran the
        engine's re-reads, torn-commit crashes, per-attempt timeouts)
        are retried with exponential backoff up to ``max_retries``;
        while the tenant's engine is down the request waits for the
        restart instead of burning retries.  Exhaustion surfaces as
        :class:`RetriesExhausted` with the final fault as its cause.
        """
        cfg = self.config
        attempt = 0
        while True:
            if failed is None:
                if ctx.down is not None:
                    ctx.stats.crash_waits += 1
                    yield ctx.down
                    continue
                try:
                    # Without a budget the attempt runs inline, so healthy
                    # nodes keep the exact event ordering of the seed.
                    if cfg.request_timeout is None:
                        return (yield from op(*args))
                    return (yield from self._bounded(ctx, op(*args)))
                except TRANSIENT_FAULTS as exc:
                    failed = exc
            attempt += 1
            ctx.stats.retries += 1
            if attempt > cfg.max_retries:
                ctx.stats.errors += 1
                raise RetriesExhausted(
                    f"{self.name}/{ctx.name}: request failed after "
                    f"{cfg.max_retries} retries"
                ) from failed
            failed = None
            yield self.sim.timeout(cfg.retry_backoff * (2 ** (attempt - 1)))

    def _bounded(self, ctx: _TenantContext, gen):
        """Race one attempt against the per-attempt budget.

        The attempt runs as a child process raced against a timeout; on
        expiry it is interrupted (its cleanup handlers run at the
        interrupt point) and :class:`RequestTimeout` is raised for the
        retry loop.
        """
        budget = self.config.request_timeout
        proc = self.sim.process(gen, name=f"{ctx.name}.attempt")
        timer = self.sim.timeout(budget)
        yield self.sim.any_of([proc, timer])
        if proc.triggered:
            if not proc.ok:
                raise proc.value
            return proc.value
        ctx.stats.timeouts += 1
        if proc.is_alive:
            proc.interrupt("request timeout")
        raise RequestTimeout(
            f"{self.name}/{ctx.name}: attempt exceeded {budget:.3f}s budget"
        )

    def crash(self, tenant: str) -> int:
        """Crash a tenant's engine (instant, no IO); returns torn records.

        Volatile state is dropped and the WAL tail torn (unacknowledged
        writers fail with CrashError and re-issue via the retry path).
        Until :meth:`restart` completes, the tenant's requests wait on
        the restart event rather than erroring.
        """
        ctx = self._contexts[tenant]
        if ctx.down is None:
            ctx.down = self.sim.event()
        ctx.stats.crashes += 1
        return ctx.engine.crash()

    def restart(self, tenant: str):
        """DES generator: recover a crashed tenant engine and reopen it.

        Recovery scans the WAL (real read IO); device faults during the
        scan are retried with backoff until recovery lands — a storage
        node must come back.  Returns the number of replayed records.
        """
        ctx = self._contexts[tenant]
        attempt = 0
        while True:
            try:
                replayed = yield from ctx.engine.recover(tag=ctx.put_tag)
                break
            except StorageFault:
                attempt += 1
                ctx.stats.retries += 1
                yield self.sim.timeout(
                    RECOVERY_BACKOFF * min(2 ** (attempt - 1), 64)
                )
        reopened, ctx.down = ctx.down, None
        if reopened is not None:
            reopened.succeed()
        return replayed

    # -- lifecycle ------------------------------------------------------------------

    def fail(self) -> None:
        """Kill the whole node, instantly (a machine loss, not a restart).

        Every tenant engine crashes (volatile state gone, WAL tails
        torn, unacknowledged writers failed with CrashError), the
        periodic loops stop, and — unlike a tenant crash — no restart
        event is armed: requests that reach a failed node park forever,
        which is what an RPC client experiences as a timeout, and the
        object cache (memory) is gone with the machine.  The durable
        state (SSTables, committed WAL records) survives for a
        hypothetical later reconciliation; serving the node's partitions
        is the failover layer's job.
        """
        if self.failed:
            return
        self.failed = True
        for ctx in self._contexts.values():
            if ctx.down is None:
                ctx.down = self.sim.event()
            ctx.stats.crashes += 1
            ctx.engine.crash()
            # A device read already in flight still completes: its GET
            # returns what it read, but must not fill the cleared cache.
            for fill in ctx.fills.values():
                fill[1] += 1
        if self.cache is not None:
            self.cache.clear()
        self.policy.stop()
        self.scheduler.stop()

    def stop(self) -> None:
        """Stop the node's periodic loops (policy + scheduler ticker)."""
        self.policy.stop()
        self.scheduler.stop()
