"""Hybrid analytic/DES trials: epoch fast-forward for quiet workloads.

Provisioning studies sweep long, mostly-quiet horizons: open-loop
tenants arrive below their VOP allocations, queues stay empty, and the
DES burns its wall-clock replaying millions of structurally identical
submit→dispatch→complete event chains.  This module runs the *same*
trial under a hybrid regime:

- the runner owns arrival generation in **both** modes, pulling every
  tenant's inter-arrival gaps, op mix, sizes, and offsets from shared
  per-tenant :class:`~repro.workload.distributions.BlockStream` objects
  (one ``random.Random`` per stream, seeded from the trial seed), so a
  fast-forwarded run consumes exactly the RNG draws an event-by-event
  run would;
- a :class:`~repro.sim.SteadyStateMonitor` grants an *epoch* whenever
  the system is quiet (empty backlog, idle device, no GC, no fault
  window, demand under the VOP headroom); the runner then processes
  every arrival up to the next interesting edge analytically —
  :meth:`~repro.core.scheduler.LibraScheduler.credit_epoch` books the
  chunk-exact VOP charges and usage counters,
  ``SsdDevice.epoch_op`` books idle-device latency and byte/page
  effects (writes still go through the FTL page map, so GC onset stays
  faithful), and the simulator clock jumps to the edge in one
  ``run(until=edge)`` call;
- a second eligibility class covers **stable loaded backlogs**: when
  queues are *not* empty but the monitor's confirmation window shows
  the backlog drifting below tolerance (stationary arrivals, no GC
  pressure, no fault window, no parked NVMe submission-queue commands),
  the runner drains the live system to quiet and replays the same
  seeded arrivals through :class:`_FluidEngine` — an analytic DDRR
  round schedule (:meth:`~repro.core.scheduler.LibraScheduler.plan_rounds`)
  that books queue-wait plus pipeline service latency against a
  :class:`~repro.ssd.FluidPipeline` snapshot while ``credit_epoch`` and
  the device epoch hook book the identical count/byte/VOP effects;
- anything interesting — a fault-window edge, a scheduled rate change,
  a projected or actual GC watermark crossing, a backlog-stability
  breach — ends the epoch and the trial re-enters event-by-event mode
  with identical scheduler, device, and RNG state.

``fast_forward=False`` (the default) drives the identical arrival
sequence through the real scheduler, so the two modes agree exactly on
task/op/byte counts and to float-summation order on VOPs — a property
checked by ``tests/test_epoch.py``.  Latency histograms in fast-forward
mode carry analytic idle-device service times, which is what the quiet
epochs the monitor admits would have measured anyway.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.calibration import reference_calibration
from ..core.scheduler import LibraScheduler, SchedulerConfig
from ..core.tags import IoTag, OpKind, RequestClass
from ..core.vop import CostModel, make_cost_model
from ..experiments.common import derive_seed
from ..obs.metrics import Histogram
from ..sim import Simulator, SteadyStateMonitor
from ..ssd import SsdDevice, SsdProfile
from .distributions import BlockStream, ExponentialArrivals, FixedSize, LogNormalSize, Uniform01
from .iobench import KIB

import random

__all__ = [
    "EpochTenantSpec",
    "RateChange",
    "EpochSegment",
    "EpochTenantResult",
    "EpochTrialResult",
    "run_epoch_trial",
]

#: RNG streams per tenant (gap, mix, read size, write size, offset)
_STREAMS_PER_TENANT = 8

#: offered demand above this fraction of the device's VOP capacity
#: classifies a workload as *loaded*: the quiet engine's idle-latency
#: model is no longer credible (arrivals overlap service) and the
#: runner routes epochs through the fluid engine instead
_LOADED_DEMAND = 0.4


@dataclass(frozen=True)
class EpochTenantSpec:
    """One open-loop tenant: Poisson arrivals at ``rate`` ops/sec."""

    name: str
    rate: float
    read_fraction: float = 1.0
    read_size: int = 4 * KIB
    write_size: int = 4 * KIB
    sigma: Optional[float] = None

    def size_dist(self, kind: OpKind):
        mean = self.read_size if kind == OpKind.READ else self.write_size
        if self.sigma is None:
            return FixedSize(mean)
        return LogNormalSize(mean=mean, sigma=self.sigma)


@dataclass(frozen=True)
class RateChange:
    """A control-plane event: ``tenant`` switches to ``rate`` at ``at``."""

    at: float
    tenant: str
    rate: float


@dataclass
class EpochSegment:
    """One contiguous stretch of the trial in a single mode."""

    t0: float
    t1: float
    mode: str  # "ff" | "des"
    reason: str
    tasks: int = 0
    #: which engine covered an "ff" segment ("quiet" | "fluid"); "des"
    #: for event-by-event segments
    regime: str = "des"

    @property
    def span(self) -> float:
        return self.t1 - self.t0


@dataclass
class EpochTenantResult:
    """Per-tenant totals over the whole horizon (no warmup window)."""

    spec: EpochTenantSpec
    ops: int = 0
    tasks: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes: int = 0
    vops: float = 0.0
    failed_ops: int = 0
    allocation: float = 0.0
    #: completion latency (seconds); analytic service times in FF epochs
    latency: Histogram = field(default_factory=Histogram)

    @property
    def acked(self) -> int:
        """Completions with a recorded latency (successful tasks)."""
        return self.latency.count


@dataclass
class EpochTrialResult:
    """Everything measured in one hybrid trial."""

    horizon: float
    tenants: Dict[str, EpochTenantResult]
    segments: List[EpochSegment]
    wall_seconds: float
    ff_seconds: float = 0.0
    ff_tasks: int = 0
    des_tasks: int = 0
    #: seconds / tasks covered by the fluid (stable-backlog) engine,
    #: a subset of ``ff_seconds`` / ``ff_tasks``
    fluid_seconds: float = 0.0
    fluid_tasks: int = 0
    #: DES fallback seconds by rejection-reason stem — why fast-forward
    #: coverage was lost (empty when fast_forward is off)
    des_reasons: Dict[str, float] = field(default_factory=dict)
    #: DES fallback segment counts by rejection-reason stem
    reject_counts: Dict[str, int] = field(default_factory=dict)
    audit_summary: Optional[dict] = None

    @property
    def total_tasks(self) -> int:
        return sum(t.tasks for t in self.tenants.values())

    @property
    def total_ops(self) -> int:
        return sum(t.ops for t in self.tenants.values())

    @property
    def total_bytes(self) -> int:
        return sum(t.bytes for t in self.tenants.values())

    @property
    def total_vops(self) -> float:
        return sum(t.vops for t in self.tenants.values())

    @property
    def ff_fraction(self) -> float:
        """Share of simulated time covered analytically."""
        return self.ff_seconds / self.horizon if self.horizon else 0.0

    @property
    def fluid_fraction(self) -> float:
        """Share of simulated time covered by the fluid engine."""
        return self.fluid_seconds / self.horizon if self.horizon else 0.0

    @property
    def tasks_per_wall_second(self) -> float:
        total = self.ff_tasks + self.des_tasks
        return total / self.wall_seconds if self.wall_seconds > 0 else 0.0


class _TenantStreams:
    """A tenant's shared RNG streams plus its next pending arrival."""

    __slots__ = ("spec", "tag", "rate", "gap", "mix", "rsize", "wsize",
                 "uoff", "next_at", "result")

    def __init__(self, spec: EpochTenantSpec, index: int, seed: int, t0: float):
        def rng(k: int) -> random.Random:
            return random.Random(derive_seed(seed, index * _STREAMS_PER_TENANT + k))

        self.spec = spec
        self.tag = IoTag(spec.name, RequestClass.RAW)
        self.rate = spec.rate
        self.gap = BlockStream(ExponentialArrivals(spec.rate), rng(0))
        self.mix = BlockStream(Uniform01(), rng(1))
        self.rsize = BlockStream(spec.size_dist(OpKind.READ), rng(2))
        self.wsize = BlockStream(spec.size_dist(OpKind.WRITE), rng(3))
        self.uoff = BlockStream(Uniform01(), rng(4))
        self.next_at = t0 + self.gap.next()
        self.result = EpochTenantResult(spec=spec)

    def set_rate(self, rate: float) -> None:
        """Apply a rate change: fresh gap distribution, same RNG.

        The already-drawn pending arrival stands (it was generated under
        the old rate, exactly as an event-driven pacing loop would have
        it); only subsequent gaps use the new rate.  Reusing the stream's
        ``random.Random`` keeps the draw sequence a pure function of
        (seed, arrival history), so fast-forward and event-by-event runs
        stay in lockstep across changes.
        """
        self.rate = rate
        self.gap = BlockStream(ExponentialArrivals(rate), self.gap.rng)


def _offset_for(u: float, capacity: int, size: int, page: int) -> int:
    """Map one U[0,1) draw to a page-aligned offset (shared by both modes)."""
    max_slot = (capacity - size) // page
    if max_slot <= 0:
        return 0
    slot = int(u * max_slot)
    if slot >= max_slot:
        slot = max_slot - 1
    return slot * page


class _FluidEngine:
    """Analytic DDRR replay for one stable-backlog (fluid) epoch.

    With stationary inputs the event-driven dispatcher is periodic:
    every DDRR round grants quantum-proportional deficit among
    backlogged tenants and the device serves its VOP capacity
    work-conservingly.  The engine models each tenant's queue as a
    fluid backlog (in VOPs) drained at the round schedule's rates —
    piecewise-linear between arrivals, re-solving the active set as
    queues empty — and places each task's latency mass at its virtual
    dispatch time: queue-wait from the fluid backlog plus the chunk
    service plan reserved against a :class:`~repro.ssd.FluidPipeline`
    snapshot of the device's controller/channel accumulators.

    Exactness: task/op/byte/VOP counts never touch the fluid model.
    They are produced by ``credit_epoch`` and the device epoch hook
    from the same seeded stream draws the event-driven path consumes,
    so both modes agree exactly; the fluid queue only shapes latency
    and the virtual backlog trajectory reported to the monitor
    (:meth:`~repro.sim.SteadyStateMonitor.observe_virtual`, which keeps
    the confirmation window warm across back-to-back fluid epochs).
    """

    __slots__ = (
        "device", "monitor", "vops_per_sec", "index", "quanta", "backlog",
        "chunk_cost", "active", "weight", "chunk", "last_t", "pipeline",
        "lane", "sample_dt", "next_sample", "limit",
    )

    def __init__(self, runner: "_EpochRunner", start: float):
        scheduler = runner.scheduler
        monitor = runner.monitor
        plan = scheduler.plan_rounds(runner.offered_vops())
        self.device = runner.device
        self.monitor = monitor
        self.vops_per_sec = float(scheduler.cost_model.max_iop)
        self.index = {name: i for i, name in enumerate(plan.tenants)}
        self.quanta = list(plan.quanta)
        self.backlog = [0.0] * len(plan.tenants)
        self.chunk_cost = [0.0] * len(plan.tenants)
        #: indices with nonzero fluid backlog, and their quanta total —
        #: maintained incrementally so the hot path never rescans
        self.active: List[int] = []
        self.weight = 0.0
        self.chunk = plan.chunk_size
        self.last_t = start
        self.pipeline = runner.device.fluid_pipeline()
        #: controller lane per tenant: the one its DES submissions use
        #: (the scheduler's dispatch ctx is ``(trace, tenant)``)
        self.lane = [runner.device._queue_for((None, name)) for name in plan.tenants]
        self.sample_dt = monitor.confirm_window / monitor.confirm_samples
        self.next_sample = start + self.sample_dt
        self.limit = monitor.fluid_backlog

    def _drain_until(self, t: float) -> None:
        """Advance the fluid queues to ``t`` (work-conserving DDRR).

        Capacity is split quantum-proportionally among tenants with
        backlog; when one empties mid-interval its share is
        redistributed — the same water-filling the live dispatcher's
        round-robin converges to.  Piecewise-linear: each pass serves
        until the next queue empties or the interval ends.
        """
        elapsed = t - self.last_t
        self.last_t = t
        active = self.active
        if elapsed <= 0.0 or not active:
            return
        backlog = self.backlog
        quanta = self.quanta
        capacity = self.vops_per_sec
        weight = self.weight
        while elapsed > 0.0 and active:
            if weight > 0.0:
                unit = capacity / weight
                step = elapsed
                for i in active:
                    t_empty = backlog[i] / (quanta[i] * unit)
                    if t_empty < step:
                        step = t_empty
                emptied = False
                for i in active:
                    left = backlog[i] - quanta[i] * unit * step
                    if left > 1e-12:
                        backlog[i] = left
                    else:
                        backlog[i] = 0.0
                        weight -= quanta[i]
                        emptied = True
            else:
                share = capacity / len(active)
                step = elapsed
                for i in active:
                    t_empty = backlog[i] / share
                    if t_empty < step:
                        step = t_empty
                emptied = False
                for i in active:
                    left = backlog[i] - share * step
                    if left > 1e-12:
                        backlog[i] = left
                    else:
                        backlog[i] = 0.0
                        emptied = True
            elapsed -= step
            if emptied:
                active = [i for i in active if backlog[i] > 0.0]
        self.active = active
        self.weight = weight if active else 0.0

    def chunks_queued(self) -> int:
        """Virtual backlog across tenants, in schedulable chunks."""
        total = 0.0
        backlog = self.backlog
        chunk_cost = self.chunk_cost
        for i in self.active:
            cost = chunk_cost[i]
            total += backlog[i] / cost if cost > 0.0 else 1.0
        return int(total)

    def service(self, st: "_TenantStreams", at: float, is_read: bool,
                offset: int, size: int, vops: float):
        """Book one arrival's device effects and latency.

        Returns ``(latency, status)`` where ``status`` is ``None``,
        ``"gc"`` (this write crossed the GC low watermark — close the
        epoch at this arrival) or ``"drift"`` (the virtual backlog
        breached the stability bound: the stationarity premise failed
        mid-epoch and event-by-event mode must take over).
        """
        self._drain_until(at)
        idx = self.index[st.spec.name]
        backlog = self.backlog
        queued = backlog[idx]
        if queued > 0.0:
            rate = (
                self.vops_per_sec * self.quanta[idx] / self.weight
                if self.weight > 0.0
                else self.vops_per_sec
            )
            wait = queued / rate if rate > 0.0 else 0.0
        else:
            wait = 0.0
        dispatch = at + wait
        device = self.device
        pipeline = self.pipeline
        chunk = self.chunk
        lane = self.lane[idx]
        latency = 0.0
        pos = 0
        while pos < size:
            length = min(chunk, size - pos)
            ctrl, services = device.epoch_op(is_read, offset + pos, length, pipeline)
            finish = pipeline.reserve(dispatch, lane, ctrl, services)
            if finish - at > latency:
                latency = finish - at
            pos += length
        status = "gc" if not is_read and device.ftl.gc_needed else None
        if queued <= 0.0:
            self.active.append(idx)
            self.weight += self.quanta[idx]
        backlog[idx] = queued + vops
        self.chunk_cost[idx] = vops / ((size + chunk - 1) // chunk)
        if at >= self.next_sample:
            chunks = self.chunks_queued()
            self.monitor.observe_virtual(at, chunks)
            while self.next_sample <= at:
                self.next_sample += self.sample_dt
            if status is None and chunks > self.limit:
                status = "drift"
        return latency, status


class _EpochRunner:
    """Internal driver for one hybrid trial (see :func:`run_epoch_trial`)."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        scheduler: LibraScheduler,
        monitor: SteadyStateMonitor,
        streams: List[_TenantStreams],
        changes: List[RateChange],
        fast_forward: bool,
        min_epoch: float,
        des_slice: float,
        fluid: bool = True,
    ):
        self.sim = sim
        self.device = device
        self.scheduler = scheduler
        self.monitor = monitor
        self.streams = streams
        self.changes = changes
        self.fast_forward = fast_forward
        self.min_epoch = min_epoch
        self.des_slice = des_slice
        self.fluid = fluid
        #: sample the backlog into the monitor's confirmation window
        #: during event-by-event stretches (only useful when the fluid
        #: regime may consume the samples)
        self._observe = fast_forward and fluid
        self.by_name = {st.spec.name: st for st in streams}
        self.segments: List[EpochSegment] = []
        self.ff_seconds = 0.0
        self.ff_tasks = 0
        self.des_tasks = 0
        self.fluid_seconds = 0.0
        self.fluid_tasks = 0
        self.page = device.profile.page_size
        self.capacity = device.profile.logical_capacity
        self.chunk = scheduler.config.chunk_size

    # -- demand estimation -------------------------------------------------

    def _task_cost(self, kind: OpKind, size: int) -> float:
        model = self.scheduler.cost_model
        total, pos = 0.0, 0
        while pos < size:
            length = min(self.chunk, size - pos)
            total += model.cost(kind, length)
            pos += length
        return total

    def offered_vops(self) -> Dict[str, float]:
        """Per-tenant offered load (VOPs/sec) at current rates, via
        mean sizes — the demand vector :meth:`LibraScheduler.plan_rounds`
        water-fills into steady-state service rates."""
        offered: Dict[str, float] = {}
        for st in self.streams:
            spec = st.spec
            rf = spec.read_fraction
            offered[spec.name] = st.rate * (
                rf * self._task_cost(OpKind.READ, spec.read_size)
                + (1.0 - rf) * self._task_cost(OpKind.WRITE, spec.write_size)
            )
        return offered

    def demand_vops(self) -> float:
        """Offered load (VOPs/sec) at the current rates, via mean sizes."""
        return sum(self.offered_vops().values())

    def write_page_rate(self) -> float:
        """Estimated FTL pages/sec written (for the GC-crossing horizon)."""
        page = self.page
        total = 0.0
        for st in self.streams:
            spec = st.spec
            pages = max(1, -(-spec.write_size // page))
            total += st.rate * (1.0 - spec.read_fraction) * pages
        return total

    # -- arrival selection -------------------------------------------------

    def _earliest(self, before: float) -> Optional[_TenantStreams]:
        """The tenant with the strictly-earliest pending arrival < before.

        First minimum in registration order — the same deterministic
        tie-break both modes use, so the global arrival sequence is
        identical whether arrivals are replayed analytically or through
        the simulator.
        """
        best = None
        best_at = before
        for st in self.streams:
            if st.next_at < best_at:
                best, best_at = st, st.next_at
        return best

    # -- event-by-event mode -----------------------------------------------

    def _des_arrival(self, st: _TenantStreams, at: float) -> None:
        spec = st.spec
        if st.mix.next() < spec.read_fraction:
            size = st.rsize.next()
            offset = _offset_for(st.uoff.next(), self.capacity, size, self.page)
            ev = self.scheduler.read(offset, size, tag=st.tag)
        else:
            size = st.wsize.next()
            offset = _offset_for(st.uoff.next(), self.capacity, size, self.page)
            ev = self.scheduler.write(offset, size, tag=st.tag)

        def record(done, result=st.result, t0=at, sim=self.sim):
            if done.ok:
                result.latency.observe(sim.now - t0)

        ev.callbacks.append(record)
        st.next_at = at + st.gap.next()

    def run_des(self, until: float) -> int:
        """Replay arrivals < ``until`` through the simulator.

        When the fluid regime is enabled, every arrival also samples
        the scheduler backlog into the monitor's confirmation window —
        the evidence :meth:`SteadyStateMonitor.fluid_eligible` needs to
        certify a stable loaded backlog.
        """
        sim = self.sim
        monitor = self.monitor
        observe = self._observe
        tasks = 0
        while True:
            st = self._earliest(until)
            if st is None:
                break
            at = st.next_at
            sim.run(until=at)
            if observe:
                monitor.observe()
            self._des_arrival(st, at)
            tasks += 1
        sim.run(until=until)
        if observe:
            monitor.observe()
        return tasks

    def _busy(self) -> bool:
        """Any queued or in-flight work anywhere in the stack?

        Includes per-SQ NVMe backlogs, which ``device.in_flight`` does
        not cover — the fluid handover must drain those too.
        """
        if self.scheduler.backlog > 0 or self.device.in_flight > 0:
            return True
        queue_backlogs = getattr(self.device, "queue_backlogs", None)
        if queue_backlogs is not None and any(queue_backlogs):
            return True
        fetch_backlogs = getattr(self.device, "fetch_backlogs", None)
        return fetch_backlogs is not None and any(fetch_backlogs)

    # -- fast-forward mode ---------------------------------------------------

    def _ff_arrival(self, st: _TenantStreams) -> bool:
        """Book one arrival analytically; True when the write tipped GC."""
        spec = st.spec
        device = self.device
        chunk = self.chunk
        is_read = st.mix.next() < spec.read_fraction
        if is_read:
            size = st.rsize.next()
            kind = OpKind.READ
        else:
            size = st.wsize.next()
            kind = OpKind.WRITE
        offset = _offset_for(st.uoff.next(), self.capacity, size, self.page)
        # Device accounting per chunk — what the dispatcher would issue.
        # Chunks of one task run concurrently on an idle device, so task
        # latency is the slowest chunk's analytic service time.
        latency = 0.0
        pos = 0
        while pos < size:
            length = min(chunk, size - pos)
            lat = device.epoch_op(is_read, offset + pos, length)
            if lat > latency:
                latency = lat
            pos += length
        gc = not is_read and device.ftl.gc_needed
        self.scheduler.credit_epoch(st.tag, kind, size)
        st.result.latency.observe(latency)
        st.next_at += st.gap.next()
        return gc

    def run_ff(self, edge: float) -> tuple:
        """Fast-forward to ``edge`` (or the GC onset, if a write tips it).

        Returns ``(t1, tasks, gc_hit)``.  The clock advance itself is a
        single ``sim.run(until=t1)`` — the only events it replays are
        the scheduler's round-timeout ticks, which no-op while the
        backlog is empty, so state on re-entry is exactly what an idle
        event-by-event stretch would have left behind.
        """
        sim = self.sim
        tasks = 0
        gc_hit = False
        t1 = edge
        while True:
            st = self._earliest(t1)
            if st is None:
                break
            at = st.next_at
            if self._ff_arrival(st):
                # This write crossed the GC low watermark: close the
                # epoch at its arrival time and let the event-driven
                # mode take over with the collector running.
                gc_hit = True
                t1 = at
                break
            tasks += 1
        if gc_hit:
            tasks += 1
        sim.run(until=t1)
        if gc_hit:
            self.device.maybe_collect()
        return t1, tasks, gc_hit

    # -- fluid (stable-backlog) mode -----------------------------------------

    def _fluid_arrival(self, st: _TenantStreams, at: float,
                       engine: _FluidEngine) -> Optional[str]:
        """Book one arrival through the fluid engine; returns its status
        (``None`` | ``"gc"`` | ``"drift"``, see :meth:`_FluidEngine.service`).
        """
        spec = st.spec
        is_read = st.mix.next() < spec.read_fraction
        if is_read:
            size = st.rsize.next()
            kind = OpKind.READ
        else:
            size = st.wsize.next()
            kind = OpKind.WRITE
        offset = _offset_for(st.uoff.next(), self.capacity, size, self.page)
        vops = self.scheduler.credit_epoch(st.tag, kind, size)
        latency, status = engine.service(st, at, is_read, offset, size, vops)
        st.result.latency.observe(latency)
        st.next_at += st.gap.next()
        return status

    def run_fluid(self, edge: float, granted: str) -> bool:
        """Run one fluid epoch toward ``edge`` (or its first in-epoch ender).

        Handover: the live system is first drained to quiet — queued
        and in-flight work completes event-by-event with no new
        arrivals injected — so the engine starts with no hidden
        scheduler or device queue contents; the drained stretch (a few
        virtual milliseconds for a drift-stable backlog) is accounted
        as DES time under reason ``"drain"``.  Returns ``False`` when
        the handover failed (the backlog would not drain before the
        edge, or draining tripped a disturbance such as GC onset) and
        the caller must re-decide.
        """
        sim = self.sim
        monitor = self.monitor
        t0 = sim.now
        sim.step_while(self._busy, until=edge)
        drained = sim.now - t0
        if drained > 0.0:
            self._segment(t0, sim.now, "des", "drain", 0, regime="des")
            monitor.note_segment("des", "drain", drained)
        if self._busy():
            return False
        ok, _why = monitor.fluid_eligible(self.demand_vops())
        if not ok:
            return False
        start = sim.now
        engine = _FluidEngine(self, start)
        tasks = 0
        status: Optional[str] = None
        t1 = edge
        while True:
            st = self._earliest(t1)
            if st is None:
                break
            at = st.next_at
            status = self._fluid_arrival(st, at, engine)
            tasks += 1
            if status is not None:
                # GC watermark crossing or backlog-stability breach:
                # close the epoch at this arrival and hand back to
                # event-by-event mode.
                t1 = at
                break
        sim.run(until=t1)
        if status == "gc":
            self.device.maybe_collect()
        elif status == "drift":
            monitor.note_disturbance()
        reason = status if status is not None else granted
        span = t1 - start
        self.ff_seconds += span
        self.ff_tasks += tasks
        self.fluid_seconds += span
        self.fluid_tasks += tasks
        self._segment(start, t1, "ff", reason, tasks, regime="fluid")
        monitor.note_segment("fluid", reason, span)
        return True

    # -- main loop -----------------------------------------------------------

    def _segment(self, t0: float, t1: float, mode: str, reason: str,
                 tasks: int, regime: str = "quiet") -> None:
        last = self.segments[-1] if self.segments else None
        if (
            last is not None
            and last.mode == mode
            and last.regime == regime
            and last.t1 == t0
        ):
            last.t1 = t1
            last.tasks += tasks
            return
        self.segments.append(EpochSegment(
            t0=t0, t1=t1, mode=mode, reason=reason, tasks=tasks, regime=regime
        ))

    def run(self, end: float) -> None:
        sim = self.sim
        monitor = self.monitor
        changes = self.changes
        ci = 0
        while True:
            now = sim.now
            while ci < len(changes) and changes[ci].at <= now:
                change = changes[ci]
                self.by_name[change.tenant].set_rate(change.rate)
                # A rate change breaks stationarity: the confirmation
                # window must be re-earned under the new rates.
                monitor.note_disturbance()
                ci += 1
            if now >= end:
                break
            next_change = changes[ci].at if ci < len(changes) else math.inf
            reason = "disabled"
            if self.fast_forward:
                demand = self.demand_vops()
                page_rate = self.write_page_rate()
                # Engine choice: under load, queue-wait dominates
                # latency, so the fluid replay is preferred even at
                # instants where the queue happens to be empty (e.g.
                # right after a fluid handover drain).  "Loaded" means
                # either the confirmation window saw a persistent
                # backlog or the offered demand alone implies one.
                fluid_first = self.fluid and (
                    monitor.window_loaded()
                    or demand > _LOADED_DEMAND * monitor.max_vops_per_sec
                )
                if fluid_first:
                    edge, reason = monitor.next_fluid_epoch(
                        demand, until=end, extra_edges=(next_change,),
                        write_page_rate=page_rate, min_epoch=self.min_epoch,
                    )
                    if edge is not None:
                        if self.run_fluid(edge, reason) or sim.now > now:
                            continue
                        reason = "drain"
                    # On rejection, fall through to event-by-event: a
                    # loaded stretch must never be covered by the quiet
                    # engine's idle-latency model, and DES is what
                    # earns the fluid confirmation window.
                else:
                    q_edge, q_reason = monitor.next_epoch(
                        demand, until=end, extra_edges=(next_change,),
                        write_page_rate=page_rate, min_epoch=self.min_epoch,
                    )
                    if q_edge is not None:
                        t1, tasks, gc_hit = self.run_ff(q_edge)
                        span = t1 - now
                        self.ff_seconds += span
                        self.ff_tasks += tasks
                        ff_reason = "gc" if gc_hit else q_reason
                        self._segment(now, t1, "ff", ff_reason, tasks,
                                      regime="quiet")
                        monitor.note_segment("quiet", ff_reason, span)
                        continue
                    reason = q_reason
                    if self.fluid and q_reason in (
                        "backlog", "inflight", "sq-backlog", "sq-fetch"
                    ):
                        f_edge, f_reason = monitor.next_fluid_epoch(
                            demand, until=end, extra_edges=(next_change,),
                            write_page_rate=page_rate,
                            min_epoch=self.min_epoch,
                        )
                        if f_edge is not None:
                            if self.run_fluid(f_edge, f_reason) or sim.now > now:
                                continue
                            reason = "drain"
                        else:
                            # The fluid rejection carries the measured
                            # drift / window progress — more useful in
                            # the loss report than a bare "backlog".
                            reason = f_reason
            t1 = min(end, next_change, now + self.des_slice)
            tasks = self.run_des(t1)
            self.des_tasks += tasks
            self._segment(now, t1, "des", reason, tasks, regime="des")
            monitor.note_segment("des", reason, t1 - now)
        # Drain: complete in-flight IO without committing to wall time.
        sim.step_while(
            lambda: self.scheduler.backlog > 0 or self.device.in_flight > 0
        )


def run_epoch_trial(
    profile: SsdProfile,
    specs: Sequence[EpochTenantSpec],
    horizon: float,
    seed: int = 7,
    cost_model: Union[str, CostModel] = "exact",
    fast_forward: bool = False,
    rate_changes: Sequence[RateChange] = (),
    fault_plan=None,
    allocations: Optional[Dict[str, float]] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    min_epoch: float = 0.05,
    des_slice: float = 0.05,
    headroom: float = 0.85,
    audit: bool = False,
    device_seed: int = 11,
    device: str = "ssd",
    fluid: bool = True,
    confirm_window: float = 0.1,
    confirm_samples: int = 3,
    fluid_backlog: int = 256,
    fluid_drift: float = 400.0,
) -> EpochTrialResult:
    """Run one open-loop multi-tenant trial over ``horizon`` seconds.

    With ``fast_forward=False`` (default) every arrival is replayed
    through the simulator — an ordinary DES run.  With
    ``fast_forward=True`` quiet epochs are computed analytically and
    the clock jumps between interesting edges; counters agree with the
    DES run exactly (see module docstring).  ``fluid=True`` (default)
    additionally enables the stable-backlog regime: once the monitor's
    confirmation window (``confirm_window`` seconds, ``confirm_samples``
    samples) certifies a loaded-but-stationary backlog (at most
    ``fluid_backlog`` chunks, drifting under ``fluid_drift`` chunks/sec),
    epochs are replayed through the analytic DDRR round schedule
    instead of falling back to event-by-event mode — same exact count
    agreement, with queue-wait latency mass.  ``audit=True`` attaches a
    :class:`~repro.obs.VopAudit` and stores its :meth:`summary` —
    fast-forwarded charges reconcile at 1.0000 by construction.
    ``device="nvme"`` runs the trial on the multi-queue
    :class:`~repro.ssd.NvmeDevice` (epoch accounting is inherited, so
    fast-forward agrees with DES there too).
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    sim = Simulator()
    if device == "ssd":
        device = SsdDevice(sim, profile, seed=device_seed, fault_plan=fault_plan)
    elif device == "nvme":
        from ..ssd.nvme import NvmeDevice

        device = NvmeDevice(sim, profile, seed=device_seed, fault_plan=fault_plan)
    else:
        raise ValueError(f"unknown device kind {device!r} (ssd|nvme)")
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, reference_calibration(profile.name))
    scheduler = LibraScheduler(sim, device, cost_model, config=scheduler_config)
    audit_obj = None
    if audit:
        from ..obs import VopAudit

        audit_obj = VopAudit(cost_model)
        audit_obj.attach(scheduler, device)
    if allocations is None:
        share = cost_model.max_iop / len(specs)
        allocations = {spec.name: share for spec in specs}
    for spec in specs:
        scheduler.register_tenant(spec.name, allocations[spec.name])

    t0 = sim.now
    streams = [_TenantStreams(spec, i, seed, t0) for i, spec in enumerate(specs)]
    monitor = SteadyStateMonitor(
        sim, scheduler, device, fault_plan=fault_plan, headroom=headroom,
        confirm_window=confirm_window, confirm_samples=confirm_samples,
        fluid_backlog=fluid_backlog, fluid_drift=fluid_drift,
    )
    runner = _EpochRunner(
        sim, device, scheduler, monitor, streams,
        sorted(rate_changes, key=lambda c: c.at), fast_forward,
        min_epoch, des_slice, fluid=fluid,
    )

    wall0 = time.perf_counter()
    runner.run(t0 + horizon)
    scheduler.stop()
    sim.run(until=sim.now + 0.05)
    wall = time.perf_counter() - wall0

    tenants: Dict[str, EpochTenantResult] = {}
    for st in streams:
        usage = scheduler.usage(st.spec.name)
        result = st.result
        result.ops = usage.ops
        result.tasks = usage.tasks
        result.read_ops = usage.read_ops
        result.write_ops = usage.write_ops
        result.bytes = usage.bytes
        result.vops = usage.vops
        result.failed_ops = usage.failed_ops
        result.allocation = allocations[st.spec.name]
        tenants[st.spec.name] = result

    return EpochTrialResult(
        horizon=horizon,
        tenants=tenants,
        segments=runner.segments,
        wall_seconds=wall,
        ff_seconds=runner.ff_seconds,
        ff_tasks=runner.ff_tasks,
        des_tasks=runner.des_tasks,
        fluid_seconds=runner.fluid_seconds,
        fluid_tasks=runner.fluid_tasks,
        des_reasons={k: v[1] for k, v in monitor.rejections.items()},
        reject_counts={k: v[0] for k, v in monitor.rejections.items()},
        audit_summary=audit_obj.summary(sim.now) if audit_obj is not None else None,
    )
