"""The hybrid analytic/DES driver: cells, sources, events, three regimes.

A hybrid trial is *sources* (open-loop tenants drawing arrivals from
seeded streams) feeding *cells* (one scheduler + device + monitor
each) under a time-sorted list of *control events*.  Between events
the driver covers simulated time in stretches, each in one of three
regimes chosen from what the cells' monitors certify:

- **des** — every arrival is submitted to the live scheduler and the
  simulator replays it event by event (the reference; the only regime
  when ``fast_forward`` is off);
- **quiet** — every cell is idle and under its headroom: each arrival
  is booked analytically (``credit_epoch`` for the chunk-exact VOP
  charges and usage counters, ``epoch_op`` for idle-device latency and
  byte/page effects — writes still go through the FTL page map, so GC
  onset stays faithful) and the clock jumps to the edge in one
  ``run(until=edge)``;
- **fluid** — queues are loaded but drift-stable: the live system is
  drained to quiet and the same arrivals are replayed through each
  cell's :class:`FluidEngine`, which adds queue-wait to the latency.

All three consume the same draws from the same streams in the same
global order (:meth:`HybridDriver._replay`), so a fast-forwarded run
agrees with the event-by-event run exactly on task/op/byte counts and
to float-summation order on VOPs.  Anything interesting — a control
event, a fault-window edge, a projected or actual GC watermark
crossing, a backlog-stability breach — closes the stretch, and the
next one starts from identical scheduler, device and RNG state.

What a trial *is* lives in a subclass (:mod:`repro.workload.epoch`:
one cell, rate changes; :mod:`repro.control.churn`: many nodes, tenant
lifecycle): who the sources are, :meth:`HybridDriver._place` and
:meth:`HybridDriver._apply`.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.tags import IoTag, OpKind, RequestClass
from ..experiments.common import derive_seed
from .distributions import BlockStream, ExponentialArrivals, Uniform01

__all__ = ["ArrivalSource", "Cell", "EpochSegment", "FluidEngine", "HybridDriver"]

#: RNG stream slots per source (gap, mix, read size, write size, placement)
_STREAMS_PER_SOURCE = 8

#: offered demand above this fraction of a cell's VOP capacity
#: classifies it as *loaded*: the quiet regime's idle-latency model is
#: no longer credible (arrivals overlap service) and the driver routes
#: epochs through the fluid engine instead
_LOADED_DEMAND = 0.4

#: quiet-class rejections that are drainable queue state — the fluid
#: class may still apply
_DRAINABLE = ("backlog", "inflight", "sq-backlog", "sq-fetch")


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


class ArrivalSource:
    """One open-loop tenant: its seeded streams and next pending arrival.

    Every mode pulls inter-arrival gaps, the op mix, sizes and the
    placement draw from these streams (one ``random.Random`` each,
    seeded from the trial seed and the source index), so a
    fast-forwarded run consumes exactly the RNG draws an event-by-event
    run would.  ``latency``, when given, receives each task's completion
    latency (analytic service time in fast-forwarded stretches).
    """

    __slots__ = ("name", "tag", "rate", "read_fraction", "gap", "mix",
                 "rsize", "wsize", "upick", "next_at", "latency")

    def __init__(self, name: str, index: int, seed: int, rate: float,
                 read_fraction: float, read_dist, write_dist, latency=None):
        def rng(k: int) -> random.Random:
            return random.Random(derive_seed(seed, index * _STREAMS_PER_SOURCE + k))

        self.name = name
        self.tag = IoTag(name, RequestClass.RAW)
        self.rate = rate
        self.read_fraction = read_fraction
        self.gap = BlockStream(ExponentialArrivals(rate), rng(0))
        self.mix = BlockStream(Uniform01(), rng(1))
        self.rsize = BlockStream(read_dist, rng(2))
        self.wsize = BlockStream(write_dist, rng(3))
        #: one U[0,1) draw per op; the trial's ``_place`` maps it to a
        #: cell and an offset
        self.upick = BlockStream(Uniform01(), rng(4))
        self.next_at = math.inf
        self.latency = latency

    def start(self, at: float) -> None:
        """Begin arriving: the first op lands one gap after ``at``."""
        self.next_at = at + self.gap.next()

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


class Cell:
    """One scheduler + device + monitor, with its current offered load.

    ``demand`` (VOPs/sec) and ``write_page_rate`` (FTL pages/sec) are
    what the monitor's eligibility and GC-horizon checks consume; the
    trial's ``_apply`` refreshes them whenever a control event changes
    who sends what where.
    """

    __slots__ = ("name", "scheduler", "device", "monitor", "chunk",
                 "demand", "write_page_rate", "engine")

    def __init__(self, name: str, scheduler, device, monitor):
        self.name = name
        self.scheduler = scheduler
        self.device = device
        self.monitor = monitor
        self.chunk = scheduler.config.chunk_size
        self.demand = 0.0
        self.write_page_rate = 0.0
        #: the cell's :class:`FluidEngine` for the current fluid stretch
        self.engine: Optional[FluidEngine] = None


class FluidEngine:
    """Analytic DDRR replay for one cell's stable-backlog (fluid) epoch.

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

    def __init__(self, cell: Cell, start: float):
        device = cell.device
        monitor = cell.monitor
        tenants, quanta = cell.scheduler.round_quanta()
        self.device = device
        self.monitor = monitor
        self.vops_per_sec = monitor.max_vops_per_sec
        self.index = {name: i for i, name in enumerate(tenants)}
        self.quanta = quanta
        self.backlog = [0.0] * len(tenants)
        self.chunk_cost = [0.0] * len(tenants)
        #: indices with nonzero fluid backlog, and their quanta total —
        #: maintained incrementally so the hot path never rescans
        self.active: List[int] = []
        self.weight = 0.0
        self.chunk = cell.chunk
        self.last_t = start
        self.pipeline = device.fluid_pipeline()
        #: controller lane per tenant: the one its DES submissions use
        #: (the scheduler's dispatch ctx is ``(trace, tenant)``)
        self.lane = [device._queue_for((None, name)) for name in tenants]
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

    def service(self, tenant: str, at: float, is_read: bool,
                offset: int, size: int, vops: float):
        """Book one arrival's device effects and latency.

        Returns ``(latency, status)`` where ``status`` is ``None``,
        ``"gc"`` (this write crossed the GC low watermark — close the
        epoch at this arrival) or ``"drift"`` (the virtual backlog
        breached the stability bound: the stationarity premise failed
        mid-epoch and event-by-event mode must take over).
        """
        self._drain_until(at)
        idx = self.index[tenant]
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


class HybridDriver:
    """The DES/quiet/fluid segment loop over cells, sources and events.

    Subclasses supply the trial: ``self.sources`` (the currently
    arriving :class:`ArrivalSource` objects, in a stable order),
    :meth:`_place` and :meth:`_apply`.  ``events`` is the time-sorted
    control plan, each entry a tuple whose first field is its time; no
    stretch spans one.
    """

    def __init__(self, sim, cells: Sequence[Cell], events: Sequence[tuple],
                 fast_forward: bool, min_epoch: float, des_slice: float,
                 fluid: bool):
        self.sim = sim
        self.cells = list(cells)
        self.events = events
        self.sources: List[ArrivalSource] = []
        self.fast_forward = fast_forward
        self.min_epoch = min_epoch
        self.des_slice = des_slice
        self.fluid = fluid
        #: sample the backlog into the monitors' confirmation windows
        #: during event-by-event stretches (only useful when the fluid
        #: regime may consume the samples)
        self._observe = fast_forward and fluid
        self.segments: List[EpochSegment] = []
        self.ff_seconds = 0.0
        self.ff_tasks = 0
        self.des_tasks = 0
        self.fluid_seconds = 0.0
        self.fluid_tasks = 0
        self.wall_seconds = 0.0

    # -- what a trial is (subclass hooks) ------------------------------------

    def _place(self, src: ArrivalSource, is_read: bool, size: int,
               u: float) -> Tuple[Cell, int]:
        """Map one op and its U[0,1) placement draw to ``(cell, offset)``."""
        raise NotImplementedError

    def _apply(self, event: tuple) -> None:
        """Apply one due control event and refresh the affected cells'
        ``demand``/``write_page_rate``."""
        raise NotImplementedError

    # -- arrivals ------------------------------------------------------------

    def _earliest(self, before: float) -> Optional[ArrivalSource]:
        """The source with the strictly-earliest pending arrival < before.

        First minimum in source order — the same deterministic
        tie-break every regime uses, so the global arrival sequence is
        identical whether arrivals are replayed analytically or through
        the simulator.
        """
        best = None
        best_at = before
        for src in self.sources:
            if src.next_at < best_at:
                best, best_at = src, src.next_at
        return best

    def _replay(self, until: float, arrive):
        """Feed every arrival before ``until`` to ``arrive``, in order.

        The op draw — mix, then size, then placement — happens here,
        once, for all three regimes.  ``arrive`` books the op and
        returns ``None`` or a status that closes the stretch *at that
        arrival* (the arrival itself is counted).  Returns
        ``(t1, tasks, status, cell)``: where the stretch ended, how many
        tasks it covered, and what closed it on which cell.
        """
        earliest = self._earliest
        place = self._place
        tasks = 0
        while True:
            src = earliest(until)
            if src is None:
                return until, tasks, None, None
            at = src.next_at
            is_read = src.mix.next() < src.read_fraction
            size = src.rsize.next() if is_read else src.wsize.next()
            cell, offset = place(src, is_read, size, src.upick.next())
            status = arrive(src, at, cell, is_read, size, offset)
            src.next_at = at + src.gap.next()
            tasks += 1
            if status is not None:
                return at, tasks, status, cell

    def _arrive_des(self, src, at, cell, is_read, size, offset):
        """Event-by-event: run the simulator up to the arrival and submit
        it to the live scheduler."""
        sim = self.sim
        sim.run(until=at)
        if self._observe:
            self._sample()
        scheduler = cell.scheduler
        if is_read:
            ev = scheduler.read(offset, size, tag=src.tag)
        else:
            ev = scheduler.write(offset, size, tag=src.tag)
        latency = src.latency
        if latency is not None:
            def record(done, latency=latency, t0=at, sim=sim):
                if done.ok:
                    latency.observe(sim.now - t0)

            ev.callbacks.append(record)
        return None

    def _arrive_quiet(self, src, at, cell, is_read, size, offset):
        """Quiet epoch: book one arrival analytically on an idle cell;
        ``"gc"`` when the write crossed the GC low watermark."""
        device = cell.device
        chunk = cell.chunk
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
        cell.scheduler.credit_epoch(
            src.tag, OpKind.READ if is_read else OpKind.WRITE, size
        )
        if src.latency is not None:
            src.latency.observe(latency)
        return "gc" if not is_read and device.ftl.gc_needed else None

    def _arrive_fluid(self, src, at, cell, is_read, size, offset):
        """Fluid epoch: book one arrival through the cell's engine; its
        status is ``None`` | ``"gc"`` | ``"drift"``."""
        vops = cell.scheduler.credit_epoch(
            src.tag, OpKind.READ if is_read else OpKind.WRITE, size
        )
        latency, status = cell.engine.service(
            src.name, at, is_read, offset, size, vops
        )
        if src.latency is not None:
            src.latency.observe(latency)
        return status

    # -- stretches -----------------------------------------------------------

    def _sample(self) -> None:
        """Every arrival and stretch end of event-by-event mode samples
        the backlogs — the evidence ``fluid_eligible`` needs to certify
        a stable loaded backlog."""
        for cell in self.cells:
            cell.monitor.observe()

    def _busy(self) -> bool:
        return any(cell.monitor.busy() for cell in self.cells)

    def _edge(self, fluid: bool, end: float, next_event: float):
        """The earliest admissible epoch edge across every cell.

        Returns ``(edge, reason, None)``, or ``(None, reason, cell)``
        naming the first cell whose monitor refused.  Each cell bounds
        the edge the previous ones left, so an epoch shorter than
        ``min_epoch`` on *any* cell is refused.
        """
        edge, reason = end, "horizon"
        for cell in self.cells:
            monitor = cell.monitor
            bound = monitor.next_fluid_epoch if fluid else monitor.next_epoch
            at, why = bound(
                cell.demand, until=edge, extra_edges=(next_event,),
                write_page_rate=cell.write_page_rate, min_epoch=self.min_epoch,
            )
            if at is None:
                return None, why, cell
            if at < edge:
                edge, reason = at, why
        return edge, reason, None

    def _stretch(self, until: float, regime: str, reason: str, arrive,
                 veto: Optional[Cell] = None) -> None:
        """Cover ``[now, until)`` in one regime and account for it.

        The clock advance of a fast-forwarded stretch is a single
        ``sim.run(until=t1)`` — the only events it replays are the
        schedulers' round-timeout ticks, which no-op while backlogs are
        empty, so state on re-entry is exactly what an idle
        event-by-event stretch would have left behind.
        """
        start = self.sim.now
        t1, tasks, status, cell = self._replay(until, arrive)
        self.sim.run(until=t1)
        if status == "gc":
            # The write crossed the GC low watermark: the stretch closed
            # at its arrival; event-driven mode takes over with the
            # collector running.
            cell.device.maybe_collect()
        elif status == "drift":
            cell.monitor.note_disturbance()
        self._account(start, t1, regime, status or reason, tasks, veto)

    def _account(self, t0: float, t1: float, regime: str, reason: str,
                 tasks: int, veto: Optional[Cell] = None) -> None:
        """Book one stretch: trial counters, the segment list, and the
        monitors' loss report.  An event-by-event stretch is noted on
        the cell that vetoed fast-forward (the first cell when none did:
        fast-forward off, or the fluid handover drain); a fast-forwarded
        one on every cell."""
        span = t1 - t0
        if regime == "des":
            mode = "des"
            self.des_tasks += tasks
            (veto or self.cells[0]).monitor.note_segment("des", reason, span)
        else:
            mode = "ff"
            self.ff_seconds += span
            self.ff_tasks += tasks
            if regime == "fluid":
                self.fluid_seconds += span
                self.fluid_tasks += tasks
            for cell in self.cells:
                cell.monitor.note_segment(regime, reason, span)
        last = self.segments[-1] if self.segments else None
        if last is not None and last.regime == regime and last.t1 == t0:
            last.t1 = t1
            last.tasks += tasks
            return
        self.segments.append(EpochSegment(
            t0=t0, t1=t1, mode=mode, reason=reason, tasks=tasks, regime=regime
        ))

    def _run_fluid(self, edge: float, granted: str) -> bool:
        """Run one fluid epoch toward ``edge`` (or its first in-epoch ender).

        Handover: the live system is first drained to quiet — queued
        and in-flight work (parked NVMe SQ commands included) completes
        event-by-event with no new arrivals injected — so the engines
        start with no hidden scheduler or device queue contents; the
        drained stretch (a few virtual milliseconds for a drift-stable
        backlog) is accounted as DES time under reason ``"drain"``.
        Returns ``False`` when the handover failed (the backlog would
        not drain before the edge, or draining tripped a disturbance
        such as GC onset) and the caller must re-decide.
        """
        sim = self.sim
        t0 = sim.now
        sim.step_while(self._busy, until=edge)
        if sim.now > t0:
            self._account(t0, sim.now, "des", "drain", 0)
        if self._busy():
            return False
        for cell in self.cells:
            if not cell.monitor.fluid_eligible(cell.demand)[0]:
                return False
        start = sim.now
        for cell in self.cells:
            cell.engine = FluidEngine(cell, start)
        self._stretch(edge, "fluid", granted, self._arrive_fluid)
        return True

    # -- main loop -----------------------------------------------------------

    def run(self, end: float, settle: float) -> None:
        """Drive the trial to ``end``, drain it, stop the schedulers and
        let ``settle`` seconds of their teardown events play out."""
        sim = self.sim
        cells = self.cells
        events = self.events
        ei = 0
        wall0 = time.perf_counter()
        while True:
            now = sim.now
            while ei < len(events) and events[ei][0] <= now:
                self._apply(events[ei])
                ei += 1
            if now >= end:
                break
            next_event = events[ei][0] if ei < len(events) else math.inf
            reason, veto = "disabled", None
            if self.fast_forward:
                # Engine choice: under load, queue-wait dominates
                # latency, so the fluid replay is preferred even at
                # instants where the queues happen to be empty (e.g.
                # right after a fluid handover drain).  "Loaded" means
                # either a confirmation window saw a persistent backlog
                # or the offered demand alone implies one.
                try_fluid = self.fluid and any(
                    cell.monitor.window_loaded()
                    or cell.demand > _LOADED_DEMAND * cell.monitor.max_vops_per_sec
                    for cell in cells
                )
                if not try_fluid:
                    edge, reason, veto = self._edge(False, end, next_event)
                    if edge is not None:
                        self._stretch(edge, "quiet", reason, self._arrive_quiet)
                        continue
                    try_fluid = self.fluid and reason in _DRAINABLE
                if try_fluid:
                    # On rejection the fluid reason stands: it carries
                    # the measured drift / window progress — more useful
                    # in the loss report than a bare "backlog".
                    edge, reason, veto = self._edge(True, end, next_event)
                    if edge is not None:
                        if self._run_fluid(edge, reason) or sim.now > now:
                            continue
                        reason = "drain"
                # Fall through to event-by-event: a loaded stretch must
                # never be covered by the quiet regime's idle-latency
                # model, and DES is what earns the fluid confirmation
                # window.
            self._stretch(
                min(end, next_event, now + self.des_slice),
                "des", reason, self._arrive_des, veto,
            )
            if self._observe:
                self._sample()
        # Drain: complete in-flight IO without committing to wall time.
        sim.step_while(self._busy)
        for cell in cells:
            cell.scheduler.stop()
        sim.run(until=sim.now + settle)
        self.wall_seconds = time.perf_counter() - wall0
