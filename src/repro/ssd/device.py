"""Structural SSD performance model.

The device is a small queueing network in simulated time:

- an **NCQ** of 32 admission slots (the queue depth of every paper
  experiment);
- a **controller** stage — a single FIFO server whose per-op service is
  ``overhead + bytes * byte_cost``.  The fixed overhead caps IOP/s at
  small sizes (the paper's "processor bound by its controller and on-die
  logic"); the byte term models the SATA link/DMA;
- **C parallel channels** — each chunk of an op occupies one channel for
  ``access/program latency + bytes * byte_cost``.  Aggregate channel
  bandwidth caps throughput at large sizes (the "data channel"
  bottleneck).  Ops stripe page-wise across channels via the FTL, so
  reads land where their data lives and writes spread round-robin;
- an **FTL** (:mod:`repro.ssd.ftl`) whose garbage collection injects
  read-merge-write copy traffic and erase stalls under sustained
  overwrite — the erase-before-write penalty.

Because both bottleneck stages exist, IOP/s and bandwidth vary
non-linearly with op size (Fig 3), writes interfere with reads by
occupying channels for program latencies (Fig 4), and writes cost more
than reads with the gap narrowing at large sizes (Fig 6).

Stage queueing uses reservation timestamps rather than server processes:
an op reserves ``start = max(now, stage_free_at)`` and waits until its
finish time.  This is exact for FIFO deterministic servers and keeps the
event count per IO to a handful.

One **op-timing kernel** prices every host op:
:meth:`SsdDevice._plan` turns it into a service plan (controller
service plus one ``(channel, service)`` per channel touched) and
:meth:`StagePipeline.reserve` books a plan FIFO on the controller-lane
and channel accumulators.  Because the stages are next-free-time
accumulators, an op's timeline is fully computable the moment it is
admitted, and two executors share the pair:

- **inline in** :meth:`SsdDevice._admit`, for an op that finds its
  queue slot free, is not a write while the free pool is down to the
  GC reserve, and meets no fault window: it is planned and reserved at
  submission and one finish action is pushed at the analytic finish
  time — no generator, no Event, no timeout;
- :meth:`SsdDevice._run`, for every other op.  An op that is not
  admitted keeps what it already holds and waits in one of three
  **admission FIFOs**: its queue's (for a slot, served by the finish
  action that frees one), the starved-write FIFO (served in park order
  as GC frees blocks), or a call at the stall window's end.  Admitted
  later, ``_run`` prices it under the fault windows active at that
  instant and times it the same way.

Every entry checks an op's range once and then runs ``_admit``:
``read``, ``write`` and ``submit`` themselves, and the Libra scheduler
before it charges the op's VOPs (it calls ``_admit`` directly).

When constructed with a :class:`~repro.faults.FaultPlan`, the device
consults a :class:`~repro.faults.FaultInjector` at op admission: stall
windows delay admission, degraded-bandwidth windows scale channel
service, latency windows pad completion, and error/corruption windows
fail the op (delivered at completion time, after the op has occupied
the stages it reserved — a failing op still consumes device time).
"""

from __future__ import annotations

from collections import deque
from typing import NoReturn, Optional

from ..faults import CorruptionError, FaultInjector, FaultPlan
from ..sim import OK_RESULT, Event, Simulator
from .ftl import Ftl
from .profiles import SsdProfile
from .stats import SsdStats

__all__ = ["SsdDevice", "StagePipeline"]


class _Failed:
    """A failed op's completion result: the ``ok``/``value`` shape of
    :data:`~repro.sim.OK_RESULT`, carrying the injected fault."""

    __slots__ = ("value",)
    ok = False
    triggered = True
    processed = True

    def __init__(self, fault: Exception):
        self.value = fault


class StagePipeline:
    """Controller-lane and channel next-free-time accumulators: the
    device holds one and books every op and GC move on it."""

    __slots__ = ("lanes", "chans")

    def __init__(self, lanes, chans):
        self.lanes = list(lanes)
        self.chans = list(chans)

    def reserve(self, at: float, q, ctrl_service: float, services, spans=None) -> float:
        """FIFO-reserve one op dispatched at ``at``; returns its finish time.

        The op clears controller lane ``q`` first, then occupies its
        channels no earlier than that; ``q=None`` skips the controller
        (GC copy/erase traffic never crosses the host interface).
        Reservation timestamps make stage occupancy known synchronously,
        so a ``spans`` list collects each stage's ``(channel, or None
        for the controller, start, finish)`` here, not at completion.
        """
        if q is not None:
            lanes = self.lanes
            start = lanes[q]
            if start < at:
                start = at
            at = lanes[q] = start + ctrl_service  # the channels' ready time
            if spans is not None:
                spans.append((None, start, at))
        finish = at
        chans = self.chans
        for chan, service in services:
            start = chans[chan]
            if start < at:
                start = at
            end = chans[chan] = start + service
            if end > finish:
                finish = end
            if spans is not None:
                spans.append((chan, start, end))
        return finish


class SsdDevice:
    """A simulated SSD: submit reads/writes, get completion events."""

    def __init__(
        self,
        sim: Simulator,
        profile: SsdProfile,
        seed: int = 0,
        precondition: bool = True,
        age_factor: float = 2.0,
        fault_plan: Optional[FaultPlan] = None,
        tracer=None,
    ):
        self.sim = sim
        self.profile = profile
        self.ftl = Ftl(profile, seed=seed)
        self.stats = SsdStats()
        #: optional repro.obs Tracer recording controller/channel spans
        self.tracer = tracer
        #: called as ("read"|"write", size) whenever a host op finishes
        #: occupying the device (success or injected fault) — the raw
        #: op stream the VOP audit reconciles scheduler charges against.
        #: Plain strings keep repro.ssd free of repro.core imports.
        self.op_observer = None
        #: Chrome-trace process track name for this device's spans
        self.trace_name = f"ssd.{profile.name}"
        self.faults: Optional[FaultInjector] = (
            FaultInjector(fault_plan, name=profile.name) if fault_plan is not None else None
        )
        #: free slots of the one NCQ (``q = 0``); a freed slot goes
        #: straight to the first waiter, so a free slot means nobody waits
        self._ncq_free = profile.queue_depth
        #: FIFO of ops waiting for an NCQ slot
        self._ncq_wait = deque()
        #: writes holding their slot while the free pool is down to the
        #: GC reserve, in park order
        self._starved = deque()
        #: True while ``_admit`` and ``_finish`` take and free the one
        #: NCQ's slot inline; False on a device whose queue hooks answer
        self._one_queue = True
        #: per-op constants of the frozen profile: the range every entry
        #: checks, and a one-page program's channel service (``_plan``)
        self._capacity = profile.logical_capacity
        self._page_program = profile.prog_latency + profile.page_size * profile.write_byte_cost
        self._pipe = StagePipeline([0.0], [0.0] * profile.channels)
        #: Chrome-trace track name of each controller lane
        self._ctrl_tracks = ("ctrl",)
        self._gc_running = False
        if precondition:
            self.ftl.precondition(age_factor=age_factor)

    # -- public IO interface ---------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Host-visible depth (max in-flight host ops), summed over queues."""
        return self.profile.num_queues * self.profile.queue_depth

    @property
    def in_flight(self) -> int:
        """Ops holding a queue slot (admitted, starved or stalled), summed
        over queues."""
        return self.queue_depth - (self._ncq_free if self._one_queue else sum(self._free))

    @property
    def gc_running(self) -> bool:
        """True while the background GC loop owns channel time."""
        return self._gc_running

    def read(self, offset: int, size: int, ctx=None) -> Event:
        """Submit a read; the returned event triggers on completion, and
        fails with the injected fault if the op draws one.

        ``ctx`` is an optional ``(trace_id, tenant)`` pair attached to
        the op's controller/channel spans when a tracer is installed; a
        multi-queue device also maps the tenant to its submission queue.
        """
        if type(offset) is not int or type(size) is not int or not (
            0 < size and 0 <= offset and offset + size <= self._capacity
        ):
            self._reject(offset, size)
        done = Event(self.sim)
        self._admit(True, offset, size, ctx, None, done)
        return done

    def write(self, offset: int, size: int, ctx=None) -> Event:
        """Submit a write; the returned event triggers on completion."""
        if type(offset) is not int or type(size) is not int or not (
            0 < size and 0 <= offset and offset + size <= self._capacity
        ):
            self._reject(offset, size)
        done = Event(self.sim)
        self._admit(False, offset, size, ctx, None, done)
        return done

    def submit(self, is_read: bool, offset: int, size: int, ctx, callback, cb_arg) -> None:
        """Submit one op; completion arrives as ``callback(cb_arg, result)``.

        An empty or out-of-range op, or one whose offset or size is not
        an int (an integral float included), raises ValueError before it
        takes anything.  The op's finish action hands the callback
        :data:`~repro.sim.OK_RESULT`, or a failed result whose ``value``
        is the injected fault, after the op has occupied its stages.
        ``callback=None`` is ``read``/``write``: ``cb_arg`` (an Event, or
        a multi-op file IO's join) succeeds or fails instead.
        """
        if type(offset) is not int or type(size) is not int or not (
            0 < size and 0 <= offset and offset + size <= self._capacity
        ):
            self._reject(offset, size)
        self._admit(is_read, offset, size, ctx, callback, cb_arg)

    def _reject(self, offset, size) -> NoReturn:
        """Raise the ValueError an entry's range check owes its caller."""
        raise ValueError(
            f"io [{offset}, {offset + size}) is empty, not given as ints or "
            f"beyond capacity {self._capacity}"
        )

    def _admit(self, is_read: bool, offset: int, size: int, ctx, callback, cb_arg) -> None:
        """``submit`` past its range check, which every entry makes once
        (the scheduler's before it charges the op): the one spelling of
        admission (see the module docstring)."""
        if self._one_queue:
            if not self._ncq_free:
                self._park((is_read, offset, size, ctx, callback, cb_arg, 0))
                return
            self._ncq_free -= 1
            q = 0
        else:
            q = self._queue_for(ctx)
            if not self._take(q):
                self._park((is_read, offset, size, ctx, callback, cb_arg, q))
                return
        sim = self.sim
        now = sim.now
        if not (
            (is_read or not self.ftl.host_starved)
            and (self.faults is None or self.faults.quiescent(now))
        ):
            self._enter((is_read, offset, size, ctx, callback, cb_arg, q))
            return
        # The common case, ``_run`` inline: no fault window to price.
        ctrl, services = self._plan(is_read, offset, size)
        if self.tracer is None:
            finish = self._pipe.reserve(now, q, ctrl, services)
        else:
            finish = self._reserve(q, ctrl, services, ctx)
        # ``now + (finish - now)`` can differ from ``finish`` in the last
        # bit; every recorded trajectory lands completions there.
        sim.call_at(
            now + (finish - now), self._finish, (callback, cb_arg, is_read, size, q, None)
        )

    def trim(self, offset: int, size: int) -> None:
        """Invalidate a logical range (instant, as TRIM effectively is)."""
        self.trim_extents([(offset, size)])

    def trim_extents(self, extents) -> None:
        """TRIM a deleted file's ``(offset, length)`` extents in one call;
        ``stats.trims`` counts extents."""
        self.ftl.trim_extents(extents)
        self.stats.trims += len(extents)

    # -- the op-timing kernel -----------------------------------------------------

    def _plan(self, is_read: bool, offset: int, size: int, scale: float = 1.0):
        """Price one host op: ``(ctrl_service, [(channel, service), ...])``.

        The only place host-op service time is computed — and, because
        both executors must agree on them too, where the busy counters
        are credited and a write is applied to the FTL page map.
        ``scale`` is the degraded-bandwidth stretch of channel service
        (the controller is not slowed).  The caller has checked the
        range against ``logical_capacity``.
        """
        profile = self.profile
        stats = self.stats
        page = profile.page_size
        if is_read:
            ctrl = profile.ctrl_overhead_read + size * profile.ctrl_byte_cost
            stats.controller_busy += ctrl
            if (offset % page) + size <= page:
                # Single-page read: one channel, transfer = requested bytes,
                # one map lookup instead of per-channel accounting.
                service = (profile.read_access + size * profile.read_byte_cost) * scale
                stats.channel_busy += service
                return ctrl, ((self.ftl.read_channel(offset), service),)
            access = profile.read_access
            byte_cost = profile.read_byte_cost
            services = []
            for chan, _pages, nbytes in self.ftl._read_channels(offset, size):
                service = (access + nbytes * byte_cost) * scale
                stats.channel_busy += service
                services.append((chan, service))
            return ctrl, services
        ctrl = profile.ctrl_overhead_write + size * profile.ctrl_byte_cost
        stats.controller_busy += ctrl
        ftl = self.ftl
        if (offset % page) + size <= page and not ftl._routed:
            # One-page write on the one host stream (every WAL tail):
            # ``Ftl.host_write``'s one-page lane without its frame.
            cursor = ftl._host_cursor
            chan = cursor[0]
            cursor[0] = (chan + 1) % ftl.channels
            ftl._append_page(offset // page, chan)
            service = self._page_program * scale
            stats.channel_busy += service
            return ctrl, ((chan, service),)
        # pages * (page_size * byte_cost) equals pages * page_size *
        # byte_cost bitwise only for power-of-two page sizes (every
        # profile's is); the GC loop spells it the second way.
        prog = profile.prog_latency
        page_cost = page * profile.write_byte_cost
        services = []
        for chan, pages in ftl._host_write(offset, size).programs:
            service = (prog + pages * page_cost) * scale
            stats.channel_busy += service
            services.append((chan, service))
        return ctrl, services

    def _reserve(self, q, ctrl: float, services, ctx=None, label: str = "chan") -> float:
        """Book a plan on the live pipeline at ``now``; returns its finish."""
        tr = self.tracer
        if tr is None:
            return self._pipe.reserve(self.sim.now, q, ctrl, services)
        spans = []
        finish = self._pipe.reserve(self.sim.now, q, ctrl, services, spans)
        trace, tenant = ctx if ctx is not None else (None, None)
        args = {"tenant": tenant} if tenant else None
        for chan, start, end in spans:
            if chan is None:
                name, track = "ctrl", self._ctrl_tracks[q]
            else:
                name, track = label, f"chan{chan}"
            tr.span(name, "ssd", self.trace_name, track, start, end, trace=trace, args=args)
        return finish

    # -- queue hooks (what a multi-queue host interface overrides) ----------------

    # ``_admit`` and ``_finish`` take and free the one NCQ's slot inline.
    # A device with ``_one_queue = False`` is asked on every op instead:
    # ``_queue_for(ctx)`` (the op's queue ``q``), then ``_take(q)`` (take
    # what queue ``q`` grants, without waiting; False when it grants
    # nothing yet), ``_park`` for an op ``_take`` refused, and
    # ``_release(q)`` in its finish; it must define ``_take`` and
    # ``_release``, and keep each queue's free slots in ``_free``.

    def _queue_for(self, ctx) -> int:
        """Queue index for a submission ``ctx`` — SATA has only ``q = 0``."""
        return 0

    def _park(self, op) -> None:
        """Queue an op that found no free slot, FIFO behind the NCQ's
        earlier waiters."""
        self._ncq_wait.append(op)

    # -- admission and the scheduled completion ----------------------------------

    def _enter(self, op) -> None:
        """Admit an op that holds its slot (and tag), unless it is a write
        the starved free pool parks — it keeps its slot, so backpressure
        reaches the other queues, as on real devices — or a stall window
        holds it until the window's end."""
        if not op[0] and self.ftl.host_starved:
            self._starved.append(op)
            self._maybe_start_gc()
            return
        faults = self.faults
        if faults is not None:
            now = self.sim.now
            stall_end = faults.stall_until(now)
            if stall_end > now:
                self.stats.stall_seconds += stall_end - now
                self.sim.call_at(now + (stall_end - now), self._enter, op)
                return
        self._run(op)

    def _run(self, op) -> None:
        """Time an admitted op: price it under the fault windows active
        now, draw its fault, reserve its plan and push its finish."""
        is_read, offset, size, ctx, callback, cb_arg, q = op
        sim = self.sim
        now = sim.now
        scale, extra, fault = 1.0, 0.0, None
        faults = self.faults
        if faults is not None:
            scale = faults.service_scale(now)
            extra = faults.extra_latency(now)
            if scale > 1.0:
                self.stats.degraded_ops += 1
            if extra > 0.0:
                self.stats.fault_delay_seconds += extra
            draw = faults.draw_read_fault if is_read else faults.draw_write_fault
            fault = draw(now, offset, size)
        ctrl, services = self._plan(is_read, offset, size, scale)
        finish = self._reserve(q, ctrl, services, ctx) + extra
        sim.call_at(now + (finish - now), self._finish,
                    (callback, cb_arg, is_read, size, q, fault))

    def _finish(self, arg) -> None:
        """One-shot completion of an op that has occupied its stages:
        observer, stats, GC kick after a write, slot release (admitting
        any waiter before the consumer runs), delivery.  A failed write's
        FTL mapping stands: a failed program may leave torn pages
        behind, exactly like real media."""
        callback, sink, is_read, size, q, fault = arg
        if self.op_observer is not None:
            self.op_observer("read" if is_read else "write", size)
        stats = self.stats
        if fault is not None:
            if not is_read:
                stats.write_faults += 1
            elif isinstance(fault, CorruptionError):
                stats.corrupt_reads += 1
            else:
                stats.read_faults += 1
            result = _Failed(fault)
        else:
            result = OK_RESULT
            if is_read:
                stats.reads += 1
                stats.read_bytes += size
            else:
                stats.writes += 1
                stats.write_bytes += size
                if self.ftl.gc_needed and not self._gc_running:
                    self._maybe_start_gc()
        if self._one_queue:  # the NCQ's first waiter takes the slot
            wait = self._ncq_wait
            if wait:
                self._enter(wait.popleft())
            else:
                self._ncq_free += 1
        else:
            self._release(q)
        if callback is not None:
            callback(sink, result)
        elif fault is None:  # ``read``/``write``: the op's Event, or a join
            sink.succeed()
        else:
            sink.fail(fault)

    # -- garbage collection --------------------------------------------------------

    def _maybe_start_gc(self) -> None:
        # ``gc_needed`` alone: the FTL floors its low watermark at
        # ``gc_reserve_blocks + 2 * channels``, never below the
        # starvation threshold ``gc_reserve_blocks + 2``, so a pool that
        # starves host writes always needs GC as well.
        if not self._gc_running and self.ftl.gc_needed:
            self._gc_running = True
            self.sim.process(self._gc_loop(), name=f"{self.profile.name}.gc")

    def _gc_loop(self):
        """Background GC: evacuate victims until the high watermark.

        Copy traffic and erases go through the same channel reservations
        as host IO, so GC contends with (and slows) the foreground — the
        paper's erase-before-write penalty made visible.
        """
        profile = self.profile
        try:
            while not self.ftl.gc_satisfied:
                move = self.ftl.collect_victim()
                if move is None:
                    break
                work = []
                if move.valid_pages:
                    # Read the live pages off the victim's channel...
                    read_service = move.valid_pages * (
                        profile.read_access / 4  # sequential in-block reads pipeline
                        + profile.page_size * profile.read_byte_cost
                    )
                    work.append((move.victim_channel, read_service, "gc.read"))
                    # ...and program them on the GC active channels.
                    for chan, pages in move.copies:
                        service = (
                            profile.prog_latency
                            + pages * profile.page_size * profile.write_byte_cost
                        )
                        work.append((chan, service, "gc.prog"))
                # The erase itself stalls the victim's channel.
                work.append((move.victim_channel, profile.erase_latency, "gc.erase"))
                # Reserve the copy/erase work on the channels (delaying
                # queued foreground IO accordingly)...
                added = 0.0
                for chan, service, label in work:
                    self.stats.channel_busy += service
                    self._reserve(None, 0.0, ((chan, service),), label=label)
                    added += service
                self.stats.gc_runs += 1
                self.stats.gc_pages_copied += move.valid_pages
                self.stats.gc_blocks_erased += 1
                # ...but pace the loop by the aggregate work it injects,
                # not by FIFO completion: a real controller interleaves
                # GC with host IO rather than queueing one victim at a
                # time behind the entire host backlog.  Capacity stays
                # honest because the reservations above consume real
                # channel time either way.
                yield self.sim.timeout(added / profile.channels)
                self._signal_gc_progress()
        finally:
            self._gc_running = False
            self._signal_gc_progress()

    def _signal_gc_progress(self) -> None:
        """Admit starved writes in park order while the pool allows."""
        starved = self._starved
        while starved and not self.ftl.host_starved:
            self._enter(starved.popleft())
        if starved:
            self._maybe_start_gc()
