"""Libra's IO scheduler: distributed deficit round robin over VOPs.

The scheduler (§4.3/§5) sits between the persistence engine and the
SSD.  Scheduling proceeds in *rounds*: at the start of a round every
tenant's deficit counter grows by a quantum proportional to its VOP
allocation; the dispatcher keeps up to ``queue_depth`` (32) operations
in flight, picking tenants round-robin among those with queued work and
positive deficit and charging each dispatched task its VOP cost.

A new round begins only when no tenant is *round-eligible* — i.e.
holds both remaining deficit and pending work (queued or in flight).
This is the crux of proportional insulation: a tenant issuing expensive
ops exhausts its quantum early and must wait for the slower tenants to
drain theirs, which in turn empties the device queues those slow
tenants were stuck behind.  The feedback settles at proportional VOP
rates (the Fig 7/9 result).  Because rounds advance immediately once
everyone is exhausted or idle, no capacity is left fallow when demand
exists — the scheduler is work-conserving across rounds, sharing all
unallocated throughput in proportion to allocations (§4.3).

Two paper-faithful details:

- a *round timeout* forcibly advances stuck rounds (very slow tenants
  under deep interference), trading some insulation for utilization —
  the mechanism behind the "timeouts prematurely advance the round"
  artifact discussed for the fixed cost model;
- ops larger than ``chunk_size`` (128 KiB) are split into independently
  scheduled chunks for responsiveness, costing a little allocation
  accuracy at 256 KiB (visible in Fig 7 on the Intel SSD).

Both questions the dispatcher asks — "who is eligible next" and "is the
round still open" — are answered by the one lap over the tenants that
:meth:`LibraScheduler._pump` makes from its round-robin cursor, and it
makes that lap only while a chunk is queued and a device slot is free.
A chunk that would be the lap's only candidate is dispatched by
``_submit`` without one: a submission or completion on an uncontended
node costs a comparison or two, not a scan of every tenant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple
from collections import deque

from ..sim import Event, Interrupt, Simulator
from ..ssd import SsdDevice
from ..ssd.stats import Counters
from .tags import IoTag, OpKind
from .vop import CostModel

__all__ = ["LibraScheduler", "TenantUsage", "SchedulerConfig"]

_READ = OpKind.READ
#: rounds a tenant may bank unused deficit for (burst bound)
BURST_ROUNDS = 2.0
#: weight floor for zero-allocation (best-effort) tenants, as a
#: fraction of the mean positive allocation
BEST_EFFORT_FRACTION = 0.01


def _check_allocation(allocation: float) -> None:
    """Refuse a VOP/s allocation that is negative or not finite: a NaN
    or infinite quantum leaves no tenant eligible, so the pump would
    start round after round forever."""
    if not (math.isfinite(allocation) and allocation >= 0):
        raise ValueError(f"allocation {allocation!r} must be finite and >= 0")


@dataclass
class SchedulerConfig:
    """Tunables for the DDRR scheduler."""

    #: nominal round length, in seconds of device VOP capacity
    round_seconds: float = 0.005
    #: force a new round after this many nominal round lengths
    timeout_rounds: float = 4.0
    #: ops larger than this are split into independently scheduled chunks
    chunk_size: int = 128 * 1024

    def __post_init__(self):
        # A zero round or timeout spins the timeout loop at one instant;
        # a chunk size below one byte never finishes splitting an op.
        for name in ("round_seconds", "timeout_rounds"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value!r} must be finite and > 0")
        size = self.chunk_size
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise ValueError(f"chunk_size {size!r} must be an int > 0")


@dataclass
class TenantUsage(Counters):
    """Cumulative per-tenant accounting, snapshot-able by experiments."""

    #: completed schedulable chunks (physical ops at the device)
    ops: int = 0
    #: completed whole tasks (what a caller submitted; chunks merged)
    tasks: int = 0
    bytes: int = 0
    read_ops: int = 0
    write_ops: int = 0
    vops: float = 0.0
    #: chunks whose device op failed (injected or emergent faults)
    failed_ops: int = 0


class _Chunk:
    """One schedulable unit: a whole task, or a slice of a large one.

    A chunk carries what dispatch and completion need, so a task of at
    most ``chunk_size`` bytes (every GET's read, nearly every write) is
    this one object: its tag, kind, completion event ``done`` and the
    owning tenant's scheduler ``state`` (the completion callback's one
    argument — no per-chunk ``partial``).  The slices of a larger task
    share its ``done`` and one :class:`_Split` counting the slices
    still pending; ``split`` is None for a whole task.

    ``cost`` is the VOP price captured at dispatch time; completion
    charges and reports exactly that value, so the cost model is
    consulted once per chunk and dispatch/completion can never skew.
    ``t_mark`` is the chunk's current span start for tracing: queue
    entry time until dispatch, then service start until completion.
    """

    __slots__ = ("state", "tag", "kind", "offset", "size", "done", "split", "cost", "t_mark")

    def __init__(self, state: "_TenantState", tag: IoTag, kind: OpKind, offset: int,
                 size: int, done: Event, split: Optional["_Split"], t_mark: float):
        self.state = state
        self.tag = tag
        self.kind = kind
        self.offset = offset
        self.size = size
        self.done = done
        self.split = split
        self.cost = 0.0
        self.t_mark = t_mark


class _Split:
    """The slices of one task larger than ``chunk_size`` not yet
    completed, and whether one has failed the task."""

    __slots__ = ("pending", "failed")

    def __init__(self, pending: int):
        self.pending = pending
        self.failed = False


class _TenantState:
    __slots__ = ("tenant_id", "allocation", "deficit", "queue", "usage", "inflight", "after")

    def __init__(self, tenant_id: str):
        self.tenant_id = tenant_id
        self.allocation = 0.0  # provisioned VOP/s
        self.deficit = 0.0  # VOPs left this round (negative = overdraw)
        self.queue: Deque[_Chunk] = deque()
        self.usage = TenantUsage()
        self.inflight = 0
        #: the round-robin cursor after dispatching this tenant: the
        #: index past it in ``_order``
        self.after = 0


class LibraScheduler:
    """DDRR VOP scheduler in front of one SSD.

    Implements the filesystem's ``IoBackend`` protocol (read/write/trim
    with a ``tag``), so the persistence engine's IO is interposed by
    swapping the backend — the moral equivalent of the paper's 30-line
    system-call replacement.
    """

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        cost_model: CostModel,
        config: Optional[SchedulerConfig] = None,
        io_observer: Optional[Callable[[IoTag, OpKind, int, float], None]] = None,
        tracer=None,
    ):
        self.sim = sim
        self.device = device
        self.cost_model = cost_model
        self.config = config or SchedulerConfig()
        #: called as (tag, kind, size, vop_cost) on every completed chunk
        self.io_observer = io_observer
        #: called as (tag, kind, size, vop_cost) when a chunk is charged
        #: at dispatch (the audit's independent view of the deficit pay)
        self.dispatch_observer: Optional[Callable[[IoTag, OpKind, int, float], None]] = None
        #: called as (tag, kind, size, vop_cost) when a chunk's device op
        #: faults (the cost stays charged; see ``_complete``)
        self.fail_observer: Optional[Callable[[IoTag, OpKind, int, float], None]] = None
        #: called as (tag, kind, chunk_size, n_chunks, vops) when an
        #: epoch fast-forward credits completed work in bulk (the
        #: audit's view of analytically accounted charges)
        self.epoch_observer: Optional[Callable[[IoTag, OpKind, int, int, float], None]] = None
        #: per-(kind, task size) chunk breakdown + VOP price, cached for
        #: ``credit_epoch`` (the cost model is immutable per scheduler)
        self._epoch_costs: Dict[Tuple[OpKind, int], List[Tuple[int, int, float]]] = {}
        #: chunk size -> VOP price, one dict per direction, filled from
        #: the (immutable) cost model on first use: ``_dispatch`` pays
        #: one int-keyed lookup per chunk
        self._read_costs: Dict[int, float] = {}
        self._write_costs: Dict[int, float] = {}
        #: optional repro.obs Tracer recording queue-wait/service spans
        self.tracer = tracer
        self._tenants: Dict[str, _TenantState] = {}
        self._order: List[_TenantState] = []
        self._cursor = 0
        self._inflight = 0
        #: chunks queued across all tenants (backlog = queued + inflight)
        self._queued = 0
        #: per-tenant round quanta, aligned with ``_order``; None when a
        #: registration or allocation change invalidated the cache
        self._quanta: Optional[List[float]] = None
        self._slots = device.queue_depth
        self._stopped = False
        self.rounds = 0
        self.forced_rounds = 0
        #: VOPs that one nominal round distributes across tenants
        self._round_vops = cost_model.max_iop * self.config.round_seconds
        self._timeout_proc = sim.process(
            self._timeout_loop(), name="libra.round-timeout"
        )

    def stop(self) -> None:
        """Stop background loops (for multi-trial harnesses).

        Interrupts the round-timeout process so a stopped scheduler
        leaves no live DES process behind and the event queue drains.
        """
        self._stopped = True
        if self._timeout_proc.is_alive:
            self._timeout_proc.interrupt("scheduler stopped")

    # -- tenant management ---------------------------------------------------

    def register_tenant(self, tenant_id: str, allocation: float = 0.0) -> None:
        """Add a tenant with an initial VOP/s allocation."""
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already registered")
        _check_allocation(allocation)
        state = _TenantState(tenant_id)
        state.allocation = allocation
        self._tenants[tenant_id] = state
        self._order.append(state)
        for at, each in enumerate(self._order, 1):
            each.after = at % len(self._order)
        self._quanta = None
        state.deficit = self._quantum(state)

    def set_allocation(self, tenant_id: str, allocation: float) -> None:
        """Update a tenant's provisioned VOP/s (called by the policy)."""
        _check_allocation(allocation)
        self._state(tenant_id).allocation = allocation
        self._quanta = None

    def allocation(self, tenant_id: str) -> float:
        return self._state(tenant_id).allocation

    def usage(self, tenant_id: str) -> TenantUsage:
        """The tenant's cumulative usage counters (live object)."""
        return self._state(tenant_id).usage

    @property
    def tenants(self) -> List[str]:
        return [s.tenant_id for s in self._order]

    @property
    def total_allocation(self) -> float:
        return sum(s.allocation for s in self._order)

    def queued(self, tenant_id: str) -> int:
        """Chunks waiting in the tenant's queue (diagnostics)."""
        return len(self._state(tenant_id).queue)

    @property
    def backlog(self) -> int:
        """Chunks queued or in flight across all tenants.

        The policy uses this as its saturation probe: a shortfall in
        delivered VOPs only signals device degradation when work was
        actually waiting.  Maintained as an O(1) counter: incremented
        per chunk at submission, decremented at completion (a dispatch
        merely moves a chunk from queued to in flight).
        """
        return self._inflight + self._queued

    def _state(self, tenant_id: str) -> _TenantState:
        try:
            return self._tenants[tenant_id]
        except KeyError:
            raise KeyError(
                f"unknown tenant {tenant_id!r}; registered: {list(self._tenants)}"
            ) from None

    # -- IO submission (IoBackend protocol) ------------------------------------

    def read(self, offset: int, size: int, tag: Optional[IoTag] = None, done=None) -> Event:
        """Queue a tenant read; returns its completion event (``done``,
        when the filesystem hands in the join of a multi-op file IO)."""
        return self._submit(OpKind.READ, offset, size, tag, done)

    def write(self, offset: int, size: int, tag: Optional[IoTag] = None, done=None) -> Event:
        """Queue a tenant write; returns its completion event."""
        return self._submit(OpKind.WRITE, offset, size, tag, done)

    def trim_extents(self, extents: List[Tuple[int, int]]) -> None:
        """TRIM passes straight through (metadata-only on the device)."""
        self.device.trim_extents(extents)

    def _submit(self, kind: OpKind, offset: int, size: int, tag: Optional[IoTag],
                done=None) -> Event:
        if tag is None:
            raise ValueError("Libra IO requires an IoTag (tenant attribution)")
        state = self._tenants.get(tag.tenant)
        if state is None:
            state = self._state(tag.tenant)  # raises, naming the tenants
        # Rejected before any VOP is charged: the device would fail the
        # op, and the failure would be booked as a fault.  Offsets and
        # sizes are ints (a float is refused even when integral), and
        # the range check is written so that a NaN fails it.
        capacity = self.device.profile.logical_capacity
        if type(offset) is not int or type(size) is not int or not (
            0 < size and 0 <= offset and offset + size <= capacity
        ):
            raise ValueError(
                f"io [{offset}, {offset + size}) is empty, not given as ints or "
                f"outside the device's {capacity} bytes"
            )
        sim = self.sim
        if done is None:
            done = Event(sim)
        chunk_size = self.config.chunk_size
        now = sim.now
        if size <= chunk_size:
            # The common case (every GET's read, every WAL commit): the
            # task is its own single chunk.
            chunk = _Chunk(state, tag, kind, offset, size, done, None, now)
            if state.deficit > 0 and self._inflight < self._slots:
                # A pump returns only with every slot taken or no tenant
                # eligible (deficit left and a chunk queued; this one's
                # queue is empty, then), so this chunk is the one
                # eligible and the pump's lap would pick exactly it:
                # dispatch it unqueued.  The lap after a dispatch finds
                # nobody eligible, and while this tenant has deficit
                # left it holds the round open.
                self._cursor = state.after
                self._dispatch(state, chunk)
                if self._queued and state.deficit <= 0:
                    self._pump()
                return done
            state.queue.append(chunk)
            self._queued += 1
        else:
            split = _Split(-(-size // chunk_size))
            for pos in range(0, size, chunk_size):
                length = min(chunk_size, size - pos)
                state.queue.append(_Chunk(state, tag, kind, offset + pos, length, done, split, now))
            self._queued += split.pending
        self._pump()
        return done

    # -- epoch fast-forward (bulk analytic accounting) ---------------------------

    def credit_epoch(self, tag: IoTag, kind: OpKind, size: int) -> float:
        """Account one completed task analytically; returns VOPs charged.

        The epoch fast-forward path (:mod:`repro.workload.hybrid`)
        bypasses ``_submit``/``_dispatch``/``_complete`` during quiet
        steady-state epochs and books each task's effects here in one
        call: the same chunk split, the same per-chunk VOP price, and
        the same :class:`TenantUsage` counter increments the
        event-driven path would have produced.  ``epoch_observer``
        receives one ``(tag, kind, chunk_size, n_chunks, vops)`` call
        per distinct chunk size so the audit can reconcile bulk charges
        against an independent re-pricing.

        Valid only while the tenant has no queued or in-flight work —
        deficit counters are deliberately untouched, which is exact for
        a quiet epoch: DDRR is work-conserving, so with empty queues the
        deficit state carries no scheduling information.
        """
        state = self._state(tag.tenant)
        parts = self.epoch_chunk_costs(kind, size)
        usage = state.usage
        observer = self.epoch_observer
        total = 0.0
        is_read = kind == OpKind.READ
        for length, n, cost in parts:
            vops = cost * n
            total += vops
            usage.ops += n
            usage.bytes += length * n
            if is_read:
                usage.read_ops += n
            else:
                usage.write_ops += n
            usage.vops += vops
            if observer is not None:
                observer(tag, kind, length, n, vops)
        usage.tasks += 1
        return total

    def epoch_chunk_costs(self, kind: OpKind, size: int) -> List[Tuple[int, int, float]]:
        """The exact chunk split + per-chunk VOP price for one task.

        ``[(chunk_length, count, vop_cost), ...]`` — the same split
        ``_submit`` produces and the same price ``_dispatch`` charges,
        cached per (kind, task size).  Shared by :meth:`credit_epoch`
        and :meth:`task_vops` so bulk accounting and demand estimates
        can never price a chunk differently from the event-driven
        dispatcher.
        """
        key = (kind, size)
        parts = self._epoch_costs.get(key)
        if parts is None:
            chunk_size = self.config.chunk_size
            split: List[List[int]] = []
            pos = 0
            while pos < size:
                length = min(chunk_size, size - pos)
                pos += length
                if split and split[-1][0] == length:
                    split[-1][1] += 1
                else:
                    split.append([length, 1])
            parts = [
                (length, n, self.cost_model.cost(kind, length))
                for length, n in split
            ]
            self._epoch_costs[key] = parts
        return parts

    def task_vops(self, kind: OpKind, size: int) -> float:
        """VOPs one task of ``size`` bytes is charged, summed chunk by
        chunk in dispatch order — not ``n * cost``: the sum feeds
        eligibility thresholds and allocations that must not move by a
        rounding step."""
        total = 0.0
        for _length, n, cost in self.epoch_chunk_costs(kind, size):
            for _ in range(n):
                total += cost
        return total

    def round_quanta(self) -> Tuple[List[str], List[float]]:
        """The DDRR round schedule: tenants in round-robin (registration)
        order and the VOP quantum each is granted per round.  With
        stationary inputs the dispatcher is periodic, so this describes
        every round of a fluid fast-forward epoch."""
        quanta = self._quanta
        if quanta is None:
            quanta = self._refresh_quanta()
        return [s.tenant_id for s in self._order], list(quanta)

    # -- scheduling core -----------------------------------------------------------

    def _refresh_quanta(self) -> List[float]:
        """Recompute every tenant's per-round VOP quantum (∝ allocation
        share) and cache the list.

        The best-effort floor (mean positive allocation × fraction) and
        the weight total are computed once per refresh instead of per
        tenant per round; ``register_tenant``/``set_allocation`` are the
        only mutation points and both invalidate the cache.
        """
        positive = [s.allocation for s in self._order if s.allocation > 0]
        floor = (
            (sum(positive) / len(positive)) * BEST_EFFORT_FRACTION
            if positive
            else 1.0
        )
        weights = [max(s.allocation, floor) for s in self._order]
        total = sum(weights)
        round_vops = self._round_vops
        self._quanta = [round_vops * weight / total for weight in weights]
        return self._quanta

    def _quantum(self, state: _TenantState) -> float:
        """This tenant's per-round VOP quantum (cached)."""
        quanta = self._quanta
        if quanta is None:
            quanta = self._refresh_quanta()
        return quanta[self._order.index(state)]

    def _new_round(self, forced: bool = False) -> None:
        self.rounds += 1
        if forced:
            self.forced_rounds += 1
        quanta = self._quanta
        if quanta is None:
            quanta = self._refresh_quanta()
        for state, quantum in zip(self._order, quanta):
            state.deficit = min(state.deficit + quantum, quantum * BURST_ROUNDS)

    def _timeout_loop(self):
        """Advance rounds stuck behind very slow tenants (bounded delay)."""
        timeout = self.config.round_seconds * self.config.timeout_rounds
        last_round = -1
        try:
            while not self._stopped:
                yield self.sim.timeout(timeout)
                if self.rounds == last_round and self._queued:
                    self._new_round(forced=True)
                    self._pump()
                last_round = self.rounds
        except Interrupt:
            return

    def _pump(self) -> None:
        """Dispatch chunks while device slots and eligible work remain.

        One lap over the tenants from the round-robin cursor answers
        both DDRR questions.  The first tenant with remaining deficit
        and a queued chunk is dispatched (and the cursor moves past it);
        a tenant with remaining deficit whose work is all in flight
        keeps the round *open* — it can still spend the deficit, so
        exhausted tenants must wait for it.  A lap that dispatches
        nothing either returns (round open) or starts the next round and
        laps again.

        Without a queued chunk nobody is eligible and no round may
        start, whatever the lap would find, so it is not made; and
        ``_submit``/``_complete`` skip the call where the lap could not
        act.
        """
        order = self._order
        n = len(order)
        while self._queued and self._inflight < self._slots:
            at = self._cursor
            round_open = False
            for _ in order:
                state = order[at]
                at = (at + 1) % n
                if state.deficit > 0:
                    if state.queue:
                        self._cursor = at
                        self._queued -= 1
                        self._dispatch(state, state.queue.popleft())
                        break
                    if state.inflight:
                        round_open = True
            else:
                if round_open:
                    return  # blocked tenants must wait for the round
                self._new_round()

    def _dispatch(self, state: _TenantState, chunk: _Chunk) -> None:
        """Charge a chunk taken off the queue (or never queued) and hand
        it to the device."""
        size = chunk.size
        kind = chunk.kind
        is_read = kind is _READ
        costs = self._read_costs if is_read else self._write_costs
        cost = costs.get(size)
        if cost is None:
            cost = costs[size] = self.cost_model.cost(kind, size)
        chunk.cost = cost
        state.deficit -= cost
        state.usage.vops += cost
        state.inflight += 1
        self._inflight += 1
        tag = chunk.tag
        if self.dispatch_observer is not None:
            self.dispatch_observer(tag, kind, size, cost)
        # ctx rides along to the device: trace id for span attribution
        # and tenant identity for NVMe per-submitter queue mapping.  It
        # never influences SATA-device timing, so always passing it is
        # free of behavior change there.
        ctx = (tag.trace, tag.tenant)
        tr = self.tracer
        if tr is not None:
            now = self.sim.now
            tr.span(
                "queue", "sched", "libra", tag.tenant,
                chunk.t_mark, now, trace=tag.trace,
            )
            chunk.t_mark = now  # service span starts here
        # Slim dispatch: the device invokes ``_complete(chunk, result)``
        # directly from the op's one scheduled finish action (no Event,
        # no Process, no per-chunk partial).
        self.device.submit(is_read, chunk.offset, size, ctx, self._complete, chunk)

    def _complete(self, chunk: _Chunk, event) -> None:
        state = chunk.state
        self._inflight -= 1
        state.inflight -= 1
        usage = state.usage
        tag = chunk.tag
        kind = chunk.kind
        tr = self.tracer
        if tr is not None:
            tr.span(
                "service", "sched", "libra", tag.tenant,
                chunk.t_mark, self.sim.now, trace=tag.trace,
                args={
                    "kind": kind.value,
                    "bytes": chunk.size,
                    "vops": chunk.cost,
                    "ok": event.ok,
                },
            )
        done = chunk.done
        split = chunk.split
        if split is not None:
            split.pending -= 1
        if event.ok:
            usage.ops += 1
            usage.bytes += chunk.size
            if kind is _READ:
                usage.read_ops += 1
            else:
                usage.write_ops += 1
            if self.io_observer is not None:
                # Report the cost captured at dispatch — no second
                # cost-model evaluation, and observer charges can never
                # skew from what the deficit counter actually paid.
                self.io_observer(tag, kind, chunk.size, chunk.cost)
            if split is None or not (split.pending or split.failed):
                usage.tasks += 1
                done.succeed()
        else:
            # Device fault: the chunk's VOP cost stays charged (the op
            # consumed device time), and the whole task fails on its
            # first failing chunk so the submitter can retry.
            usage.failed_ops += 1
            if self.fail_observer is not None:
                self.fail_observer(tag, kind, chunk.size, chunk.cost)
            if split is None:
                done.fail(event.value)
            elif not split.failed:
                split.failed = True
                done.fail(event.value)
        # With a chunk queued and a slot free, some tenant holds the round
        # open (every pump and lane leaves it so).  The lap can act only
        # if no slot was free before this completion, or if this tenant
        # may have been that holder and has just emptied its slots.
        if self._queued and (
            self._inflight + 1 >= self._slots or (state.deficit > 0 and not state.inflight)
        ):
            self._pump()
