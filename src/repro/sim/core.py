"""Discrete-event simulation kernel.

Everything in this reproduction runs in *simulated* time: the SSD device
model, the LSM engine's background FLUSH/COMPACT processes, and the Libra
scheduler itself.  The paper's user-space C library multiplexes tenant IO
tasks with coroutines; this kernel plays the same role using Python
generators as processes.  A process is a generator that yields
:class:`Event` objects and is resumed when the yielded event triggers.

The kernel is deterministic: events scheduled for the same timestamp fire
in schedule order (a monotonically increasing sequence number breaks
ties), so a given seed always produces the same trajectory.

Example
-------
>>> sim = Simulator()
>>> def hello(sim, log):
...     yield sim.timeout(5.0)
...     log.append(sim.now)
>>> log = []
>>> _ = sim.process(hello(sim, log))
>>> sim.run()
>>> log
[5.0]
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "Simulator",
    "DeadlineQueue",
    "SimulationError",
    "OK_RESULT",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (e.g. triggering an event twice)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The interrupting party supplies ``cause``, which the interrupted
    process can inspect to decide how to clean up.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def _dispatch_event(event: "Event") -> None:
    """Run a triggered event's callbacks (the heap's dispatch action).

    Module-level (not a method) so trigger sites can push it into the
    heap without a per-call attribute lookup.
    """
    callbacks = event.callbacks
    event.callbacks = None
    if callbacks:
        for callback in callbacks:
            callback(event)


class Event:
    """A one-shot occurrence in simulated time.

    Events start untriggered.  Calling :meth:`succeed` or :meth:`fail`
    triggers them, after which their callbacks run (in the simulator
    loop, at the current simulated time).  Yielding an event from a
    process suspends that process until the event triggers.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        """True once the event has been succeeded or failed."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or exception, if it failed)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional payload."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq, _dispatch_event, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Processes waiting on the event will have the exception thrown
        into them at their yield point.
        """
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq, _dispatch_event, self))
        return self

    def __repr__(self) -> str:
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # One Timeout is created per simulated wait, so the base
        # constructor and scheduling call are inlined here.  Written so
        # that a NaN fails the check: it would break the heap's order.
        if not delay >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self.delay = delay
        sim._seq += 1
        heappush(sim._heap, (sim.now + delay, sim._seq, _dispatch_event, self))


class _InitialResume:
    """Shared stand-in for the event that kicks off a new process.

    ``Process._resume`` only reads ``_ok`` and ``_value`` from the event
    it is resumed with, so one immutable instance serves every process
    start (and every interrupt carries its own payload in a dedicated
    slot) — no throwaway :class:`Event` per spawned process.
    """

    __slots__ = ()
    _ok = True
    _value = None


_START = _InitialResume()


class _InterruptResume:
    """Failure payload carrier used to resume an interrupted process."""

    __slots__ = ("_value",)
    _ok = False

    def __init__(self, value: Interrupt):
        self._value = value


class _OkResult:
    """Shared stand-in for a successful completion with no payload.

    Completion consumers only read ``ok`` and ``value`` (plus the
    ``triggered``/``processed`` flags), so one immutable instance serves
    every fast-path completion — no throwaway :class:`Event` per IO.
    """

    __slots__ = ()
    ok = True
    value = None
    triggered = True
    processed = True


#: the one reusable "it worked" completion (see :class:`_OkResult`)
OK_RESULT = _OkResult()


class Process(Event):
    """A running generator, driven by the events it yields.

    The process is itself an event: it triggers when the generator
    returns (succeeding with the return value) or raises (failing with
    the exception).  This is what makes ``result = yield sim.process(...)``
    and process joining work.
    """

    __slots__ = ("_generator", "_waiting_on", "name")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        self.sim = sim
        self.callbacks = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Kick off the process at the current time.
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq, self._resume, _START))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        A finished process cannot be interrupted; doing so raises
        :class:`SimulationError` to surface the race to the caller.
        """
        if self._triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        waiting = self._waiting_on
        if waiting is not None and not waiting.processed:
            # Detach from the event we were waiting on so its eventual
            # trigger does not resume us a second time.
            if waiting.callbacks is not None and self._resume in waiting.callbacks:
                waiting.callbacks.remove(self._resume)
        self._waiting_on = None
        self.sim._schedule_call(self._resume, _InterruptResume(Interrupt(cause)))

    # -- internals ---------------------------------------------------------

    def _resume(self, event) -> None:
        if self._triggered:  # interrupted after completion race; drop
            return
        send = self._generator.send
        throw = self._generator.throw
        while True:
            self._waiting_on = None
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    target = throw(event._value)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody is waiting: finish processed, in place,
                    # rather than queue a dispatch of no callbacks.
                    self._triggered = True
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:  # noqa: BLE001 - process died
                self.fail(exc)
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}, expected an Event"
                )
                try:
                    throw(exc)
                except BaseException as err:  # noqa: BLE001
                    self.fail(err)
                return
            if target.callbacks is not None:
                # Pending (or triggered but not yet dispatched): park on
                # the event's callback list and wait for the loop.
                self._waiting_on = target
                target.callbacks.append(self._resume)
                return
            # Fast path: the yielded event is already processed, so its
            # value is final — resume directly instead of taking a heap
            # round-trip through the event queue.
            event = target


class _MultiEvent(Event):
    """Base for AnyOf/AllOf composition events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            if ev.processed:
                self.sim._schedule_call(self._check, ev)
                self._pending += 1
            elif ev.callbacks is not None:
                ev.callbacks.append(self._check)
                self._pending += 1
            else:  # pragma: no cover - defensive
                self.sim._schedule_call(self._check, ev)
                self._pending += 1

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AnyOf(_MultiEvent):
    """Triggers when any member event triggers.

    Succeeds with a dict mapping the triggered events to their values.
    Fails if the first member to trigger failed.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        # Use .processed, not .triggered: a pending Timeout counts as
        # triggered from creation, but only fires once its callbacks run.
        self.succeed({ev: ev.value for ev in self.events if ev.processed and ev.ok})


class AllOf(_MultiEvent):
    """Triggers when every member event has triggered.

    Succeeds with a dict mapping all events to their values; fails as
    soon as any member fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed({ev: ev.value for ev in self.events})


class Simulator:
    """The event loop: a priority queue of (time, sequence, action).

    All simulated components share one :class:`Simulator`.  Time is a
    float in seconds.  ``run(until=...)`` executes events in timestamp
    order until the queue empties or the horizon is reached.
    """

    def __init__(self):
        self.now: float = 0.0
        self._heap: list = []
        self._seq = 0

    # -- public API --------------------------------------------------------

    def event(self) -> Event:
        """Create an untriggered event bound to this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have."""
        return AllOf(self, events)

    def call_at(self, at: float, fn: Callable, arg: Any) -> None:
        """Queue ``fn(arg)`` at absolute simulated time ``at``.

        The one-shot completion primitive behind the device's
        zero-coroutine IO fast path: a submitter that can compute its
        finish time analytically schedules a single callback instead of
        parking a generator on a :class:`Timeout`.  ``at`` must not be
        in the past — completions are computed from ``max(now, ...)``
        reservation timestamps, so an earlier time is always a bug.  A
        NaN time is rejected too: it would break the heap's order.
        """
        if not at >= self.now:
            raise SimulationError(f"call_at({at}) is before now ({self.now})")
        self._seq += 1
        heappush(self._heap, (at, self._seq, fn, arg))

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in order until the horizon (or queue drain).

        When ``until`` is given, time is advanced exactly to ``until``
        even if the last event fires earlier, so back-to-back ``run``
        calls observe a continuous clock.  A NaN ``until`` raises
        :class:`SimulationError`: no event would ever pass it.
        """
        heap = self._heap
        pop = heapq.heappop
        if until is not None and until != until:  # NaN
            raise SimulationError("run(until=nan)")
        if until is None:
            while heap:
                at, _seq, fn, arg = pop(heap)
                self.now = at
                fn(arg)
            return
        while heap:
            item = pop(heap)
            if item[0] > until:
                # Sole over-horizon pop per run(): put the action back
                # (it is still the minimum) and stop.
                heapq.heappush(heap, item)
                break
            self.now = item[0]
            item[2](item[3])
        if until > self.now:
            self.now = until

    def step(self) -> bool:
        """Execute a single queued action. Returns False when empty."""
        if not self._heap:
            return False
        at, _seq, fn, arg = heapq.heappop(self._heap)
        self.now = at
        fn(arg)
        return True

    def step_while(
        self, predicate: Callable[[], bool], until: Optional[float] = None
    ) -> int:
        """Step queued actions while ``predicate()`` holds; returns steps.

        Drains exactly as much of the queue as a condition needs — e.g.
        "run until the scheduler backlog and device in-flight count hit
        zero" — without committing to a wall of simulated time the way
        ``run(until=now + slack)`` does.  Stops when the predicate goes
        false or the queue empties, whichever is first.  ``until``
        bounds the drain: an action scheduled past it is left queued
        (the clock never advances beyond ``until``), which is what the
        fluid fast-forward handover uses so a drain-to-quiet can never
        overrun its granted epoch edge.  A NaN ``until`` raises
        :class:`SimulationError`.
        """
        if until is not None and until != until:  # NaN
            raise SimulationError("step_while(until=nan)")
        steps = 0
        heap = self._heap
        pop = heapq.heappop
        while heap and predicate():
            if until is not None and heap[0][0] > until:
                break
            at, _seq, fn, arg = pop(heap)
            self.now = at
            fn(arg)
            steps += 1
        return steps

    @property
    def queue_size(self) -> int:
        """Number of pending queued actions (diagnostics only)."""
        return len(self._heap)

    # -- internals ---------------------------------------------------------

    def _schedule_call(self, fn: Callable, arg: Any, delay: float = 0.0) -> None:
        """Queue an arbitrary callable (used to resume processes)."""
        if not delay >= 0:
            raise SimulationError(f"call delay must be >= 0, got {delay}")
        self._seq += 1
        heappush(self._heap, (self.now + delay, self._seq, fn, arg))


class DeadlineQueue:
    """FIFO deadlines behind a single armed kernel action.

    A budget that is one constant per owner (an endpoint's RPC timeout)
    yields non-decreasing deadlines, so a deque and one
    :meth:`Simulator.call_at` armed for its head replace a
    :class:`Timeout` per waiter: one heap entry per queue, and none for
    a waiter answered in time.  ``live(token)`` says whether a waiter
    still waits; ``expire(token)`` runs for a live one at its deadline.
    """

    __slots__ = ("sim", "_live", "_expire", "_entries")

    def __init__(self, sim: Simulator, live: Callable[[Any], bool],
                 expire: Callable[[Any], None]):
        self.sim = sim
        self._live = live
        self._expire = expire
        self._entries: deque = deque()  # (deadline, token); armed iff non-empty

    def add(self, deadline: float, token: Any) -> None:
        """Watch ``token`` until ``deadline`` (absolute simulated time)."""
        entries = self._entries
        if not entries:
            self.sim.call_at(deadline, self._fire, None)
        elif deadline < entries[-1][0]:
            raise SimulationError(f"deadline {deadline} precedes {entries[-1][0]}")
        entries.append((deadline, token))

    def _fire(self, _arg) -> None:
        """Expire what is due, drop the answered, re-arm or disarm."""
        entries = self._entries
        while entries:
            deadline, token = entries[0]
            if self._live(token):
                if deadline > self.sim.now:
                    self.sim.call_at(deadline, self._fire, None)
                    return
                self._expire(token)
            # Popped last, so an ``add`` from ``expire`` finds it armed.
            entries.popleft()
