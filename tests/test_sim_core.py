"""Unit tests for the discrete-event simulation kernel."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .helpers import queue_counter
from repro.sim import Interrupt, SimulationError, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(3.0)
        seen.append(sim.now)
        yield sim.timeout(2.0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [3.0, 5.0]


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(0.0)
        order.append(tag)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert order == ["a", "b"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "schedule",
    [
        lambda sim: sim.call_at(NAN, print, "nan"),
        lambda sim: sim.timeout(NAN),
        lambda sim: sim.run(until=NAN),
    ],
    ids=["call_at", "timeout", "run_until"],
)
def test_nan_times_are_rejected(schedule):
    """A NaN time compares false with everything: queued, it ran before
    actions at 0.5, 1 and 2 (the heap's order broken); as ``until`` it
    let a periodic process run forever.  Each entry raises instead, and
    leaves the queue as it was."""
    sim = Simulator()
    order = []
    for at in (2.0, 0.5, 1.0):
        sim.call_at(at, order.append, at)

    def ticker():
        while True:
            yield sim.timeout(0.25)

    sim.process(ticker())
    with pytest.raises(SimulationError):
        schedule(sim)
    sim.run(until=3.0)
    assert order == [0.5, 1.0, 2.0]
    assert sim.now == 3.0


def test_run_until_stops_at_horizon():
    sim = Simulator()
    seen = []

    def proc():
        for _ in range(10):
            yield sim.timeout(1.0)
            seen.append(sim.now)

    sim.process(proc())
    sim.run(until=4.5)
    assert seen == [1.0, 2.0, 3.0, 4.0]
    assert sim.now == 4.5
    sim.run(until=6.0)
    assert seen[-1] == 6.0


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=42.0)
    assert sim.now == 42.0


def test_event_wakes_waiter_with_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append((sim.now, value))

    def trigger():
        yield sim.timeout(7.0)
        ev.succeed("done")

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert got == [(7.0, "done")]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.process(waiter())
    sim.process(trigger())
    sim.run()
    assert caught == ["boom"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_multiple_waiters_on_one_event():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(tag):
        value = yield ev
        got.append((tag, value))

    for tag in "abc":
        sim.process(waiter(tag))

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed(99)

    sim.process(trigger())
    sim.run()
    assert got == [("a", 99), ("b", 99), ("c", 99)]


def test_process_return_value_propagates():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(2.0)
        return 17

    def parent():
        result = yield sim.process(child())
        got.append((sim.now, result))

    sim.process(parent())
    sim.run()
    assert got == [(2.0, 17)]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    def parent():
        try:
            yield sim.process(child())
        except KeyError as exc:
            caught.append(exc.args[0])

    sim.process(parent())
    sim.run()
    assert caught == ["lost"]


def test_joining_finished_process_resumes_immediately():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(1.0)
        return "early"

    def parent(proc):
        yield sim.timeout(5.0)
        result = yield proc
        got.append((sim.now, result))

    proc = sim.process(child())
    sim.process(parent(proc))
    sim.run()
    assert got == [(5.0, "early")]


def test_interrupt_raises_in_target():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def attacker(target):
        yield sim.timeout(3.0)
        target.interrupt("stop it")

    target = sim.process(victim())
    sim.process(attacker(target))
    sim.run()
    assert log == [(3.0, "stop it")]


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            pass
        yield sim.timeout(2.0)
        log.append(sim.now)

    def attacker(target):
        yield sim.timeout(3.0)
        target.interrupt()

    target = sim.process(victim())
    sim.process(attacker(target))
    sim.run()
    assert log == [5.0]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    proc = sim.process(bad())
    sim.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, SimulationError)


def test_any_of_triggers_on_first():
    sim = Simulator()
    got = []

    def proc():
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(2.0, value="fast")
        result = yield sim.any_of([t1, t2])
        got.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert got == [(2.0, ["fast"])]


def test_all_of_waits_for_every_member():
    sim = Simulator()
    got = []

    def proc():
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(2.0, value="fast")
        result = yield sim.all_of([t1, t2])
        got.append((sim.now, sorted(result.values())))

    sim.process(proc())
    sim.run()
    assert got == [(5.0, ["fast", "slow"])]


def test_all_of_empty_triggers_immediately():
    sim = Simulator()
    got = []

    def proc():
        result = yield sim.all_of([])
        got.append((sim.now, result))

    sim.process(proc())
    sim.run()
    assert got == [(0.0, {})]


def test_deterministic_ordering_at_same_timestamp():
    sim = Simulator()
    order = []

    def proc(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)

    # All fire at t=1; creation order must be preserved.
    for tag in range(8):
        sim.process(proc(tag, 1.0))
    sim.run()
    assert order == list(range(8))


def test_step_executes_single_action():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(1.0)
        seen.append("a")
        yield sim.timeout(1.0)
        seen.append("b")

    sim.process(proc())
    while sim.step():
        pass
    assert seen == ["a", "b"]
    assert sim.step() is False


def test_all_of_fails_fast_on_member_failure():
    sim = Simulator()
    caught = []
    ev = sim.event()

    def proc():
        combo = sim.all_of([sim.timeout(5.0), ev])
        try:
            yield combo
        except RuntimeError as exc:
            caught.append((sim.now, str(exc)))

    sim.process(proc())

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("member died"))

    sim.process(trigger())
    sim.run()
    assert caught == [(1.0, "member died")]


def test_any_of_fails_if_first_member_fails():
    sim = Simulator()
    caught = []
    ev = sim.event()

    def proc():
        combo = sim.any_of([sim.timeout(5.0), ev])
        try:
            yield combo
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc())

    def trigger():
        yield sim.timeout(1.0)
        ev.fail(ValueError("first failure wins"))

    sim.process(trigger())
    sim.run()
    assert caught == ["first failure wins"]


def test_process_is_alive_flag():
    sim = Simulator()

    def proc():
        yield sim.timeout(2.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


# ---------------------------------------------------------------------------
# A process nobody awaits finishes without a heap entry
# ---------------------------------------------------------------------------


def test_unawaited_process_finishes_without_a_heap_entry():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return 17

    proc = sim.process(child())
    sim.run(until=0.5)
    assert sim.queue_size == 1  # the child's timeout
    queued = queue_counter(sim)
    sim.run(until=1.0)
    # The return queued nothing: no dispatch of an empty callback list.
    assert (queued(), sim.queue_size) == ((0, 0), 0)
    assert proc.triggered and proc.processed and proc.ok
    assert not proc.is_alive
    assert proc.value == 17
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_yield_on_unawaited_finished_process_still_returns_its_value():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(1.0)
        return "early"

    def late_joiner(proc):
        yield sim.timeout(1.0)  # same instant the child returns, queued later
        for _again in range(2):
            value = yield proc
            got.append((sim.now, value))

    proc = sim.process(child())
    sim.process(late_joiner(proc))
    sim.run()
    assert got == [(1.0, "early"), (1.0, "early")]


def test_awaited_process_still_dispatches_to_every_waiter():
    sim = Simulator()
    order = []

    def child():
        yield sim.timeout(1.0)
        return 5

    def waiter(tag, proc):
        value = yield proc
        order.append((tag, sim.now, value))

    proc = sim.process(child())
    sim.process(waiter("a", proc))
    sim.process(waiter("b", proc))
    seen = []
    proc.callbacks.append(lambda ev: seen.append((ev.ok, ev.value)))
    sim.run(until=0.5)
    queued = queue_counter(sim)
    sim.run()
    # One dispatch for the finished process, none for the two waiters
    # (nobody awaits them).
    assert queued() == (0, 1)
    assert order == [("a", 1.0, 5), ("b", 1.0, 5)]
    assert seen == [(True, 5)]
    assert proc.processed


def test_unawaited_failing_process_still_takes_the_dispatch_path():
    sim = Simulator()
    caught = []

    def child():
        yield sim.timeout(1.0)
        raise KeyError("lost")

    def late_joiner(proc):
        yield sim.timeout(3.0)
        try:
            yield proc
        except KeyError as exc:
            caught.append((sim.now, exc.args[0]))

    proc = sim.process(child())
    sim.process(late_joiner(proc))
    sim.run(until=0.5)
    queued = queue_counter(sim)
    sim.run(until=2.0)
    assert queued() == (0, 1)  # fail() is left as it was
    assert proc.triggered and proc.processed and not proc.ok
    sim.run()
    assert caught == [(3.0, "lost")]


def test_any_of_and_all_of_over_finished_unawaited_processes_fire():
    sim = Simulator()
    got = {}

    def child(value):
        yield sim.timeout(1.0)
        return value

    def joiner(first, second):
        yield sim.timeout(2.0)
        assert first.processed and second.processed
        never = sim.event()
        fired = yield sim.any_of([first, never])
        got["any"] = (sim.now, fired)
        both = yield sim.all_of([first, second])
        got["all"] = (sim.now, both)

    first, second = sim.process(child("x")), sim.process(child("y"))
    sim.process(joiner(first, second))
    sim.run()
    assert got["any"] == (2.0, {first: "x"})
    assert got["all"] == (2.0, {first: "x", second: "y"})


def test_step_while_drains_exactly_to_condition():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.call_at(float(i), fired.append, i)
    steps = sim.step_while(lambda: len(fired) < 3)
    assert steps == 3
    assert fired == [0, 1, 2]
    assert sim.queue_size == 2
    assert sim.now == 2.0
    # an empty queue ends the drain even while the predicate holds
    assert sim.step_while(lambda: True) == 2
    assert fired == [0, 1, 2, 3, 4] and sim.queue_size == 0


def test_run_until_before_now_runs_nothing():
    sim = Simulator()
    log = []
    sim.run(until=2.0)
    sim.call_at(2.0, log.append, "now")
    sim.call_at(3.0, log.append, "later")
    sim.run(until=1.0)
    assert (log, sim.now, sim.queue_size) == ([], 2.0, 2)
    sim.run(until=2.0)
    assert (log, sim.now) == (["now"], 2.0)


# ---------------------------------------------------------------------------
# The kernel's order against a single-heap reference
# ---------------------------------------------------------------------------


class _NowOnHeap:
    """The reference's stand-in for the FIFO: an action due now is
    pushed onto the heap like any other, at ``(now, seq)``."""

    def __init__(self, sim):
        self.sim = sim

    def append(self, action):
        sim = self.sim
        sim._seq += 1
        heappush(sim._heap, (sim.now, sim._seq) + action)

    def __len__(self):
        return 0


class HeapKernel(Simulator):
    """The reference kernel: one heap of every action, popped in
    ``(time, seq)`` order.  Events and processes are the kernel's own;
    only the queue differs."""

    def __init__(self):
        super().__init__()
        self._ready = _NowOnHeap(self)

    def call_at(self, at, fn, arg):
        if not at >= self.now:
            raise SimulationError(f"call_at({at}) is before now ({self.now})")
        self._seq += 1
        heappush(self._heap, (at, self._seq, fn, arg))

    def run(self, until=None):
        heap = self._heap
        while heap and (until is None or heap[0][0] <= until):
            self.now, _seq, fn, arg = heappop(heap)
            fn(arg)
        if until is not None and until > self.now:
            self.now = until

    def step_while(self, predicate):
        steps = 0
        while self._heap and predicate():
            self.now, _seq, fn, arg = heappop(self._heap)
            fn(arg)
            steps += 1
        return steps


#: a same-instant child is queued at ``now``; the others later, on a
#: coarse grid so that actions often share an instant
DELAYS = (0.0, 0.0, 0.5, 1.0)
KINDS = ("call", "timeout", "succeed", "fail", "process", "interrupt")

action_trees = st.recursive(
    st.just(()),
    lambda children: st.lists(
        st.tuples(st.sampled_from(DELAYS), st.sampled_from(KINDS), children), max_size=3,
    ).map(tuple),
    max_leaves=40,
)
programs = st.tuples(
    st.lists(st.tuples(st.sampled_from(DELAYS), st.sampled_from(KINDS), action_trees),
             min_size=1, max_size=4),
    # the steps: run(until=now + d) (d < 0 runs nothing), step_while
    # for n more log lines, or step
    st.lists(st.tuples(st.sampled_from(("run", "step_while", "step")),
                       st.sampled_from((-1.0, 0.0, 0.5, 1.0, 2.0))), max_size=6),
)


def run_program(sim, program):
    """Execute a program; returns its log of what ran, when."""
    roots, steps = program
    log = []
    procs = []

    def run(node):
        path, children = node
        log.append((sim.now, path))
        for i, (delay, kind, grandchildren) in enumerate(children):
            spawn(delay, kind, (path + (i,), grandchildren))

    def spawn(delay, kind, child):
        at = sim.now + delay
        if kind == "call":
            sim.call_at(at, run, child)
        elif kind == "timeout":
            sim.timeout(delay).callbacks.append(lambda _ev: run(child))
        elif kind in ("succeed", "fail"):
            event = sim.event()
            event.callbacks.append(lambda ev: (log.append(("ok", ev.ok)), run(child)))
            if kind == "succeed":
                sim.call_at(at, event.succeed, None)
            else:
                sim.call_at(at, event.fail, KeyError(child[0]))
        elif kind == "process":
            procs.append((child[0], sim.process(body(delay, child))))
        else:
            # interrupt the newest live process other than this one's
            for path, proc in reversed(procs):
                if proc.is_alive and path != child[0][:-1]:
                    proc.interrupt(child[0])
                    break
            run(child)

    def body(delay, node):
        try:
            yield sim.timeout(delay)
        except Interrupt as exc:
            log.append(("interrupted", sim.now, node[0], exc.cause))
        run(node)

    for i, (delay, kind, children) in enumerate(roots):
        spawn(delay, kind, ((i,), children))
    for op, arg in steps:
        if op == "run":
            sim.run(until=sim.now + arg)
        elif op == "step":
            log.append(("step", sim.step()))
        else:
            target = len(log) + int(arg * 4)
            log.append(("steps", sim.step_while(lambda: len(log) < target)))
        log.append(("now", sim.now, sim.queue_size))
    sim.run()
    return log


@settings(max_examples=300, deadline=None)
@given(programs)
def test_kernel_runs_every_program_as_a_single_heap_does(program):
    """Random programs give the same execution log (and the same step
    counts, clock and queue sizes between the steps) on the kernel
    and on the single-heap reference."""
    assert run_program(Simulator(), program) == run_program(HeapKernel(), program)
