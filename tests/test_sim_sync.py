"""Unit tests for the device's queue-slot admission.

An op takes a slot of its host queue when it is admitted and gives it
back in its finish action, which hands it straight to the queue's first
waiter.  A one-slot queue is a mutex: the ``test_mutex_*`` cases pin
mutual exclusion and FIFO hand-over.  The ``test_semaphore_*`` cases pin
the counting side: the depth bound, non-blocking submission, hand-over
without counting the slot free, and the profile's refusal of a queue
with no slots.
"""

import pytest

from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.sim import Simulator
from repro.ssd import NvmeDevice, SsdDevice, SsdProfile

from .helpers import queue_state, run_alone

KIB = 1024
MIB = 1024 * KIB


def tiny_profile(**overrides):
    fields = dict(
        name="tiny", channels=4, logical_capacity=16 * MIB, overprovision=1.0,
    )
    fields.update(overrides)
    return SsdProfile(**fields)


def device(depth, fault_plan=None):
    sim = Simulator()
    dev = SsdDevice(sim, tiny_profile(queue_depth=depth), seed=1, precondition=False,
                    fault_plan=fault_plan)
    return sim, dev


def latencies(depth, ops):
    """Each op's service time on an idle twin device, in order."""
    _sim, twin = device(depth)
    return [run_alone(twin, True, offset, size) for offset, size in ops]


def submit_all(sim, dev, ops, log):
    for i, (offset, size) in enumerate(ops):
        dev.submit(True, offset, size, None,
                   lambda i, result: log.append((i, sim.now, result.ok)), i)


# ---------------------------------------------------------------------------
# One slot: a mutex
# ---------------------------------------------------------------------------

def test_mutex_mutual_exclusion():
    # A long read and a short one on one channel: the short one waits
    # for the slot, then runs alone from the long one's finish.
    ops = [(0, 64 * KIB), (16 * 4 * KIB, 4 * KIB)]
    sim, dev = device(1)
    log = []
    submit_all(sim, dev, ops, log)
    assert dev.in_flight == 1
    sim.run()
    first, second = latencies(1, ops)
    assert [(i, ok) for i, _at, ok in log] == [(0, True), (1, True)]
    assert log[0][1] == first
    assert log[1][1] == pytest.approx(first + second, rel=1e-12)
    assert dev.in_flight == 0


def test_mutex_fifo_order():
    ops = [((5 - k) * 4 * KIB, (k + 1) * 4 * KIB) for k in range(5)]
    sim, dev = device(1)
    log = []
    submit_all(sim, dev, ops, log)
    sim.run()
    assert [i for i, _at, _ok in log] == list(range(5))
    expected = 0.0
    for (_i, at, _ok), latency in zip(log, latencies(1, ops)):
        expected += latency
        assert at == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Several slots
# ---------------------------------------------------------------------------

def test_semaphore_bounds_concurrency():
    sim, dev = device(2)
    seen = []
    for k in range(10):
        dev.submit(True, k * 4 * KIB, 16 * KIB, None,
                   lambda _arg, _result: seen.append(dev.in_flight), None)
        seen.append(dev.in_flight)
    sim.run()
    assert max(seen) == 2 and len(seen) == 20
    assert dev.stats.reads == 10
    assert queue_state(dev) == {"occupied": [0], "slot_wait": [0], "tag_wait": [0]}


def test_semaphore_try_acquire():
    # ``submit`` never blocks its caller: with a slot free the op is
    # planned at once, without one it is queued and planned later.
    sim, dev = device(1)
    assert dev.submit(True, 0, 4 * KIB, None, lambda *_: None, None) is None
    busy = dev.stats.controller_busy
    assert busy > 0 and dev.in_flight == 1
    assert dev.submit(True, 4 * KIB, 4 * KIB, None, lambda *_: None, None) is None
    assert dev.stats.controller_busy == busy and queue_state(dev)["slot_wait"] == [1]
    sim.run()
    assert dev.stats.controller_busy == 2 * busy and dev.in_flight == 0


def test_semaphore_release_multiple():
    # A stall window's end admits every op it held, in submission order.
    plan = FaultPlan([FaultWindow(FaultKind.STALL, 0.0, 0.01)])
    ops = [(k * 4 * KIB, 4 * KIB) for k in range(3)]
    sim, dev = device(4, fault_plan=plan)
    admitted = []
    plan_op = dev._plan
    dev._plan = lambda *args: (admitted.append((args[1], sim.now)), plan_op(*args))[1]
    log = []
    submit_all(sim, dev, ops, log)
    assert dev.in_flight == 3 and admitted == []
    sim.run()
    assert admitted == [(offset, 0.01) for offset, _size in ops]
    assert [i for i, _at, _ok in log] == [0, 1, 2]
    assert dev.stats.stall_seconds == pytest.approx(0.03)


def test_semaphore_invalid_init():
    for depth in (-1, 0, 2.5, True):
        with pytest.raises(ValueError, match="queue_depth"):
            tiny_profile(queue_depth=depth)


def test_semaphore_release_count_must_be_positive():
    # The NVMe command-tag pool: 0 picks the default of twice the depth,
    # a negative count is refused.
    with pytest.raises(ValueError, match="core_tags"):
        tiny_profile(num_queues=2, core_tags=-1)
    dev = NvmeDevice(Simulator(), tiny_profile(num_queues=2, queue_depth=4),
                     seed=1, precondition=False)
    assert dev._free_tags == 8


def test_semaphore_acquire_of_a_free_permit_triggers_at_once():
    sim, dev = device(2)
    done = dev.read(0, 4 * KIB)
    assert (dev.in_flight, queue_state(dev)["occupied"]) == (1, [1])
    assert dev.stats.controller_busy > 0  # planned and reserved at submit
    assert sim.queue_size == 1  # its one finish action
    sim.run()
    assert done.processed and done.ok


def test_semaphore_release_hands_the_permit_to_a_waiter():
    # A finish with a waiter hands its slot over instead of counting it,
    # so a free slot never coexists with a queued op.
    sim, dev = device(1)
    events = [dev.read(k * 4 * KIB, 4 * KIB) for k in range(3)]
    assert queue_state(dev) == {"occupied": [1], "slot_wait": [2], "tag_wait": [0]}
    sim.step()  # the first op's finish: the second is admitted in it
    assert events[0].triggered and not events[1].triggered
    assert queue_state(dev) == {"occupied": [1], "slot_wait": [1], "tag_wait": [0]}
    assert dev.in_flight == 1
    sim.run()
    assert all(event.ok for event in events)
    assert queue_state(dev) == {"occupied": [0], "slot_wait": [0], "tag_wait": [0]}
