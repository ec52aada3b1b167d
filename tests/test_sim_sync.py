"""Unit tests for the simulated counting semaphore.

A one-permit semaphore is the mutex the device's queues rely on: the
``test_mutex_*`` cases pin mutual exclusion and FIFO hand-over.
"""

import pytest

from repro.sim import Semaphore, SimulationError, Simulator


# ---------------------------------------------------------------------------
# One permit: a mutex
# ---------------------------------------------------------------------------

def test_mutex_mutual_exclusion():
    sim = Simulator()
    mutex = Semaphore(sim, value=1)
    trace = []

    def worker(tag, hold):
        yield mutex.acquire()
        trace.append(("enter", tag, sim.now))
        yield sim.timeout(hold)
        trace.append(("exit", tag, sim.now))
        mutex.release()

    sim.process(worker("a", 3.0))
    sim.process(worker("b", 1.0))
    sim.run()
    assert trace == [
        ("enter", "a", 0.0),
        ("exit", "a", 3.0),
        ("enter", "b", 3.0),
        ("exit", "b", 4.0),
    ]


def test_mutex_fifo_order():
    sim = Simulator()
    mutex = Semaphore(sim, value=1)
    order = []

    def worker(tag):
        yield mutex.acquire()
        order.append(tag)
        yield sim.timeout(1.0)
        mutex.release()

    for tag in range(5):
        sim.process(worker(tag))
    sim.run()
    assert order == list(range(5))


# ---------------------------------------------------------------------------
# Semaphore
# ---------------------------------------------------------------------------

def test_semaphore_bounds_concurrency():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    active = {"n": 0, "max": 0}

    def worker():
        yield sem.acquire()
        active["n"] += 1
        active["max"] = max(active["max"], active["n"])
        yield sim.timeout(1.0)
        active["n"] -= 1
        sem.release()

    for _ in range(10):
        sim.process(worker())
    sim.run()
    assert active["max"] == 2
    assert sem.value == 2


def test_semaphore_try_acquire():
    sim = Simulator()
    sem = Semaphore(sim, value=1)
    assert sem.try_acquire() is True
    assert sem.try_acquire() is False
    sem.release()
    assert sem.try_acquire() is True


def test_semaphore_release_multiple():
    sim = Simulator()
    sem = Semaphore(sim, value=0)
    woke = []

    def worker(tag):
        yield sem.acquire()
        woke.append(tag)

    for tag in range(3):
        sim.process(worker(tag))

    def releaser():
        yield sim.timeout(1.0)
        sem.release(count=3)

    sim.process(releaser())
    sim.run()
    assert woke == [0, 1, 2]


def test_semaphore_invalid_init():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Semaphore(sim, value=-1)


def test_semaphore_release_count_must_be_positive():
    sim = Simulator()
    sem = Semaphore(sim, value=1)
    for count in (0, -1):
        with pytest.raises(SimulationError):
            sem.release(count=count)
    assert sem.value == 1


def test_semaphore_acquire_of_a_free_permit_triggers_at_once():
    sim = Simulator()
    sem = Semaphore(sim, value=2)
    ev = sem.acquire()
    assert ev.triggered
    assert (sem.value, sem.waiting) == (1, 0)


def test_semaphore_release_hands_the_permit_to_a_waiter():
    # A release with a waiter hands its permit over instead of counting
    # it, so ``value > 0`` never coexists with a parked acquire.
    sim = Simulator()
    sem = Semaphore(sim, value=1)
    assert sem.acquire().triggered
    parked = [sem.acquire(), sem.acquire()]
    assert (sem.value, sem.waiting) == (0, 2)
    assert not any(ev.triggered for ev in parked)
    sem.release()
    assert parked[0].triggered and not parked[1].triggered
    assert (sem.value, sem.waiting) == (0, 1)
    sem.release(count=2)
    assert parked[1].triggered
    assert (sem.value, sem.waiting) == (1, 0)
