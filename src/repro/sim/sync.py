"""Synchronization primitives on simulated time.

The paper's user-space library implements coroutine-aware mutexes and
condition variables so that IO tasks blocked on engine-internal locks do
not stall the scheduler (§5).  These are the DES equivalents: acquiring a
held :class:`Mutex` suspends the calling process until the holder
releases it, all in simulated time.

All primitives are FIFO-fair and deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .core import Event, Simulator, SimulationError

__all__ = ["Mutex", "Condition", "Semaphore"]


class Mutex:
    """A FIFO mutual-exclusion lock for simulated processes.

    Usage inside a process::

        yield mutex.acquire()
        try:
            ...critical section...
        finally:
            mutex.release()
    """

    def __init__(self, sim: Simulator, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._locked

    def acquire(self) -> Event:
        """Return an event that triggers once the lock is held."""
        ev = self.sim.event()
        if not self._locked:
            self._locked = True
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release the lock, waking the oldest waiter if any."""
        if not self._locked:
            raise SimulationError(f"release of unlocked {self.name}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._locked = False


class Condition:
    """A condition variable paired with a :class:`Mutex`.

    ``wait()`` atomically releases the mutex and suspends; on wake the
    mutex is re-acquired before the waiter resumes past the yield::

        yield mutex.acquire()
        while not predicate():
            yield cond.wait()
        ...
        mutex.release()
    """

    def __init__(self, sim: Simulator, mutex: Mutex, name: str = "cond"):
        self.sim = sim
        self.mutex = mutex
        self.name = name
        self._waiters: Deque[Event] = deque()

    def wait(self) -> Event:
        """Release the mutex and return an event that triggers on notify
        *and* once the mutex has been re-acquired."""
        if not self.mutex.locked:
            raise SimulationError(f"wait on {self.name} without holding mutex")
        done = self.sim.event()
        signalled = self.sim.event()
        self._waiters.append(signalled)

        def _on_signal(_ev: Event) -> None:
            reacquired = self.mutex.acquire()
            if reacquired.triggered:
                done.succeed()
            else:
                reacquired.callbacks.append(lambda _e: done.succeed())

        signalled.callbacks.append(_on_signal)
        self.mutex.release()
        return done

    def notify(self) -> None:
        """Wake the oldest waiter, if any."""
        if self._waiters:
            self._waiters.popleft().succeed()

    def notify_all(self) -> None:
        """Wake every current waiter."""
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.succeed()


class Semaphore:
    """A counting semaphore with FIFO waiters.

    Used to model bounded resources such as the SSD's NCQ slots and the
    engine's background-work concurrency limits.  ``value`` (free
    permits) and ``waiters`` (the FIFO of parked acquires) are plain
    attributes so a hot caller can take or return a permit inline;
    ``value > 0`` implies no waiter, because a release with a waiter
    hands the permit over instead of counting it.
    """

    def __init__(self, sim: Simulator, value: int, name: str = "sem"):
        if value < 0:
            raise SimulationError(f"semaphore {name} initial value {value} < 0")
        self.sim = sim
        self.name = name
        self.value = value
        self.waiters: Deque[Event] = deque()

    @property
    def waiting(self) -> int:
        """Number of processes queued for a permit."""
        return len(self.waiters)

    def acquire(self) -> Event:
        """Return an event that triggers once a permit is obtained."""
        ev = self.sim.event()
        if self.value > 0:
            self.value -= 1
            ev.succeed()
        else:
            self.waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Non-blocking acquire; True on success."""
        if self.value > 0:
            self.value -= 1
            return True
        return False

    def release(self, count: int = 1) -> None:
        """Return ``count`` permits, waking waiters FIFO."""
        if count < 1:
            raise SimulationError("release count must be >= 1")
        for _ in range(count):
            if self.waiters:
                self.waiters.popleft().succeed()
            else:
                self.value += 1
