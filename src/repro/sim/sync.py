"""A counting semaphore on simulated time.

Acquiring a permit that is not free suspends the calling process until
a holder releases one, in simulated time.  Waiters are served FIFO, so
the order is deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from .core import Event, Simulator, SimulationError

__all__ = ["Semaphore"]


class Semaphore:
    """A counting semaphore with FIFO waiters.

    Models the device's bounded queues: the SATA NCQ slots and the NVMe
    submission queues.  ``value`` (free permits) and ``waiters`` (the
    FIFO of parked acquires) are plain attributes so a hot caller can
    take or return a permit inline; ``value > 0`` implies no waiter,
    because a release with a waiter hands the permit over instead of
    counting it.
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
