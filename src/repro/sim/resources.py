"""Queues and stores for inter-process pipelines.

The storage-node stack is a pipeline of DES processes (protocol layer →
engine workers → Libra scheduler threads → device).  These stores carry
requests between stages with optional capacity limits and FIFO
discipline.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Event, Simulator, SimulationError

__all__ = ["Store"]


class Store:
    """A FIFO buffer with optional bounded capacity.

    ``put(item)`` returns an event that triggers once the item has been
    accepted (immediately if there is room).  ``get()`` returns an event
    that triggers with the oldest item once one is available.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = "store"):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store {name} capacity {capacity} < 1")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Offer an item; the returned event triggers on acceptance."""
        ev = self.sim.event()
        if self._getters:
            # Hand off directly to the oldest waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; False if the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            return True
        return False

    def get(self) -> Event:
        """Take the oldest item; the returned event carries it."""
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            ev.succeed(item)
            self._admit_putter()
        else:
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple:
        """Non-blocking get; returns (ok, item)."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek(self) -> Any:
        """Look at the oldest item without removing it (None if empty)."""
        return self._items[0] if self._items else None

    def _admit_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            ev, item = self._putters.popleft()
            self._items.append(item)
            ev.succeed()
