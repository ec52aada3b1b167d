"""Write-through object cache (the protocol layer's cache, Figure 1).

GET hits are served from memory without touching the persistence
engine; PUTs update the cache and continue to disk (write-through).
The paper's Fig 10 discussion assumes such a cache upstream, which is
why IO-bound workloads skew PUT-heavy; experiments here run with the
cache disabled unless stated, since Libra provisions *disk* IO.

Fill rule.  Writers update the cache at their acknowledgement
(:meth:`ObjectCache.put` / :meth:`ObjectCache.invalidate`); a GET that
missed fills it with what the engine read returned.  The read takes
simulated time, so a write to the same key can be acknowledged while
it is in flight, and the value read may already be overwritten when the
fill lands.  The storage node tracks the keys with a fill in flight and
such an overtaken fill calls :meth:`ObjectCache.touch` instead of
``put``: it refreshes the recency of whatever the writer left and
stores nothing.  When the overwritten and the new object have the same
size, that is exactly the state a ``put`` of the stale size would have
produced.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

__all__ = ["ObjectCache"]


class ObjectCache:
    """A byte-bounded LRU of object metadata (key -> size)."""

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[Tuple[str, int], int]" = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, tenant: str, key: int) -> Optional[int]:
        """Cached object size, or None on miss. Refreshes recency."""
        slot = (tenant, key)
        entry = self._entries.get(slot)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(slot)
        self.hits += 1
        return entry

    def touch(self, tenant: str, key: int) -> None:
        """Refresh an object's recency if it is cached; no hit or miss
        is counted (the fill of a GET that a write overtook)."""
        slot = (tenant, key)
        if slot in self._entries:
            self._entries.move_to_end(slot)

    def put(self, tenant: str, key: int, size: int) -> None:
        """Insert/refresh an object, evicting LRU entries as needed."""
        if size > self.capacity_bytes:
            self.invalidate(tenant, key)
            return
        slot = (tenant, key)
        old = self._entries.pop(slot, None)
        if old is not None:
            self.bytes -= old
        self._entries[slot] = size
        self.bytes += size
        while self.bytes > self.capacity_bytes:
            _evicted_key, evicted_size = self._entries.popitem(last=False)
            self.bytes -= evicted_size

    def invalidate(self, tenant: str, key: int) -> None:
        """Drop an object (DELETE path)."""
        old = self._entries.pop((tenant, key), None)
        if old is not None:
            self.bytes -= old

    def clear(self) -> None:
        """Drop every object (the node died; hit/miss counts stay)."""
        self._entries.clear()
        self.bytes = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
