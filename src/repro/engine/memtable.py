"""In-memory write buffer.

Holds the newest version of each recently written key until the size
threshold rotates it out for a background FLUSH.  Entries store only
object metadata (size, tombstone) — the simulation never materializes
value bytes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = ["Memtable", "Entry", "TOMBSTONE"]

#: sentinel size marking a deletion record
TOMBSTONE = -1

_size = attrgetter("size")


class Entry:
    """One key's newest buffered version."""

    __slots__ = ("size", "sequence")

    def __init__(self, size: int, sequence: int):
        self.size = size
        self.sequence = sequence

    @property
    def is_tombstone(self) -> bool:
        return self.size == TOMBSTONE


class Memtable:
    """A size-bounded write buffer with point lookup."""

    def __init__(self, limit_bytes: int):
        if limit_bytes <= 0:
            raise ValueError(f"memtable limit must be positive, got {limit_bytes}")
        self.limit_bytes = limit_bytes
        self._entries: Dict[int, Entry] = {}
        #: the key set in order, kept live: a *new* key is insorted, an
        #: overwrite leaves it untouched
        self._keys: List[int] = []
        self.bytes = 0
        #: ``bytes >= limit_bytes``, kept by :meth:`put`
        self.full = False

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def empty(self) -> bool:
        return not self._entries

    def put(self, key: int, size: int, sequence: int) -> None:
        """Insert/overwrite a key (``size=TOMBSTONE`` records a delete)."""
        previous = self._entries.get(key)
        if previous is not None:
            self.bytes -= max(previous.size, 0)
        else:
            insort(self._keys, key)
        self._entries[key] = Entry(size, sequence)
        self.bytes += max(size, 0)
        self.full = self.bytes >= self.limit_bytes

    def get(self, key: int) -> Optional[Entry]:
        """The buffered entry for ``key``, or None if absent."""
        return self._entries.get(key)

    def merge_range(self, into: Dict[int, int], lo: int, hi: int) -> None:
        """Set ``into[key] = size`` for every entry with lo <= key <= hi."""
        keys = self._keys
        span = keys[bisect_left(keys, lo):bisect_right(keys, hi)]
        into.update(zip(span, map(_size, map(self._entries.__getitem__, span))))

    def items(self) -> List[Tuple[int, int]]:
        """(key, size) of every entry, in key order (what a FLUSH writes)."""
        entries = self._entries
        return [(key, entries[key].size) for key in self._keys]

    def sorted_entries(self) -> Iterator[Tuple[int, Entry]]:
        """Entries in key order (for building an SSTable)."""
        entries = self._entries
        for key in self._keys:
            yield key, entries[key]
