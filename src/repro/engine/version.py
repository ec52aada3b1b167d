"""Leveled file manifest.

Tracks which SSTables are live at each level, mirroring LevelDB:

- **L0** files come straight from memtable FLUSHes and may overlap each
  other, so a lookup must probe every L0 file whose range covers the
  key, newest first;
- **L1+** files are non-overlapping and sorted, so each level
  contributes at most one candidate.

The number of *eligible files* for a key — every one of which costs an
index-block read — is the engine-level source of GET amplification
(§3.1): write-heavy workloads grow L0 and widen ranges, inflating GET
cost until a COMPACT merges the files down.

``eligible_files`` sits on every GET that misses the memtables, so it
builds its answer in one frame — a loop over L0 (a handful of tables at
most) and an inline bisect per non-empty level — and returns the list
itself.
"""

from __future__ import annotations

import bisect
from typing import List

from .sstable import SsTable

__all__ = ["Version"]


class Version:
    """Mutable view of the live file tree."""

    def __init__(self, max_levels: int = 5):
        if max_levels < 2:
            raise ValueError("need at least L0 and L1")
        self.levels: List[List[SsTable]] = [[] for _ in range(max_levels)]
        #: ``min_key`` of every table, parallel to ``levels``.  L1+ are
        #: sorted and disjoint, so a lookup there is two bisects of this.
        self._min_keys: List[List[int]] = [[] for _ in range(max_levels)]
        self._deepest_first = range(max_levels - 1, 0, -1)

    @property
    def max_levels(self) -> int:
        return len(self.levels)

    @property
    def file_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def level_bytes(self, level: int) -> int:
        """Live data bytes at a level (compaction sizing input)."""
        return sum(t.data_bytes for t in self.levels[level])

    # -- mutation ---------------------------------------------------------------

    def add_l0(self, table: SsTable) -> None:
        """Install a freshly flushed table (newest first)."""
        self.levels[0].insert(0, table)
        self._min_keys[0].insert(0, table.min_key)

    def install(self, level: int, tables: List[SsTable]) -> None:
        """Add compaction outputs to ``level``, keeping sort order."""
        if level == 0:
            for t in reversed(tables):
                self.add_l0(t)
            return
        merged = self.levels[level] + tables
        merged.sort(key=lambda t: t.min_key)
        self._set_level(level, merged)

    def remove(self, tables: List[SsTable]) -> None:
        """Drop tables (they were compacted away)."""
        doomed = {t.table_id for t in tables}
        for level, live in enumerate(self.levels):
            self._set_level(level, [t for t in live if t.table_id not in doomed])

    def _set_level(self, level: int, tables: List[SsTable]) -> None:
        self.levels[level] = tables
        self._min_keys[level] = [t.min_key for t in tables]

    # -- lookup ------------------------------------------------------------------

    def eligible_files(self, key: int) -> List[SsTable]:
        """Candidate tables for a key, newest first.

        Every listed table costs the caller an index-block probe.
        """
        levels = self.levels
        found = []
        for table in levels[0]:
            if table.min_key <= key <= table.max_key:
                found.append(table)
        for level in range(1, len(levels)):
            min_keys = self._min_keys[level]
            if min_keys:
                i = bisect.bisect_right(min_keys, key) - 1
                if i >= 0:
                    table = levels[level][i]
                    if key <= table.max_key:
                        found.append(table)
        return found

    def eligible_count(self, key: int) -> int:
        """How many files a GET for ``key`` may need to probe."""
        return len(self.eligible_files(key))

    def overlapping(self, level: int, lo: int, hi: int) -> List[SsTable]:
        """Tables at ``level`` intersecting [lo, hi], in level order."""
        if level == 0:
            return [t for t in self.levels[0] if t.overlaps(lo, hi)]
        return self.scan_sources(lo, hi, levels=(level,))

    def scan_sources(self, lo: int, hi: int, levels=None) -> List[SsTable]:
        """Tables intersecting [lo, hi], oldest first.

        By default every level: the deepest first and L0 last, oldest to
        newest, so a scan that merges the list in order lets newer
        versions win — in one frame, since every scan pays for it.
        ``levels`` restricts the walk to those sorted L1+ levels, in the
        given order.
        """
        found: List[SsTable] = []
        for level in self._deepest_first if levels is None else levels:
            min_keys = self._min_keys[level]
            if not min_keys:
                continue
            tables = self.levels[level]
            # Only the last table starting at or below ``lo`` can reach it.
            first = bisect.bisect_right(min_keys, lo) - 1
            if first < 0 or tables[first].max_key < lo:
                first += 1
            found += tables[first:bisect.bisect_right(min_keys, hi)]
        if levels is None:
            for table in reversed(self.levels[0]):
                if table.min_key <= hi and lo <= table.max_key:
                    found.append(table)
        return found
