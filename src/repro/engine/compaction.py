"""Background compaction (COMPACT).

LSM engines never update in place; stale versions accumulate in L0 and
deeper levels until a compaction merges overlapping files, culls
overwritten keys and tombstones, and rewrites the survivors one level
down.  Compaction is the second big source of indirect IO in Fig 2 —
sequential reads of every input file plus sequential writes of the
merged outputs, all tagged COMPACT so Libra can bill them back to the
tenant's PUT profile.

Policy, following LevelDB: L0 compacts when it holds too many files
(every L0 file is a mandatory GET probe); L1+ compact when a level
exceeds its size budget (``level1_bytes`` × ratio^(level-1)), picking
files round-robin and merging them with the overlapping files below.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, Iterator, List, Optional, Tuple

from .memtable import TOMBSTONE
from .sstable import SsTable
from .version import Version

__all__ = ["CompactionJob", "pick_compaction", "merge_entries", "split_outputs"]


class CompactionJob:
    """Inputs and target level for one compaction run."""

    def __init__(self, level: int, inputs: List[SsTable], target_level: int):
        if not inputs:
            raise ValueError("compaction with no inputs")
        self.level = level
        self.inputs = inputs
        self.target_level = target_level

    @property
    def input_bytes(self) -> int:
        """File bytes to be read (index + data of every input)."""
        return sum(t.file.size for t in self.inputs)

    def __repr__(self) -> str:
        return (
            f"<CompactionJob L{self.level}->L{self.target_level} "
            f"{len(self.inputs)} files, {self.input_bytes} B>"
        )


def pick_compaction(
    version: Version,
    l0_trigger: int,
    level1_bytes: int,
    level_ratio: int,
) -> Optional[CompactionJob]:
    """Choose the most urgent compaction, if any.

    L0 crowding beats size overflow because every extra L0 file
    directly amplifies GETs.
    """
    if len(version.levels[0]) >= l0_trigger:
        inputs = list(version.levels[0])
        lo = min(t.min_key for t in inputs)
        hi = max(t.max_key for t in inputs)
        inputs += version.overlapping(1, lo, hi)
        return CompactionJob(level=0, inputs=inputs, target_level=1)
    budget = level1_bytes
    for level in range(1, version.max_levels - 1):
        if version.level_bytes(level) > budget:
            # Round-robin-ish: take the widest file to maximize culling.
            seed = max(version.levels[level], key=lambda t: t.file.size)
            inputs = [seed] + version.overlapping(
                level + 1, seed.min_key, seed.max_key
            )
            return CompactionJob(level=level, inputs=inputs, target_level=level + 1)
        budget *= level_ratio
    return None


def merge_entries(
    inputs: List[SsTable], drop_tombstones: bool
) -> Iterable[Tuple[int, int]]:
    """Merge inputs, newest version of each key winning.

    ``inputs`` must be ordered newest-first (the L0 list order already
    is; deeper levels are older than everything above them).  Returns
    the ``(key, size)`` pairs in key order.  Each table's columns go
    into one dict oldest table first, so a newer size overwrites an
    older one — the same winner as keeping the first size seen
    newest-first — and the keys are sorted once.
    """
    newest = {}
    for table in reversed(inputs):
        newest.update(zip(table.keys, table.sizes))
    keys = sorted(newest)
    sizes = list(map(newest.__getitem__, keys))
    if drop_tombstones and TOMBSTONE in sizes:
        return [(key, size) for key, size in zip(keys, sizes) if size != TOMBSTONE]
    return zip(keys, sizes)


def split_outputs(
    entries: Iterable[Tuple[int, int]], max_file_bytes: int
) -> Iterator[List[Tuple[int, int]]]:
    """Partition merged entries into output files of bounded size.

    A file closes at the entry that brings its value bytes to
    ``max_file_bytes``: each cut is a bisection of the running byte
    total for the previous cut's total plus ``max_file_bytes``.
    """
    pairs = list(entries)
    ends = list(accumulate(map(max, map(itemgetter(1), pairs), repeat(0))))
    start = 0
    while start < len(pairs):
        base = ends[start - 1] if start else 0
        stop = bisect_left(ends, base + max_file_bytes, start) + 1
        yield pairs[start:stop]
        start = stop
