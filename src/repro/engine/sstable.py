"""Immutable sorted data files (SSTables).

Layout mirrors LevelDB's table format at the granularity the IO model
cares about: an index region at the head of the file (one entry per
data block, packed into 4 KiB index blocks) followed by the data
blocks.  A point lookup costs one 4 KiB *index block* read — paid even
when the key turns out to be absent, which is exactly the GET
amplification of §3.1 — and, on a hit, a read of the 4 KiB-aligned data
span holding the object.
"""

from __future__ import annotations

import bisect
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Iterable, List, Optional, Tuple

from ..core.tags import IoTag
from ..sim import Event, Simulator
from ..ssd import SimFile, SimFilesystem
from .bloom import BloomFilter
from .memtable import TOMBSTONE

__all__ = ["SsTable", "TableBuilder", "BLOCK_SIZE", "INDEX_ENTRY_BYTES"]

BLOCK_SIZE = 4096
#: bytes per index entry (key + offset + length, LevelDB-ish)
INDEX_ENTRY_BYTES = 24


class SsTable:
    """Metadata for one immutable sorted file."""

    _ids = 0

    def __init__(
        self,
        file: SimFile,
        keys: List[int],
        sizes: List[int],
        offsets: List[int],
        index_bytes: int,
        bloom: Optional[BloomFilter] = None,
    ):
        SsTable._ids += 1
        self.table_id = SsTable._ids
        self.file = file
        self.keys = keys  # sorted
        self.sizes = sizes  # TOMBSTONE for deletes
        self.offsets = offsets  # data offsets within the file
        self.index_bytes = index_bytes
        #: optional Bloom filter (LevelDB FilterPolicy); None = disabled
        self.bloom = bloom
        self.deleted = False
        # Tables are immutable: their range and live value bytes
        # (excluding index and tombstones) are fixed at build.  The only
        # negative size is TOMBSTONE (-1), so adding back one per
        # tombstone leaves the positive sizes' sum.
        self.min_key = keys[0]
        self.max_key = keys[-1]
        self.data_bytes = sum(sizes) + sizes.count(TOMBSTONE)

    @property
    def entry_count(self) -> int:
        return len(self.keys)

    def covers(self, key: int) -> bool:
        """True if ``key`` falls inside this table's key range."""
        return self.min_key <= key <= self.max_key

    def overlaps(self, lo: int, hi: int) -> bool:
        """True if the table's range intersects [lo, hi]."""
        return self.min_key <= hi and lo <= self.max_key

    def find(self, key: int) -> Optional[int]:
        """Index of ``key`` in this table, or None."""
        i = bisect.bisect_left(self.keys, key)
        if i < len(self.keys) and self.keys[i] == key:
            return i
        return None

    # -- IO ---------------------------------------------------------------------

    def read_index_block(self, key: int, tag: IoTag) -> Event:
        """Read the 4 KiB index block that would cover ``key``.

        Charged whether or not the key exists — the cost of probing an
        eligible file.
        """
        i = bisect.bisect_left(self.keys, key)
        entry_offset = min(i, max(self.entry_count - 1, 0)) * INDEX_ENTRY_BYTES
        block_start = (entry_offset // BLOCK_SIZE) * BLOCK_SIZE
        length = min(BLOCK_SIZE, max(self.file.size - block_start, 1))
        return self.file.read(block_start, length, tag=tag)

    def read_span(self, first: int, last: int, tag: IoTag) -> Event:
        """Sequentially read the data of entries ``[first, last)``.

        The contiguous block-aligned run holding those values — the IO a
        LevelDB iterator would issue over this table.  The span must be
        non-empty.  Tombstones take no data bytes, so a span of trailing
        tombstones can start at the file's end; it reads the last block.
        """
        start = min(
            (self.offsets[first] // BLOCK_SIZE) * BLOCK_SIZE,
            ((self.file.size - 1) // BLOCK_SIZE) * BLOCK_SIZE,
        )
        last -= 1
        end = self.offsets[last] + max(self.sizes[last], 1)
        aligned_end = min(
            ((end + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE, self.file.size
        )
        return self.file.read(start, aligned_end - start, tag=tag)

    def read_value(self, idx: int, tag: IoTag) -> Event:
        """Read the block-aligned span holding entry ``idx``'s value."""
        offset = self.offsets[idx]
        size = max(self.sizes[idx], 1)
        start = (offset // BLOCK_SIZE) * BLOCK_SIZE
        end = offset + size
        aligned_end = min(((end + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE, self.file.size)
        return self.file.read(start, aligned_end - start, tag=tag)

    def __repr__(self) -> str:
        return (
            f"<SsTable #{self.table_id} [{self.min_key},{self.max_key}] "
            f"n={self.entry_count}>"
        )


class TableBuilder:
    """Builds an SSTable from sorted entries and writes it sequentially.

    The writer emits the file in large fixed-size chunks (the paper's
    modified LevelDB issues FLUSH IO "in an asynchronous, io-efficient
    manner" at a single IOP size regardless of object size).
    """

    def __init__(
        self,
        sim: Simulator,
        fs: SimFilesystem,
        write_chunk: int = 256 * 1024,
        bloom_bits_per_key: int = 0,
    ):
        self.sim = sim
        self.fs = fs
        self.write_chunk = write_chunk
        self.bloom_bits_per_key = bloom_bits_per_key

    def build(
        self,
        entries: Iterable[Tuple[int, int]],
        tag: IoTag,
        name: Optional[str] = None,
    ):
        """DES process: write (key, size) entries into a new SsTable.

        Yields IO events; returns the table.  ``size`` may be TOMBSTONE.
        Entries must be sorted by key and free of duplicates.
        """
        pairs = list(entries)
        if not pairs:
            raise ValueError("cannot build an empty SSTable")
        keys = list(map(itemgetter(0), pairs))
        sizes = list(map(itemgetter(1), pairs))
        index_bytes = len(keys) * INDEX_ENTRY_BYTES
        # Index blocks padded to block size, then the data: each value
        # starts where the previous one's bytes end (tombstones take none).
        index_region = ((index_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE
        offsets = list(accumulate(map(max, sizes, repeat(0)), initial=index_region))
        total = offsets.pop()
        file = self.fs.create(name)
        try:
            remaining = max(total, BLOCK_SIZE)
            while remaining > 0:
                chunk = min(self.write_chunk, remaining)
                yield file.append(chunk, tag=tag)
                remaining -= chunk
        except BaseException:
            # A failed (or interrupted) build must not leak the partial
            # file: delete it so the extents return to the allocator and
            # the caller can retry under the same name.
            self.fs.delete(file)
            raise
        bloom = None
        if self.bloom_bits_per_key > 0:
            bloom = BloomFilter(keys, self.bloom_bits_per_key, salt=SsTable._ids + 1)
        return SsTable(file, keys, sizes, offsets, index_bytes, bloom=bloom)
