"""Minimal extent-based filesystem over the simulated SSD.

The persistence engine needs append-only files (WAL, SSTables) that can
be created, appended, read at arbitrary offsets, and deleted.  Real
Libra runs over ext4 with O_DIRECT; the paper folds filesystem overhead
into the device cost model, so this layer is deliberately thin: it maps
file-relative offsets onto logical device extents and turns deletes into
TRIMs (which is what makes LSM file deletion cheap for the FTL).

The filesystem issues IO through an *IO backend* — either the raw device
or a Libra scheduler — so the engine's IO can be interposed exactly as
in the paper (§5's system-call wrappers).
"""

from __future__ import annotations

import bisect
from functools import partial
from typing import List, Optional, Protocol, Tuple

from ..sim import Event, Simulator

__all__ = ["IoBackend", "RawBackend", "SimFile", "SimFilesystem", "OutOfSpace"]


class OutOfSpace(Exception):
    """Raised when the volume cannot satisfy an allocation."""


class IoBackend(Protocol):
    """What the filesystem needs from the IO layer below it.

    ``tag`` carries the Libra IO task tag (tenant + app-request +
    internal op); the raw backend ignores it.  ``done`` is None for an
    IO that is one op, whose completion Event is returned.  A file IO
    split over several ops hands each of them its :class:`_Join`
    instead, which the backend succeeds or fails where it would have
    triggered that op's Event (and the return value is unused).
    """

    def read(self, offset: int, size: int, tag=None, done=None) -> Event: ...

    def write(self, offset: int, size: int, tag=None, done=None) -> Event: ...

    def trim_extents(self, extents: List[Tuple[int, int]]) -> None: ...


class RawBackend:
    """Pass-through backend: straight to the device, no scheduling."""

    def __init__(self, device):
        self.device = device

    def read(self, offset: int, size: int, tag=None, done=None) -> Event:
        if done is None:
            return self.device.read(offset, size)
        # The op's finish action books its outcome on the join.
        self.device.submit(True, offset, size, None, None, done)
        return done

    def write(self, offset: int, size: int, tag=None, done=None) -> Event:
        if done is None:
            return self.device.write(offset, size)
        self.device.submit(False, offset, size, None, None, done)
        return done

    def trim_extents(self, extents: List[Tuple[int, int]]) -> None:
        self.device.trim_extents(extents)


class _Join(Event):
    """Completion of one file IO split over several backend ops: succeeds
    (with None) once every op has, fails with the first op failure.

    No Event is made per op.  Each op is handed the join itself, whose
    ``succeed``/``fail`` book that op's outcome where the backend would
    have triggered the op's Event: earlier ops only count ``_left``
    down, and the last one, or the first failure, queues an action
    where that Event's dispatch would have been queued and triggers the
    join there (through ``Event.succeed``/``Event.fail``).  So the join fires where
    ``AllOf`` over per-op Events fired, less the dispatches that could
    only count down or find the join already failed.
    """

    __slots__ = ("_left",)

    def __init__(self, sim: Simulator, ops: int):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        #: ops still to succeed; -1 once a failure has been booked
        self._left = ops

    def succeed(self, value=None) -> None:
        """One op succeeded."""
        self._left -= 1
        if not self._left:
            sim = self.sim
            sim.call_at(sim.now, Event.succeed, self)

    def fail(self, exception: BaseException) -> None:
        """One op failed."""
        if self._left > 0:
            self._left = -1
            self.sim.call_at(self.sim.now, partial(Event.fail, self), exception)


class SimFile:
    """An append-only file: a list of device extents plus a byte size."""

    __slots__ = ("fs", "name", "extents", "_starts", "allocated", "size", "deleted")

    def __init__(self, fs: "SimFilesystem", name: str):
        self.fs = fs
        self.name = name
        self.extents: List[Tuple[int, int]] = []  # (device offset, length)
        self._starts: List[int] = []  # cumulative file offsets of extents
        self.allocated = 0  # bytes of device space held (sum of extent lengths)
        self.size = 0
        self.deleted = False

    def __repr__(self) -> str:
        return f"<SimFile {self.name} size={self.size}>"

    def append(self, size: int, tag=None) -> Event:
        """Append ``size`` bytes; returns the write-completion event."""
        if self.deleted:
            raise ValueError(f"IO on deleted file {self.name}")
        if type(size) is not int or size <= 0:
            raise ValueError(f"append size must be a positive int, got {size!r}")
        fs = self.fs
        write = fs.backend.write
        segments = fs._extend(self, size)
        if len(segments) == 1:
            (off, length), = segments
            done = write(off, length, tag)
        else:
            done = _Join(fs.sim, len(segments))
            for off, length in segments:
                write(off, length, tag, done)
        self.size += size
        return done

    def read(self, offset: int, size: int, tag=None) -> Event:
        """Read ``size`` bytes at file offset ``offset``."""
        if self.deleted:
            raise ValueError(f"IO on deleted file {self.name}")
        if type(offset) is not int or type(size) is not int or not (
            0 <= offset and 0 < size and offset + size <= self.size
        ):
            raise ValueError(
                f"read [{offset}, {offset + size}) is not given as ints or out of "
                f"bounds for {self.name} (size {self.size})"
            )
        # An SSTable's extents are its 256 KiB appends and block reads
        # are 4 KiB, so nearly every range lies inside one extent (all
        # but 0.3% of a GET workload's reads; a quarter of 64 KiB scan
        # ranges straddle): resolve that extent and issue the one device
        # read directly.
        idx = bisect.bisect_right(self._starts, offset) - 1
        within = offset - self._starts[idx]
        dev_off, ext_len = self.extents[idx]
        backend = self.fs.backend
        if within + size <= ext_len:
            return backend.read(dev_off + within, size, tag)
        runs = self._map(offset, size)
        join = _Join(self.fs.sim, len(runs))
        for dev_off, length in runs:
            backend.read(dev_off, length, tag, join)
        return join

    def _map(self, offset: int, size: int) -> List[Tuple[int, int]]:
        """Translate a file-relative range to device (offset, length) runs."""
        out = []
        remaining = size
        idx = bisect.bisect_right(self._starts, offset) - 1
        pos = offset
        while remaining > 0:
            ext_start = self._starts[idx]
            dev_off, ext_len = self.extents[idx]
            within = pos - ext_start
            take = min(remaining, ext_len - within)
            out.append((dev_off + within, take))
            remaining -= take
            pos += take
            idx += 1
        return out


class SimFilesystem:
    """First-fit extent allocator over the device's logical space.

    An append first fills the slack of the file's last extent, then
    allocates one new extent of ``ceil(remaining / page)`` pages, capped
    at ``ALLOC_CHUNK``.  So extents are as coarse as the appends: an
    SSTable's are its 256 KiB write chunks, and a WAL's are one or two
    pages each — nearly every group commit is two device writes, the
    previous extent's partial tail page and a fresh extent.

    The free list ``_free`` holds every hole in offset order; most are
    a page or two that retired WAL extents left between SSTables.  So
    the holes of at least ``BIG_HOLE`` bytes are indexed a second time,
    in ``_big``, also in offset order: first fit for a request of that
    size or more walks ``_big`` alone (every hole it skips there is one
    it would have skipped in ``_free``), and a smaller request walks
    ``_free`` only up to the first hole that fits it, which is at the
    latest the first big one.
    """

    #: largest extent one allocation asks for
    ALLOC_CHUNK = 1 * 1024 * 1024
    #: holes this long or longer are also listed in ``_big``
    BIG_HOLE = 64 * 1024

    def __init__(self, sim: Simulator, backend: IoBackend, capacity: int, page_size: int = 4096):
        if capacity % page_size:
            raise ValueError("capacity must be page-aligned")
        self.sim = sim
        self.backend = backend
        self.page_size = page_size
        self.capacity = capacity
        self._free: List[Tuple[int, int]] = [(0, capacity)]  # sorted by offset
        #: the holes of ``_free`` of at least ``BIG_HOLE`` bytes, in order
        self._big: List[Tuple[int, int]] = [h for h in self._free if h[1] >= self.BIG_HOLE]
        self._free_bytes = capacity
        self._files = {}
        self._seq = 0

    # -- file lifecycle --------------------------------------------------------

    def create(self, name: Optional[str] = None) -> SimFile:
        """Create an empty file (no space allocated until first append)."""
        if name is None:
            self._seq += 1
            name = f"file-{self._seq}"
        if name in self._files:
            raise ValueError(f"file {name!r} already exists")
        f = SimFile(self, name)
        self._files[name] = f
        return f

    def delete(self, f: SimFile) -> None:
        """Delete a file: TRIM and free all of its extents."""
        if f.deleted:
            return
        f.deleted = True
        if f.extents:
            self.backend.trim_extents(f.extents)
            self._release(f.extents)
        self._free_bytes += f.allocated
        f.extents = []
        f._starts = []
        f.allocated = 0
        self._files.pop(f.name, None)

    @property
    def free_bytes(self) -> int:
        """Unallocated capacity."""
        return self._free_bytes

    @property
    def file_count(self) -> int:
        return len(self._files)

    # -- allocation ----------------------------------------------------------------

    def _extend(self, f: SimFile, size: int) -> List[Tuple[int, int]]:
        """Grow ``f`` by ``size`` bytes; return device segments to write.

        The tail of the last extent is reused first (so sub-page appends
        land mid-page and incur the FTL's read-modify-write, like a real
        O_SYNC log tail).  Extra space is allocated in page-aligned
        chunks.
        """
        slack = f.allocated - f.size
        remaining = size - slack  # bytes past the end of the last extent
        if remaining > self._free_bytes:  # refused before any allocation
            raise OutOfSpace(f"{f.name}: append of {size} bytes, {self._free_bytes} free")
        if slack > 0:
            dev_off, ext_len = f.extents[-1]
            if remaining <= 0:
                return [(dev_off + ext_len - slack, size)]
            segments = [(dev_off + ext_len - slack, slack)]
        else:
            segments = []
        page = self.page_size
        while remaining > 0:
            want = -(-remaining // page) * page
            if want > self.ALLOC_CHUNK:
                want = self.ALLOC_CHUNK
            dev_off, got = self._allocate(want)
            f._starts.append(f.allocated)
            f.extents.append((dev_off, got))
            f.allocated += got
            segments.append((dev_off, got if got < remaining else remaining))
            remaining -= got
        return segments

    def _allocate(self, want: int) -> Tuple[int, int]:
        """First fit: return (offset, length) of at most ``want`` bytes."""
        free, big = self._free, self._big
        if want < self.BIG_HOLE:
            for i, (off, length) in enumerate(free):
                if length >= want:
                    j = 0  # if this hole is big, it is the first big one
                    break
            else:
                i = None
        else:
            for j, (off, length) in enumerate(big):
                if length >= want:
                    i = bisect.bisect_left(free, (off,))
                    break
            else:
                i = None
        if i is None:
            # No hole big enough: take the largest (allocation may split).
            if not free:
                raise OutOfSpace("filesystem full")
            i = max(range(len(free)), key=lambda k: free[k][1])
            off, length = free[i]
            want = length
            j = bisect.bisect_left(big, (off,))
        rest = length - want
        if rest:
            free[i] = (off + want, rest)
        else:
            free.pop(i)
        if length >= self.BIG_HOLE:
            if rest >= self.BIG_HOLE:
                big[j] = free[i]
            else:
                big.pop(j)
        self._free_bytes -= want
        return off, want

    def _release(self, extents: List[Tuple[int, int]]) -> None:
        """Return extents to the free list in one sort-and-coalesce pass.

        Only the stretch of the list the extents land in is rebuilt,
        from the hole before the lowest extent to the hole after the
        highest.  The list never holds two adjacent holes, so nothing
        outside that stretch can merge with it, and the result is the
        one canonical list — what inserting and coalescing the extents
        one at a time produces.
        """
        free = self._free
        big_hole = self.BIG_HOLE
        extents = sorted(extents)
        lo = max(bisect.bisect_left(free, extents[0]) - 1, 0)
        hi = bisect.bisect_left(free, extents[-1], lo) + 1
        merged = iter(sorted(free[lo:hi] + extents))
        out, big_out = [], []
        run_off, run_len = next(merged)
        for off, length in merged:
            if run_off + run_len == off:
                run_len += length
            else:
                out.append((run_off, run_len))
                if run_len >= big_hole:
                    big_out.append((run_off, run_len))
                run_off, run_len = off, length
        out.append((run_off, run_len))
        if run_len >= big_hole:
            big_out.append((run_off, run_len))
        free[lo:hi] = out
        # The stretch's big holes are exactly those at offsets inside it.
        big = self._big
        start = bisect.bisect_left(big, (out[0][0],))
        big[start:bisect.bisect_left(big, (run_off + run_len,), start)] = big_out
