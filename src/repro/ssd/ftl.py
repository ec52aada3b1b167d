"""Page-mapped flash translation layer.

Models the SSD-internal log-structured write path the paper describes in
§3.2: host writes append to pre-erased blocks, a page map tracks the
live location of each logical page, and garbage collection performs
read-merge-write of still-valid pages to replenish the free-block pool.
This is the mechanism behind write amplification and the
erase-before-write penalty; it is what makes small random overwrites
expensive and whole-file TRIMs (the LSM engine's deleted SSTables)
nearly free.

The FTL is purely bookkeeping — it computes *what* flash work an
operation implies (which channels program/copy/erase how many pages).
The device model charges the corresponding simulated time.

The map is updated once per *op*, not once per page.  A one-page write
(the WAL tail of every group commit) goes straight through the scalar
primitive :meth:`Ftl._append_page`; a multi-page op reads its
slice of the page map once, drops the old copies in one step and then
assigns each stripe run as a slice (:meth:`Ftl._append_striped`).  That
is exact because the pages of one op are distinct and block allocation
reads the map only on the emergency-GC path, so the batched lane runs
only while the free pool cannot run dry inside the op; otherwise the op
walks page by page through that primitive.  A GC victim's live pages
are found by one page-map gather and copied per stripe run
(:meth:`Ftl._append_gc`); a victim with no live page skips both.  A
TRIM call unmaps all its extents' pages in one pass.  Preconditioning
goes further: it applies all the writes between two GC bursts —
hundreds of blocks' worth, duplicates included — as one batch
(:meth:`Ftl._append_batch`), and evacuates each burst's victims, a
hundred or so, in one pass (:meth:`Ftl._gc_pass`).

Each block's page log is an int32 ``array``, appended to in C and read
through zero-copy numpy views: 4 bytes a listed page, where a list of
Python ints took a pointer and an int object each.

Reads are priced from a second map, one byte per logical page
(:attr:`Ftl.page_channel`): the channel a read of that page goes to.
Its invariant is ``page_channel[p] == block_channel[page_to_block[p]]``
while ``p`` is mapped and ``p % channels`` while it is not, and every
write of ``page_to_block`` writes it too: a store per one-page append
or GC copy, a slice per stripe run of a host write, one vector op per
TRIM call, preconditioning batch or GC pass.  A multi-page read then
counts pages per channel with ``set`` and ``bytearray.count`` over one
slice, in C, instead of walking the page map in Python.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Deque, List, NamedTuple, NoReturn, Optional, Tuple

import numpy as np

from .ftl_policy import make_ftl_policy
from .profiles import SsdProfile

__all__ = ["Ftl", "WritePlan", "GcMove"]

UNMAPPED = -1

#: fill pages, or raw aging draws, that preconditioning takes at a time:
#: bounds its transient arrays (~1.5 MB, plus an int per logical page)
_CHUNK = 1 << 14

#: what GC raises when it needs a destination block and the pool is empty
_EXHAUSTED = (
    "FTL exhausted: GC needs a destination block but the free pool is empty "
    "(reserve misconfigured)"
)

#: mapped pages from which dropping old copies goes through one
#: ``np.bincount`` instead of a Python loop (see ``Ftl._invalidate``)
_VECTOR_PAGES = 64


class _Runs(NamedTuple):
    """Where a batch of appends lands (see ``Ftl._runs``): per run, its
    first position in channel order, its channel and whether it opens
    its block; per block opened, the write that opens it, in channel
    order (``opener``) and in write order (``opens``, which ``by``
    sorts ``opener`` into)."""

    lo: List[int]
    chan: List[int]
    opening: List[bool]
    opener: np.ndarray
    by: np.ndarray
    opens: np.ndarray


@dataclass
class WritePlan:
    """Flash work implied by one host write.

    ``programs`` lists (channel, pages-to-program-there) chunks.  An op
    writes its pages in stripe-sized chunks across consecutive channels,
    so small ops land on one channel (one program latency) while large
    ops fan out — this is what amortizes program latency and makes write
    bandwidth climb with op size until the channels saturate.
    """

    programs: List[Tuple[int, int]]
    pages: int

    @property
    def program_pages(self) -> int:
        return sum(n for _c, n in self.programs)


@dataclass
class GcMove:
    """One garbage-collection step: evacuate + erase a victim block."""

    victim: int
    victim_channel: int
    copies: List[Tuple[int, int]]  # (destination channel, pages programmed)
    valid_pages: int


class Ftl:
    """Log-structured page-mapped FTL with pluggable GC/stream policy.

    ``policy`` (a name, class, or :class:`~repro.ssd.ftl_policy.FtlPolicy`
    instance; default from ``profile.ftl_policy``) owns victim selection
    and host write-stream routing; the mechanism here — page map, append
    streams, evacuate-and-erase — is policy-independent.
    """

    def __init__(self, profile: SsdProfile, seed: int = 0, policy=None):
        self.profile = profile
        self.rng = random.Random(seed)
        if policy is None:
            policy = getattr(profile, "ftl_policy", "greedy")
        self.policy = make_ftl_policy(policy)
        n_pages = profile.logical_pages
        n_blocks = profile.physical_blocks
        #: geometry the per-op paths read, cached off the frozen profile
        #: (``profile.logical_pages`` is a property dividing two fields)
        self.page_size = profile.page_size
        self.logical_pages = n_pages
        self.channels = profile.channels
        self.stripe_pages = profile.stripe_pages
        self.pages_per_block = profile.pages_per_block
        if profile.channels > 255:
            raise ValueError(
                f"profile {profile.name}: {profile.channels} channels do not fit "
                f"the one-byte read-channel map (at most 255)"
            )
        if n_blocks <= profile.gc_reserve_blocks + 2 * profile.channels:
            raise ValueError(
                f"profile {profile.name}: {n_blocks} blocks is too few for "
                f"{profile.channels} channels plus GC reserve"
            )
        #: logical page -> physical block holding its live copy: an int32
        #: ``array`` for per-page reads and stores (Python ints, not numpy
        #: scalars) under a zero-copy numpy view for the vector updates
        self._p2b = array("i", [UNMAPPED]) * n_pages
        self.page_to_block = np.frombuffer(self._p2b, dtype=np.int32)
        #: logical page -> channel its read goes to: its block's channel
        #: while mapped, ``p % channels`` while not (see the module
        #: docstring); built by repeating the bytes ``0..channels-1``
        nchan = profile.channels
        laps, rest = divmod(n_pages, nchan)
        self.page_channel = bytearray(bytes(range(nchan)) * laps + bytes(range(rest)))
        #: a zero-copy numpy view of it, for the slice and vector updates
        self._page_channel_np = np.frombuffer(self.page_channel, dtype=np.uint8)
        #: per channel, a stripe run's worth of its read-channel byte
        self._stripe_channel = [bytes((c,)) * profile.stripe_pages for c in range(nchan)]
        #: physical block -> count of live pages (``array`` and view, as above)
        self._valid = array("i", bytes(4 * n_blocks))
        self.block_valid = np.frombuffer(self._valid, dtype=np.int32)
        #: physical block -> channel it was allocated on (-1 while free)
        self.block_channel = np.full(n_blocks, -1, dtype=np.int16)
        #: the victim index (see :mod:`~repro.ssd.ftl_policy`): physical
        #: block -> 0 while it is closed, a GC candidate, and ``_barred``,
        #: above any live-page count, while it is free, open or being
        #: evacuated (``array`` and view, as above)
        self._barred = profile.pages_per_block + 1
        self._penalty = array("i", [self._barred]) * n_blocks
        self.victim_penalty = np.frombuffer(self._penalty, dtype=np.int32)
        #: physical block -> logical pages appended to it, in append order,
        #: as an int32 ``array`` (lazy: may list pages that were since
        #: overwritten; bounded by pages_per_block; empty while free)
        self.block_pages: List[array] = [array("i") for _ in range(n_blocks)]
        #: every logical page id, in order: a stripe run's slice of it is
        #: appended to a block's log in one C-level copy
        self._page_ids = array("i", np.arange(n_pages, dtype=np.int32).tobytes())
        self.free_blocks: Deque[int] = deque(range(n_blocks))
        #: host page-write clock and per-block birth stamp (block age for
        #: cost-benefit scoring; maintained unconditionally — two integer
        #: stores per append)
        self.write_seq = 0
        self.block_seq = np.zeros(n_blocks, dtype=np.int64)
        #: per-stream, per-channel active block for host writes; GC keeps
        #: its own single stream of destination blocks
        n_streams = self.policy.n_streams
        self._host_active: List[List[Optional[int]]] = [
            [None] * profile.channels for _ in range(n_streams)
        ]
        self._host_fill: List[List[int]] = [
            [0] * profile.channels for _ in range(n_streams)
        ]
        self._host_cursor = [0] * n_streams
        self._gc_active: List[Optional[int]] = [None] * profile.channels
        self._gc_fill: List[int] = [0] * profile.channels
        self._gc_cursor = 0
        self._routed = n_streams > 1
        self._in_gc = False
        self.emergency_gcs = 0
        self.policy.bind(self)
        # Watermarks depend only on construction-time constants.  The
        # block-count floor keeps the GC trigger safely above the host
        # starvation threshold even on tiny test devices.
        self._gc_low_blocks = max(
            int(n_blocks * profile.gc_low_watermark),
            profile.gc_reserve_blocks + 2 * profile.channels,
        )
        self._gc_high_blocks = max(
            int(n_blocks * profile.gc_high_watermark),
            self._gc_low_blocks + 2 * profile.channels,
        )
        self._starve_blocks = profile.gc_reserve_blocks + 2
        # With the logical space full, GC can free no more than what the
        # data's own blocks and the open append blocks leave over —
        # preconditioning opens one per channel for its host stream and
        # one for GC.  A high watermark above that is unreachable:
        # ``_sync_gc`` would evacuate fully-valid blocks forever.
        data_blocks = -(-n_pages // profile.pages_per_block)
        reachable = n_blocks - data_blocks - 2 * profile.channels
        if reachable < self._gc_high_blocks:
            raise ValueError(
                f"profile {profile.name}: {n_blocks} blocks leave at most "
                f"{reachable} free with the logical space full, below the GC "
                f"high watermark of {self._gc_high_blocks} blocks"
            )
        self._note_pool()

    # -- capacity state ------------------------------------------------------

    @property
    def free_fraction(self) -> float:
        """Fraction of physical blocks on the free list."""
        return len(self.free_blocks) / len(self.block_valid)

    def _note_pool(self) -> None:
        """Refresh the watermark flags from the free pool's size.

        Called wherever the pool changes size — a block allocation, a
        victim's erase — which is once per ``pages_per_block`` pages,
        while the flags are read at every write's admission and
        completion: plain attributes there, not ``len`` behind a property.
        """
        free = len(self.free_blocks)
        #: True when the pool has drained to the low watermark
        self.gc_needed = free <= self._gc_low_blocks
        #: True when GC has refilled the pool to the high watermark
        self.gc_satisfied = free >= self._gc_high_blocks
        #: True when host writes must stall for GC (the write cliff):
        #: the last few free blocks are reserved for GC's own destination
        #: blocks; letting the host consume them would deadlock collection
        self.host_starved = free <= self._starve_blocks

    # -- address helpers -----------------------------------------------------

    def _reject(self, offset: int, size: int) -> NoReturn:
        """Raise the ValueError naming what is wrong with the host IO
        ``[offset, offset + size)``: empty, negative, beyond capacity, or
        else not given as ints."""
        # Written so that a NaN fails each check.
        if not size > 0:
            raise ValueError(f"io size must be positive, got {size}")
        if not offset >= 0:
            raise ValueError(f"negative offset {offset}")
        if not (offset + size - 1) // self.page_size < self.logical_pages:
            raise ValueError(
                f"io [{offset}, {offset + size}) beyond logical capacity "
                f"{self.profile.logical_capacity}"
            )
        raise ValueError(f"io [{offset}, {offset + size}): offset and size must be ints")

    def read_channel(self, offset: int) -> int:
        """Channel serving the single page at ``offset``.

        Fast path for the dominant case (page-sized reads): one map
        lookup instead of :meth:`read_channels`'s per-channel
        accounting.  The caller guarantees the offset is within logical
        capacity.
        """
        return self.page_channel[offset // self.page_size]

    def read_channels(self, offset: int, size: int) -> List[Tuple[int, int, int]]:
        """Map a host read to per-channel work.

        Returns (channel, pages, bytes) triples in ascending channel
        order.  Bytes are the actual transfer sizes (sub-page reads move
        only the requested bytes off the flash register).  Unmapped
        pages read as if striped by LBA.  An empty, fractional or
        out-of-range read raises ValueError, as does a float offset or
        size, even an integral one.
        """
        if type(offset) is not int or type(size) is not int or not (
            0 < size and 0 <= offset and (offset + size - 1) // self.page_size < self.logical_pages
        ):
            self._reject(offset, size)
        return self._read_channels(offset, size)

    def _read_channels(self, offset: int, size: int) -> List[Tuple[int, int, int]]:
        """:meth:`read_channels` past its range check, which the device
        made when it admitted the op."""
        page = self.page_size
        first = offset // page
        last = (offset + size - 1) // page
        page_channel = self.page_channel
        if first == last:
            return [(page_channel[first], 1, size)]
        if last == first + 1:
            # Two pages (a 4 KiB value across a page boundary): two
            # lookups, no slice.
            chan0 = page_channel[first]
            chan1 = page_channel[last]
            head = (first + 1) * page - offset
            tail = offset + size - last * page
            if chan0 == chan1:
                return [(chan0, 2, head + tail)]
            if chan0 < chan1:
                return [(chan0, 1, head), (chan1, 1, tail)]
            return [(chan1, 1, tail), (chan0, 1, head)]
        chans = page_channel[first:last + 1]
        # Only the first and last page can be partial.
        head_chan, head_cut = chans[0], offset - first * page
        tail_chan, tail_cut = chans[-1], (last + 1) * page - (offset + size)
        out = []
        for chan in sorted(set(chans)):
            pages = chans.count(chan)
            nbytes = pages * page
            if chan == head_chan:
                nbytes -= head_cut
            if chan == tail_chan:
                nbytes -= tail_cut
            out.append((chan, pages, nbytes))
        return out

    # -- host writes ---------------------------------------------------------

    def host_write(self, offset: int, size: int) -> WritePlan:
        """Apply a host write to the map and return the flash work.

        Every touched logical page is rewritten in full (log-structured:
        no in-place update), so sub-page writes still program a whole
        page — the cost-per-byte penalty of small writes.  Pages are
        striped in ``stripe_pages`` chunks over consecutive channels
        starting from the write stream's rotating cursor, so concurrent
        small ops spread across channels while one large op parallelizes
        internally.  Multi-stream policies route the whole op to one
        stream (op-granularity separation, as NVMe write streams do).
        An empty, fractional or out-of-range write raises ValueError
        before it changes anything, as does a float offset or size, even
        an integral one.
        """
        if type(offset) is not int or type(size) is not int or not (
            0 < size and 0 <= offset and (offset + size - 1) // self.page_size < self.logical_pages
        ):
            self._reject(offset, size)
        return self._host_write(offset, size)

    def _host_write(self, offset: int, size: int) -> WritePlan:
        """:meth:`host_write` past its range check, which the device made
        when it admitted the op."""
        page = self.page_size
        first = offset // page
        n = (offset + size - 1) // page + 1 - first
        # Only a routed policy needs the pages as a range.
        routed = self._routed
        if routed:
            pages = range(first, first + n)
            stream = self.policy.route(self, pages)
        else:
            stream = 0
        nchan = self.channels
        cursor = self._host_cursor
        start = cursor[stream]
        cursor[stream] = (start + 1) % nchan
        if n == 1:
            self._append_page(first, start, stream)
            programs = [(start, 1)]
        else:
            if len(self.free_blocks) > n:
                # Each page opens at most one block, so the pool cannot
                # run dry inside this op: no emergency GC will read the
                # map half-updated, and the op may be applied in one pass.
                counts = self._append_striped(first, n, start, stream)
            else:
                counts = [0] * nchan
                stripe = self.stripe_pages
                for i in range(n):
                    chan = (start + i // stripe) % nchan
                    self._append_page(first + i, chan, stream)
                    counts[chan] += 1
            programs = [(c, k) for c, k in enumerate(counts) if k]
        if routed:
            self.policy.note_host_write(self, pages)
        return WritePlan(programs, n)

    def trim(self, offset: int, size: int) -> int:
        """Invalidate a logical range (file deletion). Returns pages freed."""
        return self.trim_extents([(offset, size)])

    def trim_extents(self, extents) -> int:
        """Invalidate each ``(offset, size)`` range of a deleted file in
        one call: a WAL retires hundreds of one-page extents at once.

        Every extent is checked before any page is unmapped, so a bad
        one raises ValueError with nothing trimmed.  Then all their
        pages go in one pass — one page-map gather, one ``bincount`` of
        it (unmapped pages in bin 0, so none is filtered out) off the
        valid counts, one store — and a page two extents cover is freed
        once.  Returns pages freed.
        """
        page = self.page_size
        capacity = self.logical_pages * page
        for offset, size in extents:
            if type(offset) is not int or type(size) is not int or not (
                0 < size and 0 <= offset and offset + size <= capacity
            ):
                self._reject(offset, size)
        if not extents:
            return 0
        flat = np.fromiter(chain.from_iterable(extents), np.int64, 2 * len(extents))
        offsets = flat[0::2]
        firsts = offsets // page
        counts = (offsets + flat[1::2] - 1) // page + 1 - firsts
        # extent i's pages are firsts[i] + 0, 1, ..., counts[i] - 1
        ends = np.cumsum(counts)
        pages = np.arange(ends[-1]) + np.repeat(firsts - (ends - counts), counts)
        pages.sort()
        if (pages[1:] == pages[:-1]).any():  # overlapping extents
            pages = np.unique(pages)
        page_to_block = self.page_to_block
        # bin 0 counts the unmapped pages, bin b + 1 block b's
        held = np.bincount(page_to_block[pages] + 1, minlength=len(self._valid) + 1)
        freed = len(pages) - int(held[0])
        if freed:
            self.block_valid -= held[1:]
            page_to_block[pages] = UNMAPPED
            self._page_channel_np[pages] = pages % self.channels
        return freed

    def _invalidate(self, first: int, stop: int) -> int:
        """Drop the live copies of logical pages ``[first, stop)`` from
        their blocks' valid counts; returns how many were mapped.

        The caller rewrites the pages' map entries.  ``np.bincount``
        over every block costs about what a Python loop costs at 64
        pages, so the vector step only pays from ``_VECTOR_PAGES``
        mapped pages up; a freshly allocated file extent is unmapped
        throughout and costs neither.
        """
        blocks = self._p2b[first:stop]
        mapped = len(blocks) - blocks.count(UNMAPPED)
        if mapped >= _VECTOR_PAGES:
            old = np.frombuffer(blocks, dtype=np.int32)
            if mapped < len(blocks):
                old = old[old != UNMAPPED]
            self.block_valid -= np.bincount(old, minlength=len(self._valid))
        elif mapped:
            valid = self._valid
            for block in blocks:
                if block != UNMAPPED:
                    valid[block] -= 1
        return mapped

    def _append_striped(self, first: int, n: int, start: int, stream: int) -> List[int]:
        """Append host pages ``[first, first + n)`` in one pass per op.

        The per-op form of walking :meth:`_append_page` over the pages:
        old copies are dropped up front (the pages of one op are
        distinct, so no page's old copy depends on another's new one),
        then each stripe run is assigned to its channel's active block
        as a slice, opening a block exactly where the page-by-page walk
        would — with ``write_seq`` at its value *at that page*, so block
        birth stamps are unchanged.  Returns pages programmed per
        channel.  The caller guarantees the free pool outlasts the op.
        """
        self._invalidate(first, first + n)
        nchan = self.channels
        stripe = self.stripe_pages
        per_block = self.pages_per_block
        p2b = self._p2b
        valid = self._valid
        block_pages = self.block_pages
        page_ids = self._page_ids
        page_channel = self.page_channel
        stripe_channel = self._stripe_channel
        active = self._host_active[stream]
        fill = self._host_fill[stream]
        seq0 = self.write_seq - first
        counts = [0] * nchan
        stop = first + n
        chan = start
        a = first
        while a < stop:
            run_stop = min(a + stripe, stop)
            counts[chan] += run_stop - a
            page_channel[a:run_stop] = stripe_channel[chan][: run_stop - a]
            while a < run_stop:
                block = active[chan]
                used = fill[chan]
                if block is None or used >= per_block:
                    self.write_seq = seq0 + a + 1
                    block = self._reopen(active, chan)
                    used = 0
                b = min(run_stop, a + per_block - used)
                p2b[a:b] = array("i", (block,)) * (b - a)
                valid[block] += b - a
                block_pages[block] += page_ids[a:b]
                fill[chan] = used + b - a
                a = b
            chan = (chan + 1) % nchan
        self.write_seq = seq0 + stop
        return counts

    def _append_page(self, logical_page: int, channel: int, stream: int = 0) -> None:
        """Append one host page to ``channel``'s active block of host
        stream ``stream``, invalidating the previous copy.

        The scalar primitive: one-page host writes and multi-page
        writes on a nearly dry pool.  The old copy is dropped only once
        the block is open: an emergency GC inside :meth:`_reopen` may
        move that copy, and its count must move with it.
        """
        active, fill = self._host_active[stream], self._host_fill[stream]
        self.write_seq += 1
        block = active[channel]
        used = fill[channel]
        if block is None or used >= self.pages_per_block:
            block = self._reopen(active, channel)
            used = 0
        p2b = self._p2b
        valid = self._valid
        old = p2b[logical_page]
        if old != UNMAPPED:
            valid[old] -= 1
        p2b[logical_page] = block
        self.page_channel[logical_page] = channel
        valid[block] += 1
        self.block_pages[block].append(logical_page)
        fill[channel] = used + 1

    def _reopen(self, lane: List[Optional[int]], channel: int) -> int:
        """Give ``lane``'s ``channel`` a fresh block and return it; the
        block it had, full, closes and becomes a GC candidate.  It stays
        barred while the allocation runs, so an emergency GC there cannot
        pick it, as it could not while the lane still listed it."""
        block = self._allocate_block(channel)
        old = lane[channel]
        if old is not None:
            self._penalty[old] = 0
        lane[channel] = block
        return block

    def _allocate_block(self, channel: int) -> int:
        if not self.free_blocks:
            # Emergency: evacuate synchronously so the write can proceed.
            # The device-level flow control (host writes stall while
            # ``host_starved``) is sized to make this unreachable; count
            # it so tests can assert the background GC keeps up.
            if self._in_gc:
                raise RuntimeError(_EXHAUSTED)
            self.emergency_gcs += 1
            move = self.collect_victim()
            if move is None:
                raise RuntimeError("FTL out of space: no GC victim available")
        block = self.free_blocks.popleft()
        self._note_pool()
        self.block_channel[block] = channel
        self.block_seq[block] = self.write_seq
        return block

    # -- garbage collection ----------------------------------------------------

    def active_blocks(self) -> List[Optional[int]]:
        """All blocks currently open for appends (never GC victims)."""
        out: List[Optional[int]] = []
        for lane in self._host_active:
            out.extend(lane)
        out.extend(self._gc_active)
        return out

    def pick_victim(self) -> Optional[int]:
        """Policy-chosen victim: the next closed block GC should evacuate."""
        return self.policy.select_victim(self)

    def collect_victim(self) -> Optional[GcMove]:
        """Evacuate and erase the best victim block.

        The map is updated immediately; the device model charges the
        corresponding channel time afterwards.  Returns None when no
        victim exists.  One pass per victim: a single page-map gather
        over the pages listed on the victim finds those still live there
        (a page listed twice moves at its first listing, as a page walk
        re-checking the map would), and :meth:`_append_gc` copies them.
        The gather reads the victim's log through a zero-copy view, which
        is dropped before the erase empties that log (a live view pins
        the array's size).  A victim with no live page — every page
        overwritten or trimmed, a third of run-time victims — skips both
        and is erased at once.
        """
        victim = self.pick_victim()
        if victim is None:
            return None
        victim_channel = self.block_channel.item(victim)
        # Mark the victim as in-evacuation so re-entrant victim picks
        # (GC allocating its own destination blocks) cannot select it.
        self.block_channel[victim] = -2
        self._penalty[victim] = self._barred
        start = self._gc_cursor
        self._gc_cursor = (start + 1) % self.channels
        log = self.block_pages[victim]
        n_live = self._valid[victim]
        if n_live:
            view = np.frombuffer(log, dtype=np.int32)
            live = view[self.page_to_block[view] == victim].tolist()
            del view
            if len(live) > n_live:  # a page listed twice moves once
                live = list(dict.fromkeys(live))
            n_live = len(live)
            self._in_gc = True
            try:
                copies = [(c, n) for c, n in enumerate(self._append_gc(live, start)) if n]
            finally:
                self._in_gc = False
            # Erase: back to the free pool.
            self._valid[victim] = 0
        else:
            copies = []
        self.block_channel[victim] = -1
        del log[:]
        self.free_blocks.append(victim)
        self._note_pool()
        return GcMove(
            victim=victim,
            victim_channel=victim_channel,
            copies=copies,
            valid_pages=n_live,
        )

    def _append_gc(self, pages: List[int], start: int) -> List[int]:
        """Copy ``pages`` onto the GC stream, one slice per stripe run.

        The GC twin of :meth:`_append_striped`: page ``i`` goes to
        channel ``(start + i // stripe_pages) % channels``, each run
        into that channel's GC active block, opening a block exactly
        where copying page by page would.  The victim's valid count is
        not dropped page by page: its erase zeroes it.  A victim holds
        a handful of live pages (8.8 on average in a saturated PUT
        load), so each page's two map entries are scalar stores, which
        cost less than converting the pages to an index array.  Returns
        pages programmed per channel.
        """
        nchan = self.channels
        stripe = self.stripe_pages
        per_block = self.pages_per_block
        p2b = self._p2b
        valid = self._valid
        block_pages = self.block_pages
        page_channel = self.page_channel
        active, fill = self._gc_active, self._gc_fill
        counts = [0] * nchan
        stop = len(pages)
        chan = start
        a = 0
        while a < stop:
            run_stop = min(a + stripe, stop)
            counts[chan] += run_stop - a
            while a < run_stop:
                block = active[chan]
                used = fill[chan]
                if block is None or used >= per_block:
                    block = self._reopen(active, chan)
                    used = 0
                b = min(run_stop, a + per_block - used)
                run = pages[a:b]
                for page in run:
                    p2b[page] = block
                    page_channel[page] = chan
                valid[block] += b - a
                block_pages[block].extend(run)
                fill[chan] = used + b - a
                a = b
            chan = (chan + 1) % nchan
        return counts

    # -- preconditioning --------------------------------------------------------

    def precondition(self, age_factor: float = 2.0) -> None:
        """Bring the device to its aged steady state, instantly.

        Fills the logical space in LBA order (so sequential reads stripe
        evenly across channels, matching a freshly streamed device), then
        ages the device with ``age_factor`` × logical-capacity worth of
        uniform random page overwrites, running GC as a real device
        would.  This converges the per-block valid-count distribution to
        the greedy-GC steady state so write workloads see realistic
        (finite!) write amplification from their first IO.

        Both phases go in as batches (:meth:`_host_appends`), and so
        does GC: each burst to the high watermark is one
        :meth:`_gc_pass`, not one :meth:`collect_victim` per victim.
        Yet every field, ``rng`` included, ends exactly as one
        ``_append_page`` per page with the watermark checked after each,
        and GC one victim at a time, would leave it.
        """
        if not 0 <= age_factor < math.inf:
            raise ValueError(f"age_factor {age_factor} must be finite and >= 0")
        n_pages = self.logical_pages
        nchan = self.channels
        for first in range(0, n_pages, _CHUNK):
            lba = np.arange(first, min(first + _CHUNK, n_pages))
            self._host_appends(lba, lba // self.stripe_pages % nchan, None)
        # write i of the aging goes to channel (cursor + i) % channels
        chan = self._host_cursor[0]
        ring = np.arange(_CHUNK + nchan, dtype=np.int16) % nchan
        newest = np.full(n_pages, -1, dtype=np.int32)  # reused by every batch
        for pages in self._draw_pages(int(n_pages * age_factor)):
            self._host_appends(pages, ring[chan:chan + len(pages)], newest)
            chan = (chan + len(pages)) % nchan
        self._sync_gc()
        self.emergency_gcs = 0

    def _host_appends(self, pages: np.ndarray, chans: np.ndarray, newest: np.ndarray) -> None:
        """Append page ``pages[i]`` to channel ``chans[i]`` of host
        stream 0 for every ``i``, running GC to the high watermark
        whenever the pool reaches the low one.  ``newest`` is a work
        array for :meth:`_append_batch`, -1 for every page; None when
        the pages are distinct."""
        i, n = 0, len(pages)
        while i < n:
            if self.gc_needed:  # the pool starts drained: GC after each write
                self._append_page(pages.item(i), chans.item(i))
                i += 1
            else:
                i += self._append_batch(pages[i:], chans[i:], newest)
            if self.gc_needed:
                self._sync_gc()

    def _append_batch(self, pages: np.ndarray, chans: np.ndarray, newest: np.ndarray) -> int:
        """Append a prefix of :meth:`_host_appends`' writes in one pass
        and return its length: at most up to the write whose block
        brings the free pool to the low watermark.

        Until then the pool only shrinks and no GC runs, so the writes
        open blocks where :meth:`_runs` says, taking the free list's
        blocks in order, each stamped with the write clock at that
        write; and no write reads a valid count, so a page written ``k``
        times nets −1 at the block it held before and +1 at the block of
        its last copy, while every copy is listed on its block in write
        order.
        """
        nchan = self.channels
        per_block = self.pages_per_block
        budget = len(self.free_blocks) - self._gc_low_blocks  # >= 1: gc not needed
        active, fill = self._host_active[0], self._host_fill[0]
        # Past the open blocks' room, every per_block writes open at least
        # one block: the batch ends within this many.
        cap = budget * per_block
        for block, used in zip(active, fill):
            if block is not None:
                cap += per_block - used
        pages, chans = pages[:cap], chans[:cap]
        order = np.argsort(chans.astype(np.int16), kind="stable")
        counts = np.bincount(chans, minlength=nchan)
        runs = self._runs(order, counts, active, fill)
        n = len(pages)
        if len(runs.opens) >= budget:
            n = int(runs.opens[budget - 1]) + 1
            pages, chans = pages[:n], chans[:n]
            order = order[order < n]
            counts = np.bincount(chans, minlength=nchan)
            runs = self._runs(order, counts, active, fill)
        opens = runs.opens
        free = self.free_blocks
        fresh = list(islice(free, len(opens)))
        for _ in fresh:
            free.popleft()
        self.block_channel[fresh] = chans[opens]
        self.block_seq[fresh] = self.write_seq + 1 + opens
        listed = pages[order]
        owner = self._fill_runs(listed, runs, fresh, active, fill)
        distinct, last = listed, owner
        last_chans = np.repeat(np.arange(nchan, dtype=np.uint8), counts)
        if newest is not None:  # each distinct page once, at its last copy
            np.maximum.at(newest, pages, np.arange(n, dtype=np.int32))
            is_last = newest[listed] == order
            newest[pages] = -1
            distinct, last, last_chans = listed[is_last], owner[is_last], last_chans[is_last]
        page_to_block = self.page_to_block
        old = page_to_block[distinct]
        page_to_block[distinct] = last
        self._page_channel_np[distinct] = last_chans
        n_blocks = len(self.block_valid)
        self.block_valid += np.bincount(last, minlength=n_blocks)
        self.block_valid -= np.bincount(old[old != UNMAPPED], minlength=n_blocks)
        self.write_seq += n
        self._note_pool()
        return n

    def _runs(self, order, counts, active, fill) -> _Runs:
        """Where a stream's writes land, worked out per block rather
        than per write.

        In *channel order* — the writes by channel, then in write order
        (``order``, a stable sort), ``counts[c]`` of them on channel
        ``c`` — each channel's writes fill the room left in its open
        block (``active``, filled to ``fill``), then open a block every
        ``pages_per_block`` writes, so each block's writes are one run.
        """
        per_block = self.pages_per_block
        lo, chan, opening, at = [], [], [], []
        start = 0
        for c, count in enumerate(counts.tolist()):
            if count:
                head = 0 if active[c] is None else min(per_block - fill[c], count)
                if head:
                    lo.append(start)
                    chan.append(c)
                    opening.append(False)
                opened = range(start + head, start + count, per_block)
                lo += opened
                at += opened
                chan += [c] * len(opened)
                opening += [True] * len(opened)
                start += count
        opener = order[at]
        by = np.argsort(opener)
        return _Runs(lo, chan, opening, opener, by, opener[by])

    def _fill_runs(self, listed, runs: _Runs, fresh, active, fill) -> np.ndarray:
        """Append ``listed`` — the writes' pages in channel order — to
        their blocks and return each one's block.

        A run's block is its channel's open block, or the block its
        opening write takes: ``fresh`` hands them out in write order.
        Each run is one slice of one ``bytes`` appended to its block's
        log.  Each channel's last block is left open, and lists exactly
        the pages its fill counts; every other block the runs filled, and
        each block a channel had open before, closes.
        """
        block_pages = self.block_pages
        taken = np.empty(len(fresh), dtype=np.intp)
        taken[runs.by] = fresh
        taken = iter(taken.tolist())
        blocks = []
        for c, opens in zip(runs.chan, runs.opening):
            blocks.append(next(taken) if opens else active[c])
        bounds = np.array([*runs.lo, len(listed)])
        data = listed.astype(np.int32).tobytes()
        cut = (4 * bounds).tolist()
        for block, a, b in zip(blocks, cut, cut[1:]):
            block_pages[block].frombytes(data[a:b])
        shut = set(blocks)
        for c, block in dict(zip(runs.chan, blocks)).items():
            shut.add(active[c])
            active[c] = block
            fill[c] = len(block_pages[block])
        shut.difference_update(active)
        shut.discard(None)
        self.victim_penalty[list(shut)] = 0
        return np.repeat(np.array(blocks, dtype=np.int32), np.diff(bounds))

    def _draw_pages(self, count: int):
        """Yield ``count`` values of ``rng.randrange(logical_pages)`` as
        arrays of at most ``_CHUNK``, then leave ``rng`` where those
        calls would.

        ``randrange(n)`` keeps the top ``n.bit_length()`` bits of one
        32-bit Mersenne Twister output and draws again while they are
        ``>= n`` (CPython's ``_randbelow``, for ``n < 2**32``), so the
        accepted raw outputs of a numpy MT19937 put in ``rng``'s state
        are exactly the scalar draws.
        """
        n = self.logical_pages
        shift = 32 - n.bit_length()
        version, internal, gauss = self.rng.getstate()
        twister = np.random.MT19937(0)
        twister.state = {
            "bit_generator": "MT19937",
            "state": {"key": np.array(internal[:-1], dtype=np.uint32), "pos": internal[-1]},
        }
        while count:
            # the state to rewind to, needed only for a chunk that can be
            # the last (a chunk holds at most _CHUNK hits)
            before = twister.state if count <= _CHUNK else None
            raw = (twister.random_raw(_CHUNK) >> shift).view(np.int64)
            hits = np.flatnonzero(raw < n)
            if len(hits) >= count:  # rewind to just past the last one used
                twister.state = before
                twister.random_raw(int(hits[count - 1]) + 1)
                hits = hits[:count]
            count -= len(hits)
            yield raw[hits]
        state = twister.state["state"]
        self.rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss))

    def _sync_gc(self) -> None:
        """Run GC to the high watermark with no simulated time cost."""
        while not self.gc_satisfied and self._gc_pass():
            pass

    def _gc_pass(self) -> bool:
        """Evacuate and erase, in one pass, the victims
        :meth:`collect_victim` would take one at a time from here, up to
        the one whose erase brings the pool to the high watermark.
        Returns False when no closed block is left.

        While GC runs no closed block's key changes — it copies live
        pages off victims and stamps only the blocks it opens — so one
        sort of the closed blocks by the policy's
        :meth:`~repro.ssd.ftl_policy.FtlPolicy.victim_key` orders the
        victims, up to where a GC block closing mid-pass would sort
        before a later victim (:meth:`_resort`): the pass ends there,
        and the next one sorts again.  Victim ``j``'s live pages are
        striped from channel ``cursor + j`` and placed by :meth:`_runs`;
        the blocks they open come off the free list in page order, then
        the victims in erase order (a victim erased earlier in the pass
        may come back).  A pass that would find the pool empty before
        any stop raises the ``RuntimeError`` of ``_allocate_block``.
        """
        nchan = self.channels
        per_block = self.pages_per_block
        block_valid = self.block_valid
        active, fill = self._gc_active, self._gc_fill
        victims = np.flatnonzero(self.victim_penalty == 0)
        if not len(victims):
            return False
        keys = self.policy.victim_key(self, block_valid[victims], self.block_seq[victims])
        rank = np.argsort(keys, kind="stable")
        victims, keys = victims[rank], keys[rank]
        valid = block_valid[victims].astype(np.intp)
        ends = np.cumsum(valid)
        # Victims 0..j open at most ends[j] / per_block blocks plus one
        # per channel: the pool is sure to be full by the first j where
        # this holds.
        free0 = len(self.free_blocks)
        high = self._gc_high_blocks
        sure = np.flatnonzero((free0 + 1 - nchan - high + np.arange(len(ends))) * per_block >= ends)
        if len(sure):
            n = int(sure[0]) + 1
            victims, keys, valid, ends = victims[:n], keys[:n], valid[:n], ends[:n]
        n = len(victims)
        # page i of victim j goes to channel cursor + j + i // stripe
        of = np.repeat(np.arange(n), valid)
        local = np.arange(len(of)) - (ends - valid)[of]
        chans = (self._gc_cursor + of + local // self.stripe_pages) % nchan
        order = np.argsort(chans.astype(np.int16), kind="stable")
        runs = self._runs(order, np.bincount(chans, minlength=nchan), active, fill)
        # Opening k takes the pool's k-th block: the free list's, then
        # the victims' in erase order, which victim j reaches only once
        # they are erased.
        opener = of[runs.opens]
        dry = np.flatnonzero(np.arange(len(opener)) >= free0 + opener)
        stop = n
        if len(dry):
            stop, cut = int(opener[dry[0]]), int(runs.opens[dry[0]])
            order, opener = order[order < cut], opener[: dry[0]]
            runs = self._runs(order, np.bincount(chans[:cut], minlength=nchan), active, fill)
        fresh = list(islice(self.free_blocks, len(opener)))
        fresh += victims[: len(opener) - len(fresh)].tolist()
        # the pool after each victim's erase
        pool = free0 + np.arange(1, n + 1) - np.searchsorted(opener, np.arange(n), "right")
        full = np.flatnonzero(pool[:stop] >= high)
        resort = self._resort(victims, keys, runs, fresh, of)
        if len(dry) and not len(full) and resort > stop:
            raise RuntimeError(_EXHAUSTED)
        m = min(int(full[0]) + 1 if len(full) else stop, resort)
        self._gc_apply(victims[:m], int(ends[m - 1]), chans, order, fresh)
        return True

    def _resort(self, victims, keys, runs: _Runs, fresh, of) -> int:
        """How many of the sorted ``victims`` (keys ``keys``) a pass may
        take before a GC block it closes would sort ahead of the next.

        Each opening closes its channel's block before: the one open
        before the pass, with its room filled, or one the pass opened
        (``fresh``, handed out in write order), full and stamped now.  A
        closed block is a candidate from the victim after the one whose
        pages closed it (``of``: the victim of each write), and sorts
        ahead of all but ``ahead`` victims.
        """
        per_block = self.pages_per_block
        active, fill = self._gc_active, self._gc_fill
        taken = np.empty(len(fresh), dtype=np.intp)
        taken[runs.by] = fresh
        taken = taken.tolist()
        after = (of[runs.opener] + 1).tolist()
        shut, valid, seq, when = [], [], [], []
        j = 0  # openings so far, in channel order
        for r, (c, opens) in enumerate(zip(runs.chan, runs.opening)):
            if not opens:
                continue
            if r and runs.chan[r - 1] == c and runs.opening[r - 1]:
                shut.append(taken[j - 1])
                valid.append(per_block)
                seq.append(self.write_seq)
                when.append(after[j])
            elif active[c] is not None:
                shut.append(active[c])
                valid.append(self._valid[active[c]] + per_block - fill[c])
                seq.append(self.block_seq.item(active[c]))
                when.append(after[j])
            j += 1
        if not shut:
            return len(victims) + 1
        shut_keys = self.policy.victim_key(self, np.array(valid), np.array(seq))
        n = len(victims)
        if shut_keys.min() > keys[-1]:  # behind every victim
            return n + 1
        merged = np.lexsort((np.concatenate((victims, shut)), np.concatenate((keys, shut_keys))))
        is_victim = merged < n
        ahead = np.cumsum(is_victim)[~is_victim]
        return int(np.maximum(ahead, np.array(when)[merged[~is_victim] - n]).min())

    def _gc_apply(self, victims, n, chans, order, fresh) -> None:
        """Move the ``n`` live pages of ``victims`` to the GC stream —
        page ``i``, in victim order and each victim's in the order its
        log first lists them, to channel ``chans[i]``, the blocks they
        open taken from ``fresh`` — and erase the victims."""
        nchan = self.channels
        block_valid = self.block_valid
        block_channel = self.block_channel
        active, fill = self._gc_active, self._gc_fill
        logs = list(map(self.block_pages.__getitem__, victims.tolist()))
        listed = np.frombuffer(b"".join(logs), dtype=np.int32)
        held = np.repeat(victims, list(map(len, logs)))
        live = listed[self.page_to_block[listed] == held]
        if len(live) > n:  # a page listed twice moves once, at its first listing
            live = live[np.sort(np.unique(live, return_index=True)[1])]
        chans = chans[:n]
        order = order[order < n]
        runs = self._runs(order, np.bincount(chans, minlength=nchan), active, fill)
        fresh = fresh[: len(runs.opens)]
        block_valid[victims] = 0
        block_channel[victims] = -1
        self.victim_penalty[victims] = self._barred
        for log in logs:
            del log[:]
        block_channel[fresh] = chans[runs.opens]
        self.block_seq[fresh] = self.write_seq
        pages = live[order]
        owner = self._fill_runs(pages, runs, fresh, active, fill)
        self.page_to_block[pages] = owner
        self._page_channel_np[pages] = chans[order]
        block_valid += np.bincount(owner, minlength=len(block_valid))
        free = self.free_blocks
        if len(fresh) > len(free):  # the pass reopened some of its own victims
            victims = victims[len(fresh) - len(free):]
            free.clear()
        else:
            for _ in fresh:
                free.popleft()
        free.extend(victims.tolist())
        self._gc_cursor = (self._gc_cursor + len(logs)) % nchan
        self._note_pool()
