"""The durable write path's bulk rewrites, checked against the per-item
walks they replaced.

FLUSH, COMPACT, WAL retirement and FTL GC used to walk their entries,
extents or pages one at a time; each is now a bulk operation that must
produce *identical* output, so every simulated trajectory is unchanged
by construction.  The old spellings stay here as the references, as
``tests/test_device_op_path.py`` keeps ``ReferenceFtl``:

- ``merge_entries`` / ``split_outputs``: the per-entry merge (first size
  seen newest-first wins) and the running-total split;
- ``TableBuilder.build``: the offset loop, and ``data_bytes`` as the sum
  of the positive sizes;
- ``SimFilesystem.delete``: one bisect/insert/coalesce per extent;
- ``Ftl.collect_victim``: the page-by-page walk that re-checks the map
  and copies each live page one at a time;
- the counter join behind a multi-extent file IO, which its ops book
  into with no Event each, against ``AllOf`` over one Event per op.
"""

import bisect
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .helpers import assert_counts_are_the_map, linear_first_fit, queue_counter, reference_victim
from .test_device_op_path import INTEL, POLICIES, assert_same_state, mixed_ops
from repro.core.tags import IoTag, RequestClass
from repro.engine import TOMBSTONE, SsTable, TableBuilder, merge_entries, split_outputs
from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.sim import AllOf, Simulator
from repro.ssd import RawBackend, SimFilesystem, SsdDevice, SsdProfile
from repro.ssd.filesystem import _Join
from repro.ssd.ftl import UNMAPPED, Ftl, GcMove

KIB = 1024
MIB = 1024 * KIB
TAG = IoTag("t1", RequestClass.PUT)

oracle_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

sizes_st = st.one_of(st.just(TOMBSTONE), st.just(0), st.integers(1, 300 * KIB))


# ---------------------------------------------------------------------------
# compaction: merge and split
# ---------------------------------------------------------------------------


def reference_merge_entries(inputs, drop_tombstones):
    newest = {}
    for table in inputs:
        for key, size in zip(table.keys, table.sizes):
            if key not in newest:
                newest[key] = size
    for key in sorted(newest):
        size = newest[key]
        if drop_tombstones and size == TOMBSTONE:
            continue
        yield key, size


def reference_split_outputs(entries, max_file_bytes):
    batch = []
    batch_bytes = 0
    for key, size in entries:
        batch.append((key, size))
        batch_bytes += max(size, 0)
        if batch_bytes >= max_file_bytes:
            yield batch
            batch = []
            batch_bytes = 0
    if batch:
        yield batch


class Columns:
    """The two columns ``merge_entries`` reads off a table."""

    def __init__(self, layer):
        self.keys = sorted(layer)
        self.sizes = [layer[key] for key in self.keys]


@oracle_settings
@given(
    # keys from a small range, so inputs repeat each other's keys
    layers=st.lists(st.dictionaries(st.integers(0, 40), sizes_st, min_size=1), max_size=6),
    drop=st.booleans(),
)
def test_merge_entries_equals_the_per_entry_merge(layers, drop):
    tables = [Columns(layer) for layer in layers]
    assert list(merge_entries(tables, drop)) == list(reference_merge_entries(tables, drop))


@oracle_settings
@given(
    sizes=st.lists(sizes_st, max_size=80),
    max_file_bytes=st.one_of(st.integers(-1, 8), st.integers(1, 2 * MIB)),
)
def test_split_outputs_equals_the_per_entry_split(sizes, max_file_bytes):
    entries = list(enumerate(sizes))
    got = list(split_outputs(iter(entries), max_file_bytes))
    assert got == list(reference_split_outputs(iter(entries), max_file_bytes))
    assert all(isinstance(batch, list) for batch in got)


# ---------------------------------------------------------------------------
# tables: layout and live bytes
# ---------------------------------------------------------------------------


class InstantBackend:
    """Every write completes at once; every TRIM is logged."""

    def __init__(self, sim):
        self.sim = sim
        self.trims = []

    def write(self, offset, size, tag=None, done=None):
        if done is not None:
            done.succeed()
        return self.sim.timeout(0.0)

    def trim_extents(self, extents):
        self.trims.extend(extents)


def reference_layout(entries):
    """The offset loop: ``(keys, sizes, offsets, total)`` of a table."""
    keys, sizes, offsets = [], [], []
    pos = 0
    for key, size in entries:
        keys.append(key)
        sizes.append(size)
        offsets.append(pos)
        pos += max(size, 0)
    index_region = -(-len(keys) * 24 // 4096) * 4096
    return keys, sizes, [index_region + o for o in offsets], index_region + pos


@oracle_settings
@given(layer=st.dictionaries(st.integers(0, 10_000), sizes_st, min_size=1, max_size=400))
def test_built_table_equals_the_offset_loop(layer):
    sim = Simulator()
    fs = SimFilesystem(sim, InstantBackend(sim), capacity=256 * MIB)
    entries = sorted(layer.items())
    proc = sim.process(TableBuilder(sim, fs).build(iter(entries), TAG))
    sim.run()
    table = proc.value
    keys, sizes, offsets, total = reference_layout(entries)
    assert (table.keys, table.sizes, table.offsets) == (keys, sizes, offsets)
    assert table.file.size == max(total, 4096)
    assert table.index_bytes == len(keys) * 24
    assert table.data_bytes == sum(s for s in sizes if s > 0)


@oracle_settings
@given(sizes=st.lists(sizes_st, min_size=1, max_size=50))
def test_data_bytes_equals_the_sum_of_positive_sizes(sizes):
    table = SsTable(None, list(range(len(sizes))), sizes, [0] * len(sizes), 0)
    assert table.data_bytes == sum(s for s in sizes if s > 0)


# ---------------------------------------------------------------------------
# file deletion: the free list
# ---------------------------------------------------------------------------


class ReferenceFs(SimFilesystem):
    """``delete`` as it was: TRIM and release one extent at a time.
    Allocation is the linear first fit, which reads ``_free`` alone:
    the per-extent release below keeps no big-hole index."""

    def _allocate(self, want):
        return linear_first_fit(self, want)

    def delete(self, f):
        if f.deleted:
            return
        f.deleted = True
        for dev_off, length in f.extents:
            self.backend.trim_extents([(dev_off, length)])
            self._release_one(dev_off, length)
        f.extents = []
        f._starts = []
        f.allocated = 0
        self._files.pop(f.name, None)

    def _release_one(self, off, length):
        free = self._free
        i = bisect.bisect_left(free, (off, 0))
        free.insert(i, (off, length))
        self._free_bytes += length
        if i + 1 < len(free):
            o2, l2 = free[i + 1]
            if off + length == o2:
                free[i] = (off, length + l2)
                free.pop(i + 1)
        if i > 0:
            o0, l0 = free[i - 1]
            off, length = free[i]
            if o0 + l0 == off:
                free[i - 1] = (o0, l0 + length)
                free.pop(i)


@oracle_settings
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 5),
            # mostly WAL-sized appends (one or two pages each), a few
            # SSTable chunks; 0 deletes the slot's file
            st.one_of(st.just(0), st.integers(1, 9000), st.integers(9000, 300 * KIB)),
        ),
        max_size=120,
    )
)
def test_delete_rebuilds_the_free_list_the_per_extent_release_builds(ops):
    capacity = 4 * MIB
    systems = []
    for cls in (SimFilesystem, ReferenceFs):
        sim = Simulator()
        systems.append((cls(sim, InstantBackend(sim), capacity=capacity), {}))
    for slot, size in ops:
        for fs, files in systems:
            if size == 0:
                if slot in files:
                    fs.delete(files.pop(slot))
            elif size <= fs.free_bytes:
                if slot not in files:
                    files[slot] = fs.create()
                files[slot].append(size)
        (fs, _), (ref, _) = systems
        assert fs._free == ref._free
        assert fs.free_bytes == ref.free_bytes == sum(length for _off, length in fs._free)
        assert fs.backend.trims == ref.backend.trims  # one TRIM per extent, in order


def test_delete_of_a_file_spread_over_many_holes():
    """Two interleaved logs of one-page extents, then one deleted: its
    extents land between the other's, so the rebuilt stretch spans the
    whole list, and only the last extent coalesces (with the free space
    after both logs)."""
    systems = []
    for cls in (SimFilesystem, ReferenceFs):
        sim = Simulator()
        fs = cls(sim, InstantBackend(sim), capacity=8 * MIB)
        logs = [fs.create(), fs.create()]
        for i in range(600):
            logs[i % 2].append(4096)
        fs.delete(logs[1])
        systems.append(fs)
    fs, ref = systems
    assert len(fs._free) == 300
    assert fs._free == ref._free and fs.free_bytes == ref.free_bytes


# ---------------------------------------------------------------------------
# GC: one pass per victim
# ---------------------------------------------------------------------------


def gc_copy_page(ftl, page, channel):
    """Copy ``page`` onto ``channel``'s GC block, one page at a time, as
    GC did before :meth:`Ftl._append_gc`: drop the old copy, open a
    block if the lane's is full, map the page there."""
    old = ftl.page_to_block[page]
    if old != UNMAPPED:
        ftl.block_valid[old] -= 1
    active, fill = ftl._gc_active, ftl._gc_fill
    block, used = active[channel], fill[channel]
    if block is None or used >= ftl.pages_per_block:
        block, used = ftl._reopen(active, channel), 0
    ftl.page_to_block[page] = block
    ftl.page_channel[page] = channel
    ftl.block_valid[block] += 1
    ftl.block_pages[block].append(page)
    fill[channel] = used + 1


class ReferenceGcFtl(Ftl):
    """``collect_victim`` as it was: walk the listed pages, re-check
    each against the map and copy it one page at a time.  Each
    victim is picked by :func:`~tests.helpers.reference_victim`, which
    reads the lanes and channels, not the FTL's victim index: the walk
    below erases without keeping that index."""

    def pick_victim(self):
        return reference_victim(self)

    def collect_victim(self):
        victim = self.pick_victim()
        if victim is None:
            return None
        victim_channel = int(self.block_channel[victim])
        self.block_channel[victim] = -2
        self._in_gc = True
        nchan = self.profile.channels
        stripe = self.profile.stripe_pages
        copies = [0] * nchan
        moved = 0
        start = self._gc_cursor
        self._gc_cursor = (start + 1) % nchan
        try:
            for p in self.block_pages[victim]:
                if self.page_to_block[p] == victim:
                    chan = (start + moved // stripe) % nchan
                    gc_copy_page(self, p, chan)
                    copies[chan] += 1
                    moved += 1
        finally:
            self._in_gc = False
        self.block_valid[victim] = 0
        self.block_channel[victim] = -1
        del self.block_pages[victim][:]
        self.free_blocks.append(victim)
        self._note_pool()
        return GcMove(
            victim=victim,
            victim_channel=victim_channel,
            copies=[(c, n) for c, n in enumerate(copies) if n],
            valid_pages=moved,
        )


@pytest.mark.parametrize("policy", POLICIES)
def test_gc_victims_equal_the_page_walk(policy):
    """Preconditioning alone collects thousands of victims on each side;
    then a seeded op mix runs GC to the high watermark whenever it is
    needed, every ``GcMove`` compared."""
    ftl = Ftl(INTEL, seed=4, policy=policy)
    ref = ReferenceGcFtl(INTEL, seed=4, policy=policy)
    ftl.precondition(age_factor=1.0)
    ref.precondition(age_factor=1.0)
    assert_same_state(ftl, ref, "after preconditioning")
    rng = random.Random(len(policy))
    victims = 0
    for i, (method, offset, size) in enumerate(mixed_ops(rng, INTEL, 1500)):
        assert getattr(ftl, method)(offset, size) == getattr(ref, method)(offset, size)
        while ftl.gc_needed and not ftl.gc_satisfied:
            assert ftl.collect_victim() == ref.collect_victim(), f"GC after op {i}"
            victims += 1
    assert victims > 20
    assert_same_state(ftl, ref, "at the end")


def test_a_page_listed_twice_moves_once_at_its_first_listing():
    """A page rewritten while its block is still open is listed on the
    block twice; the walk copied it at the first listing and skipped
    the second, whose map entry then named the copy."""
    profile = SsdProfile(name="tiny-gc", channels=4, logical_capacity=16 * MIB,
                         overprovision=0.5)
    ftl = Ftl(profile, seed=1)
    ref = ReferenceGcFtl(profile, seed=1)
    for each in (ftl, ref):
        for page in [5, 9, 5, 2, 9, 9, 7] + list(range(100, 157)):
            each._append_page(page, 0)
        each._append_page(500, 0)  # closes the block
        each.trim(7 * 4096, 4096)
    assert list(ftl.block_pages[ftl.page_to_block.item(500) - 1][:7]) == [5, 9, 5, 2, 9, 9, 7]
    move = ftl.collect_victim()
    assert move == ref.collect_victim()
    assert move.valid_pages == 3 + 57  # 5, 9 and 2 once each, 7 trimmed
    assert_same_state(ftl, ref, "after the victim")


def test_an_emergency_victim_emptied_by_the_write_that_triggered_it_moves_its_page():
    """With the pool empty, a host write's block opening runs an
    emergency GC, which can pick the block holding the old copy of the
    page being written: it is still live there, so GC copies it, and
    the write then drops the copy's count from the GC block.  Dropped
    before the opening, as it once was, the old block looked empty and
    the copy kept a count in the GC block that no map entry named."""
    profile = SsdProfile(name="tiny-gc", channels=1, pages_per_block=8,
                         logical_capacity=1 * MIB, overprovision=1.0)
    ftl = Ftl(profile, seed=1)
    ref = ReferenceGcFtl(profile, seed=1)
    for each in (ftl, ref):
        for page in range(16):  # block 0, then block 1 (full, still open)
            each._append_page(page, 0)
        gc_copy_page(each, 100, 0)  # a GC block with room
        each.trim_extents([(page * 4096, 4096) for page in range(1, 8)])
        each.free_blocks.clear()
        each._note_pool()
        assert each.block_valid[0] == 1 and each.pick_victim() == 0
        each.host_write(0, 4096)  # block 0's last page: count 0, then GC
        assert each.emergency_gcs == 1
        assert list(each.block_pages[2]) == [100, 0]  # the page was copied
        assert each.block_valid[2] == 1  # ... and its count went with it
        assert_counts_are_the_map(each)
    assert_same_state(ftl, ref, "after the emergency GC")


# ---------------------------------------------------------------------------
# the counter join
# ---------------------------------------------------------------------------


def test_join_succeeds_with_none_once_every_member_has():
    sim = Simulator()
    queued = queue_counter(sim)
    join = _Join(sim, 3)
    join.succeed("c")
    join.succeed("a")
    sim.run()
    assert not join.triggered and queued() == (0, 0)  # counting down queues nothing
    join.succeed("b")
    sim.run()
    assert join.processed and join.ok and join.value is None


def test_join_fails_with_the_first_failing_members_exception():
    sim = Simulator()
    queued = queue_counter(sim)
    join = _Join(sim, 3)
    first, second = OSError("first"), OSError("second")
    join.fail(first)
    join.fail(second)
    join.succeed()
    sim.run()
    assert not join.ok and join.value is first
    assert queued() == (0, 2)  # the first failure's action and the join's dispatch


@pytest.mark.parametrize("outcome", ["succeed", "fail", "fail_first"])
def test_join_fires_in_the_slot_allof_fires_in(outcome):
    """Ops booked on the join where per-op Events would be triggered,
    amid bystander events: the waiter on a join resumes exactly where a
    waiter on ``AllOf`` over the Events resumed, and exactly one queued
    action is gone -- the first op's dispatch, which could only count
    down or find the join already failed."""
    runs = []
    for ops_are_events in (False, True):
        sim = Simulator()
        queued = queue_counter(sim)
        if ops_are_events:
            members = [sim.event() for _ in range(2)]
            join = AllOf(sim, members)
        else:
            join = _Join(sim, 2)
            members = [join, join]
        log = []
        join.callbacks.append(lambda ev: log.append(("join", sim.now, ev.ok)))
        bystanders = [sim.event() for _ in range(3)]
        for i, ev in enumerate(bystanders):
            ev.callbacks.append(lambda _ev, i=i: log.append((i, sim.now)))
        bystanders[0].succeed()
        if outcome == "fail_first":
            members[0].fail(OSError("x"))
        else:
            members[0].succeed()
        bystanders[1].succeed()
        if outcome == "fail":
            members[1].fail(OSError("x"))
        else:
            members[1].succeed()
        bystanders[2].succeed()
        sim.run()
        runs.append((log, queued()))
    (log, actions), (ref_log, ref_actions) = runs
    assert log == ref_log
    assert actions == (0, ref_actions[1] - 1) and ref_actions[0] == 0


@pytest.mark.parametrize("outcome", ["succeed", "fail"])
def test_an_op_process_settles_the_join_in_its_own_dispatch(outcome):
    """The raw backend hands a multi-op IO's join to the device as each
    op's sink: the ops' finish actions book their outcomes on it, and
    the join fires in one dispatch of its own, no Event per op.  Under
    a write-error window the first finishing write fails it."""
    plan = None
    if outcome == "fail":
        plan = FaultPlan([FaultWindow(FaultKind.WRITE_ERROR, 0.0, 1.0, probability=1.0)])
    sim = Simulator()
    profile = SsdProfile(name="tiny", channels=4, logical_capacity=16 * MIB, overprovision=1.0)
    device = SsdDevice(sim, profile, seed=1, precondition=False, fault_plan=plan)
    backend = RawBackend(device)
    join = _Join(sim, 2)
    assert backend.write(0, 4 * KIB, None, join) is join
    assert backend.write(8 * KIB, 4 * KIB, None, join) is join
    queued = queue_counter(sim)
    sim.run()
    assert join.processed and join.ok == (outcome == "succeed")
    assert queued() == (0, 2)  # the join's action and its dispatch: nothing per op
    assert device.stats.writes + device.stats.write_faults == 2
