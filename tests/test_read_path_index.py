"""The engine's ordered indexes, checked against brute force.

Two kinds of test keep the read path honest:

- *property tests*: every index (memtable key list, per-level
  ``min_key`` arrays, the FTL's read-channel map, the filesystem's byte
  counters) must equal the linear walk it replaced, which stays here
  (or, shared, in ``helpers.py``) as the oracle;
- *growth tests*: the number of Python calls one scan, one GET and one
  WAL append make inside the engine and filesystem must not depend on
  how much out-of-range state exists.  Counts, not wall-clock, so they
  are exact and belong in tier-1.
"""

import bisect
import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from .helpers import count_calls, linear_first_fit, read_channels_per_page
from repro.core.tags import IoTag, RequestClass
from repro.engine import TOMBSTONE, EngineConfig, LsmEngine, Memtable, TableBuilder
from repro.engine.sstable import BLOCK_SIZE
from repro.engine.wal import Wal
from repro.sim import Simulator
from repro.ssd import RawBackend, SimFilesystem, SsdDevice, SsdProfile
from repro.ssd.ftl import UNMAPPED, Ftl

KIB = 1024
MIB = 1024 * 1024
TAG = IoTag("t1", RequestClass.PUT)

prop_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_engine(config=None, capacity=32 * MIB):
    sim = Simulator()
    profile = SsdProfile(
        name="tiny", channels=4, logical_capacity=capacity, overprovision=1.0
    )
    fs = SimFilesystem(
        sim, RawBackend(SsdDevice(sim, profile, seed=3)), capacity=capacity
    )
    return sim, fs, LsmEngine(sim, fs, "t1", config)


def drive(sim, gen):
    proc = sim.process(gen)
    sim.run()
    assert proc.triggered, "engine op deadlocked"
    assert proc.ok, proc.value
    return proc.value


# ---------------------------------------------------------------------------
# scan == brute force, with data in both memtables, L0 and L1
# ---------------------------------------------------------------------------

#: 6 KiB memtable and ~1 KiB values: a flush every ~6 puts and an L0->L1
#: compaction every other flush, both running beside the foreground ops
CHURN = EngineConfig(
    memtable_bytes=6 * KIB, l0_trigger=2, level1_bytes=64 * KIB,
    max_output_file_bytes=8 * KIB, io_chunk=16 * KIB,
)


def check_version_indexes(version):
    for level, tables in enumerate(version.levels):
        assert version._min_keys[level] == [t.min_key for t in tables]
        if level:
            bounds = [(t.min_key, t.max_key) for t in tables]
            assert bounds == sorted(bounds)
            assert all(a[1] < b[0] for a, b in zip(bounds, bounds[1:]))


def run_ops(ops):
    """Apply ops in one foreground process; returns the states scans saw.

    A single caller means the dict model is exact at every scan, while
    FLUSH and COMPACT proceed in the background between its IO waits.
    """
    sim, _fs, engine = make_engine(CHURN)
    model = {}
    seen = set()

    def caller():
        for op, key, arg in ops:
            if op == "put":
                yield from engine.put(key, arg)
                model[key] = arg
            elif op == "delete":
                yield from engine.delete(key)
                model.pop(key, None)
            else:
                lo, hi, limit = key, key + arg, (arg % 7) or None
                version = engine.version
                seen.add((
                    engine.immutable is not None and not engine.memtable.empty,
                    bool(version.levels[0]),
                    bool(version.levels[1]),
                ))
                check_version_indexes(version)
                for level, tables in enumerate(version.levels):
                    assert version.overlapping(level, lo, hi) == [
                        t for t in tables if t.overlaps(lo, hi)
                    ]
                got = yield from engine.scan(lo, hi, limit=limit)
                want = sorted((k, s) for k, s in model.items() if lo <= k <= hi)
                assert got == want[:limit]
                for probe in (lo, hi):
                    size = yield from engine.get(probe)
                    assert size == model.get(probe)

    drive(sim, caller())
    return seen


op_strategy = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 60), st.integers(900, 1100)),
    st.tuples(st.just("delete"), st.integers(0, 60), st.just(0)),
    st.tuples(st.just("scan"), st.integers(0, 60), st.integers(0, 40)),
)


@prop_settings
@given(ops=st.lists(op_strategy, max_size=60))
def test_scan_and_get_match_dict_model(ops):
    run_ops(ops)


def test_scan_matches_dict_model_with_every_source_populated():
    """A long seeded interleaving; some scan must have merged all four
    source kinds at once (else the property above proves little)."""
    rng = random.Random(7)
    ops = []
    for _ in range(400):
        roll = rng.random()
        key = rng.randrange(60)
        if roll < 0.6:
            ops.append(("put", key, rng.randrange(900, 1100)))
        elif roll < 0.7:
            ops.append(("delete", key, 0))
        else:
            ops.append(("scan", key, rng.randrange(40)))
    assert (True, True, True) in run_ops(ops)


# ---------------------------------------------------------------------------
# scan == the per-source assembly it replaced
# ---------------------------------------------------------------------------
#
# ``LsmEngine.scan`` lists its tables with one ``Version.scan_sources``
# call, bisects each table once, and merges every source through dict
# updates.  It used to list them level by level through ``overlapping``,
# bisect each table twice (``range_indices`` under both ``read_range``
# and ``range_items``), copy the memtables out as tuple lists and filter
# every merged row in a comprehension.  Those spellings stay here as the
# oracle; the two must return the same rows *and* issue the same device
# ops, in the same order, with the same tags.


def reference_overlapping(version, level, lo, hi):
    tables = version.levels[level]
    if level == 0:
        return [t for t in tables if t.overlaps(lo, hi)]
    min_keys = version._min_keys[level]
    first = bisect.bisect_right(min_keys, lo) - 1
    if first < 0 or tables[first].max_key < lo:
        first += 1
    return tables[first:bisect.bisect_right(min_keys, hi)]


def reference_tables(version, lo, hi):
    tables = []
    for level in range(version.max_levels - 1, 0, -1):
        tables.extend(reference_overlapping(version, level, lo, hi))
    tables.extend(reversed(reference_overlapping(version, 0, lo, hi)))
    return tables


def range_indices(table, lo, hi):
    return range(bisect.bisect_left(table.keys, lo), bisect.bisect_right(table.keys, hi))


def table_range_items(table, lo, hi):
    span = range_indices(table, lo, hi)
    return zip(table.keys[span.start:span.stop], table.sizes[span.start:span.stop])


def read_range(table, lo, hi, tag):
    indices = range_indices(table, lo, hi)
    if not indices:
        return None
    first, last = indices[0], indices[-1]
    start = (table.offsets[first] // BLOCK_SIZE) * BLOCK_SIZE
    if start >= table.file.size:
        # The one departure from the old spelling, which read one byte
        # past the end of a file whose span held trailing tombstones only
        # (test_engine.py has the case); it now reads the last block.
        start -= BLOCK_SIZE
    end = table.offsets[last] + max(table.sizes[last], 1)
    aligned_end = min(((end + BLOCK_SIZE - 1) // BLOCK_SIZE) * BLOCK_SIZE, table.file.size)
    return table.file.read(start, max(aligned_end - start, 1), tag=tag)


def memtable_range_items(memtable, lo, hi):
    keys = memtable._keys
    return [
        (key, memtable._entries[key].size)
        for key in keys[bisect.bisect_left(keys, lo):bisect.bisect_right(keys, hi)]
    ]


def reference_scan(engine, lo, hi, limit=None):
    tag = IoTag(engine.tenant, RequestClass.GET)
    engine.stats.scans += 1
    merged = {}
    tables = reference_tables(engine.version, lo, hi)
    memtables = (engine.immutable, engine.memtable)
    for table in tables:
        engine._ref(table)
    try:
        for table in tables:
            yield from engine._read_verified(
                read_range, table, lo, hi, span="sst.range", tag=tag,
            )
            merged.update(table_range_items(table, lo, hi))
    finally:
        for table in tables:
            engine._unref(table)
    for source in memtables:
        if source is not None:
            merged.update(memtable_range_items(source, lo, hi))
    results = [(key, size) for key, size in sorted(merged.items()) if size != TOMBSTONE]
    if limit is not None:
        results = results[:limit]
    engine.stats.scanned_entries += len(results)
    return results


class IoLog:
    """An IO backend wrapper recording every device op in issue order."""

    def __init__(self, backend):
        self.backend = backend
        self.ops = []

    def read(self, offset, size, tag=None, done=None):
        self.ops.append(("read", offset, size, tag))
        return self.backend.read(offset, size, tag, done)

    def write(self, offset, size, tag=None, done=None):
        self.ops.append(("write", offset, size, tag))
        return self.backend.write(offset, size, tag, done)

    def trim_extents(self, extents):
        self.ops.extend(("trim", offset, size) for offset, size in extents)
        self.backend.trim_extents(extents)


def scan_features(engine, lo, hi):
    """What a scan over [lo, hi] starting now meets, for the coverage check."""
    found = set()
    holders = {}  # in-range key -> the source kinds holding it
    for level in range(engine.version.max_levels):
        for table in reference_overlapping(engine.version, level, lo, hi):
            items = list(table_range_items(table, lo, hi))
            if not items:
                found.add("table without a key in range")
            for key, size in items:
                holders.setdefault(key, set()).add(min(level, 1))
                if size == TOMBSTONE:
                    found.add("tombstone")
    for kind, source in (("immutable", engine.immutable), ("memtable", engine.memtable)):
        for key, size in memtable_range_items(source or Memtable(1), lo, hi):
            holders.setdefault(key, set()).add(kind)
            if size == TOMBSTONE:
                found.add("tombstone")
    if any(len(kinds) == 4 for kinds in holders.values()):
        found.add("key in L0, L1 and both memtables")
    return found


def run_scans(ops, scan):
    """Apply ops in one foreground process, scanning with ``scan``.

    Returns every scan's rows, the device op log, the engine stats and
    the features the scans met.
    """
    sim, fs, engine = make_engine(CHURN)
    fs.backend = IoLog(fs.backend)
    rows = []
    seen = set()

    def caller():
        for op, key, arg, limit in ops:
            if op == "put":
                yield from engine.put(key, arg)
            elif op == "delete":
                yield from engine.delete(key)
            else:
                lo, hi = key, key + arg
                assert engine.version.scan_sources(lo, hi) == reference_tables(
                    engine.version, lo, hi
                )
                seen.update(scan_features(engine, lo, hi))
                got = yield from scan(engine, lo, hi, limit)
                seen.add(f"limit {limit}")
                if limit is not None and len(got) < limit:
                    seen.add("limit > rows")
                rows.append(got)

    drive(sim, caller())
    return rows, fs.backend.ops, vars(engine.stats), seen


def assert_scan_matches_reference(ops):
    got = run_scans(ops, lambda engine, lo, hi, limit: engine.scan(lo, hi, limit=limit))
    want = run_scans(ops, reference_scan)
    assert got[0] == want[0]  # rows
    assert got[1] == want[1]  # device ops: (offset, size, tag), in order
    assert got[2] == want[2]  # engine stats
    return got[3]


LIMITS = [None, 0, 1, 3, 1000]
scan_op_strategy = st.one_of(
    st.tuples(st.just("put"), st.integers(0, 40), st.integers(900, 1100), st.none()),
    st.tuples(st.just("delete"), st.integers(0, 40), st.just(0), st.none()),
    st.tuples(
        st.just("scan"), st.integers(0, 40), st.integers(0, 30), st.sampled_from(LIMITS)
    ),
)


@prop_settings
@given(ops=st.lists(scan_op_strategy, max_size=60))
def test_scan_equals_the_per_source_assembly(ops):
    assert_scan_matches_reference(ops)


def test_scan_equals_the_per_source_assembly_on_every_feature():
    """A long seeded interleaving over sparse keys (so tables span keys
    they do not hold); its scans must have met every listed feature."""
    rng = random.Random(1)
    ops = []
    for _ in range(500):
        roll = rng.random()
        key = 2 * rng.randrange(10)
        if roll < 0.6:
            ops.append(("put", key, rng.randrange(900, 1100), None))
        elif roll < 0.7:
            ops.append(("delete", key, 0, None))
        else:
            ops.append(("scan", rng.randrange(20), rng.randrange(12), rng.choice(LIMITS)))
    seen = assert_scan_matches_reference(ops)
    assert seen >= {
        "table without a key in range", "tombstone", "key in L0, L1 and both memtables",
        "limit > rows", *(f"limit {limit}" for limit in LIMITS),
    }, seen


# ---------------------------------------------------------------------------
# Memtable index
# ---------------------------------------------------------------------------

@prop_settings
@given(
    ops=st.lists(st.tuples(st.integers(0, 50), st.integers(-1, 4096)), max_size=80),
    lo=st.integers(-5, 55),
    span=st.integers(0, 60),
)
def test_memtable_index_is_sorted_entries(ops, lo, span):
    mt = Memtable(1 * MIB)
    model = {}
    for seq, (key, size) in enumerate(ops):
        size = size if size > 0 else TOMBSTONE
        mt.put(key, size, seq)
        model[key] = size
        assert mt._keys == sorted(model)
    assert [(k, e.size) for k, e in mt.sorted_entries()] == sorted(model.items())
    # merge_range overwrites in-range keys and leaves every other key be
    merged = {lo - 1: 0, lo + span + 1: 0}
    mt.merge_range(merged, lo, lo + span)
    assert merged == {
        lo - 1: 0, lo + span + 1: 0,
        **{k: s for k, s in model.items() if lo <= k <= lo + span},
    }


# ---------------------------------------------------------------------------
# FTL read fan-out
# ---------------------------------------------------------------------------

def assert_read_channel_map(ftl):
    """``Ftl.page_channel`` holds each page's block channel while the
    page is mapped and ``p % channels`` while it is not."""
    page_to_block = ftl.page_to_block
    want = np.where(
        page_to_block == UNMAPPED,
        np.arange(ftl.logical_pages) % ftl.channels,
        ftl.block_channel[page_to_block],
    )
    assert np.array_equal(np.frombuffer(ftl.page_channel, dtype=np.uint8), want)


#: one-page and striped writes, a TRIM of mapped pages, a two-page read
SITE_WRITES = [("write", 3, 1), ("write", 0, 20), ("trim", 5, 10), ("write", 9, 1)]
SITE_READS = [(0, 30 * 4096), (4096 + 700, 2 * 4096)]


@prop_settings
@given(
    preconditioned=st.booleans(),
    writes=st.lists(
        st.tuples(st.sampled_from(["write", "trim"]), st.integers(0, 250), st.integers(1, 40)),
        max_size=20,
    ),
    reads=st.lists(
        st.tuples(st.integers(0, 300 * 4096), st.integers(1, 70 * 4096)), min_size=1,
        max_size=20,
    ),
)
@example(preconditioned=False, writes=SITE_WRITES, reads=SITE_READS)
@example(preconditioned=True, writes=SITE_WRITES, reads=SITE_READS)
def test_read_channels_matches_per_page_loop(preconditioned, writes, reads):
    """The read-channel map against the page map it mirrors, after every
    write site: one-page and striped host writes, TRIMs, GC copies (the
    preconditioned device collects to its high watermark after each op)
    and preconditioning's batches."""
    profile = SsdProfile(name="prop", channels=4, logical_capacity=8 * MIB, overprovision=1.0)
    ftl = Ftl(profile, seed=1)
    if preconditioned:
        ftl.precondition(age_factor=0.5)
    assert_read_channel_map(ftl)
    page = profile.page_size
    for i, (kind, start, pages) in enumerate(writes):
        (ftl.host_write if kind == "write" else ftl.trim)(start * page, pages * page)
        while not ftl.gc_satisfied:
            assert ftl.collect_victim() is not None
        assert_read_channel_map(ftl)
        offset, size = reads[i % len(reads)]
        assert ftl.read_channels(offset, size) == read_channels_per_page(ftl, offset, size)
    for offset, size in reads:
        got = ftl.read_channels(offset, size)
        assert got == read_channels_per_page(ftl, offset, size)
        assert all(type(c) is int for c, _pages, _bytes in got)


# ---------------------------------------------------------------------------
# Filesystem byte counters
# ---------------------------------------------------------------------------

class NullBackend:
    """An IO backend that only hands out completion events."""

    def __init__(self, sim):
        self.sim = sim

    def write(self, offset, size, tag=None, done=None):
        return self.sim.event()

    def trim_extents(self, extents):
        pass


@prop_settings
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 300 * KIB)), max_size=60
    )
)
def test_filesystem_counters_match_extent_sums(ops):
    """``size == 0`` deletes the slot's file; anything else appends."""
    capacity = 2 * MIB
    sim = Simulator()
    fs = SimFilesystem(sim, NullBackend(sim), capacity=capacity)
    files = {}
    for slot, size in ops:
        if size == 0:
            if slot in files:
                dead = files.pop(slot)
                fs.delete(dead)
                assert dead.allocated == 0
        elif size <= fs.free_bytes:
            if slot not in files:
                files[slot] = fs.create()
            files[slot].append(size)
        for f in files.values():
            assert f.allocated == sum(length for _off, length in f.extents)
            assert f._starts == [
                sum(length for _off, length in f.extents[:i])
                for i in range(len(f.extents))
            ]
            assert f.size <= f.allocated
        assert fs.free_bytes == sum(length for _off, length in fs._free)
        assert fs.free_bytes + sum(f.allocated for f in files.values()) == capacity


# ---------------------------------------------------------------------------
# Filesystem first fit == the linear walk
# ---------------------------------------------------------------------------

# ``SimFilesystem._allocate`` walks ``_big`` (the holes of at least
# ``BIG_HOLE`` bytes) for a large request and ``_free`` only up to the
# first fit for a small one.  It used to walk every hole; that walk stays
# here as the oracle, and both must hand out the same extents and leave
# the same free list.

class LinearFirstFitFs(SimFilesystem):
    """``_allocate`` as it was: a walk over every hole, in offset order."""

    def _allocate(self, want):
        return linear_first_fit(self, want)


def allocation_log(fs):
    """Record every ``(offset, length)`` that ``fs._allocate`` returns."""
    log = []
    allocate = fs._allocate

    def logged(want):
        got = allocate(want)
        log.append(got)
        return got

    fs._allocate = logged
    return log


#: the "larger than any hole" append: one page past the biggest hole
HUGE = -1


def run_allocators(ops, capacity):
    """Apply ``(slot, size)`` ops to the indexed and the linear
    filesystem (size 0 deletes the slot's file, :data:`HUGE` appends one
    page more than the largest hole), checking after each op that both
    allocated the same extents and hold the same free list, and that
    ``_big`` lists exactly the big holes.  Returns the allocations."""
    systems = []
    for cls in (SimFilesystem, LinearFirstFitFs):
        sim = Simulator()
        fs = cls(sim, NullBackend(sim), capacity=capacity)
        systems.append((fs, {}, allocation_log(fs)))
    (fs, _, got), (ref, _, want) = systems
    for slot, size in ops:
        if size == HUGE:
            size = max((length for _off, length in ref._free), default=0) + 4 * KIB
        for each, files, _log in systems:
            if size == 0:
                if slot in files:
                    each.delete(files.pop(slot))
            elif size <= each.free_bytes:
                if slot not in files:
                    files[slot] = each.create()
                files[slot].append(size)
        assert got == want
        assert fs._free == ref._free
        assert fs.free_bytes == ref.free_bytes
        assert fs._big == [hole for hole in fs._free if hole[1] >= fs.BIG_HOLE]
    return got


@prop_settings
@given(
    ops=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.one_of(
                st.just(0),  # delete
                st.integers(1, 4 * KIB - 1),  # a partial page
                st.integers(4 * KIB, 8 * KIB),  # one or two pages
                st.sampled_from([256 * KIB, 1 * MIB, HUGE]),
            ),
        ),
        max_size=120,
    )
)
def test_first_fit_allocates_what_the_linear_walk_allocates(ops):
    run_allocators(ops, capacity=8 * MIB)


def test_first_fit_past_every_hole_takes_the_largest_as_the_walk_does():
    """Eight files of 64 KiB chunks interleaved over the whole volume,
    then every other one deleted: every hole is one 64 KiB chunk, or
    two where neighbours merged, so a 1 MiB request fits nowhere and
    takes the largest hole, the lowest on ties."""
    ops = [(slot, 64 * KIB) for _ in range(16) for slot in range(8)]
    ops += [(slot, 0) for slot in (1, 3, 4, 6)]
    ops += [(9, 1 * MIB), (10, 256 * KIB), (11, HUGE), (12, 4 * KIB)]
    allocations = run_allocators(ops, capacity=8 * MIB)
    assert (1 * MIB) not in {length for _off, length in allocations}
    assert max(length for _off, length in allocations[-20:]) == 128 * KIB


# ---------------------------------------------------------------------------
# Growth: host calls per operation do not depend on out-of-range state
# ---------------------------------------------------------------------------

def engine_with(l1_files, memtable_entries):
    """L1 of ``l1_files`` tables of 256 keys each; both memtables hold
    ``memtable_entries`` keys far above every table."""
    sim, fs, engine = make_engine(EngineConfig(memtable_bytes=64 * MIB), capacity=64 * MIB)
    builder = TableBuilder(sim, fs)
    tables = [
        drive(sim, builder.build(
            ((key, 1000) for key in range(256 * i, 256 * (i + 1))), TAG
        ))
        for i in range(l1_files)
    ]
    engine.version.install(1, tables)
    engine.immutable = Memtable(64 * MIB)
    for i in range(memtable_entries):
        engine.memtable.put(1_000_000 + 2 * i, 1000, i)
        engine.immutable.put(1_000_001 + 2 * i, 1000, i)
    return sim, engine


def test_scan_and_get_calls_do_not_grow_with_out_of_range_state():
    counts = []
    for l1_files, memtable_entries in ((4, 200), (64, 20_000)):
        sim, engine = engine_with(l1_files, memtable_entries)
        rows, size = [], []
        scan_calls = count_calls(
            lambda: rows.extend(drive(sim, engine.scan(300, 363))), ["repro/engine/"]
        )
        assert rows == [(key, 1000) for key in range(300, 364)]
        get_calls = count_calls(
            lambda: size.append(drive(sim, engine.get(700))), ["repro/engine/"]
        )
        assert size == [1000]
        counts.append((scan_calls, get_calls))
    assert counts[0] == counts[1]


def test_wal_append_calls_do_not_grow_with_extent_count():
    counts = []
    for commits in (4, 400):
        sim, fs, _engine = make_engine()
        wal = Wal(sim, fs, "growth-wal")

        def fill():
            for _ in range(commits):
                yield wal.append(4096, TAG)  # page-sized: one new extent each

        drive(sim, fill())
        assert len(wal.file.extents) == commits

        def one_append():
            yield wal.append(1000, TAG)

        calls = count_calls(
            lambda: drive(sim, one_append()),
            ["repro/engine/wal.py", "repro/ssd/filesystem.py"],
        )
        counts.append(calls)
    assert counts[0] == counts[1]
