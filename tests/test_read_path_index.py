"""The engine's ordered indexes, checked against brute force.

Two kinds of test keep the read path honest:

- *property tests*: every index (memtable key list, per-level
  ``min_key`` arrays, the FTL's read fan-out, the filesystem's byte
  counters) must equal the linear walk it replaced, which stays here as
  the oracle;
- *growth tests*: the number of Python calls one scan, one GET and one
  WAL append make inside the engine and filesystem must not depend on
  how much out-of-range state exists.  Counts, not wall-clock, so they
  are exact and belong in tier-1.
"""

import random
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tags import IoTag, RequestClass
from repro.engine import TOMBSTONE, EngineConfig, LsmEngine, Memtable, TableBuilder
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
    assert mt.range_items(lo, lo + span) == sorted(
        (k, s) for k, s in model.items() if lo <= k <= lo + span
    )


# ---------------------------------------------------------------------------
# FTL read fan-out
# ---------------------------------------------------------------------------

def read_channels_per_page(ftl, offset, size):
    """The per-page loop ``Ftl.read_channels`` used to be (the oracle)."""
    page = ftl.profile.page_size
    nchan = ftl.profile.channels
    per_chan_pages = [0] * nchan
    per_chan_bytes = [0] * nchan
    end = offset + size
    for p in ftl._page_range(offset, size):
        block = ftl.page_to_block[p]
        chan = int(ftl.block_channel[block]) if block != UNMAPPED else p % nchan
        per_chan_pages[chan] += 1
        per_chan_bytes[chan] += min(end, (p + 1) * page) - max(offset, p * page)
    return [
        (c, per_chan_pages[c], per_chan_bytes[c])
        for c in range(nchan)
        if per_chan_pages[c]
    ]


@prop_settings
@given(
    writes=st.lists(
        st.tuples(st.sampled_from(["write", "trim"]), st.integers(0, 250), st.integers(1, 40)),
        max_size=20,
    ),
    reads=st.lists(
        st.tuples(st.integers(0, 300 * 4096), st.integers(1, 70 * 4096)), min_size=1,
        max_size=20,
    ),
)
def test_read_channels_matches_per_page_loop(writes, reads):
    profile = SsdProfile(name="prop", channels=4, logical_capacity=8 * MIB, overprovision=1.0)
    ftl = Ftl(profile, seed=1)
    page = profile.page_size
    for kind, start, pages in writes:
        (ftl.host_write if kind == "write" else ftl.trim)(start * page, pages * page)
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

    def write(self, offset, size, tag=None):
        return self.sim.event()

    def trim(self, offset, size):
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
# Growth: host calls per operation do not depend on out-of-range state
# ---------------------------------------------------------------------------

def count_calls(sim, gen, *path_parts):
    """Python calls (generator resumes included) made while ``gen`` runs,
    in files whose path contains one of ``path_parts``."""
    calls = 0

    def profiler(frame, event, _arg):
        nonlocal calls
        if event == "call" and any(
            part in frame.f_code.co_filename for part in path_parts
        ):
            calls += 1

    sys.setprofile(profiler)
    try:
        value = drive(sim, gen)
    finally:
        sys.setprofile(None)
    return calls, value


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
        scan_calls, rows = count_calls(sim, engine.scan(300, 363), "repro/engine/")
        assert rows == [(key, 1000) for key in range(300, 364)]
        get_calls, size = count_calls(sim, engine.get(700), "repro/engine/")
        assert size == 1000
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

        calls, _ = count_calls(
            sim, one_append(), "repro/engine/wal.py", "repro/ssd/filesystem.py"
        )
        counts.append(calls)
    assert counts[0] == counts[1]
