"""Unit and integration tests for the LSM persistence engine."""

import random

import pytest

from repro.core import (
    InternalOp,
    IoTag,
    LibraScheduler,
    RequestClass,
    ResourceTracker,
    make_cost_model,
    reference_calibration,
)
from repro.engine import (
    TOMBSTONE, EngineConfig, LsmEngine, Memtable, TableBuilder, Version,
    merge_entries, pick_compaction, split_outputs,
)
from repro.sim import Simulator
from repro.ssd import RawBackend, SimFilesystem, SsdDevice, SsdProfile

KIB = 1024
MIB = 1024 * 1024


@pytest.fixture
def env():
    sim = Simulator()
    profile = SsdProfile(
        name="tiny", channels=4, logical_capacity=64 * MIB, overprovision=1.0
    )
    device = SsdDevice(sim, profile, seed=3)
    tracker = ResourceTracker()
    scheduler = LibraScheduler(
        sim,
        device,
        make_cost_model("exact", reference_calibration("intel320")),
        io_observer=tracker.note_io,
    )
    scheduler.register_tenant("t1", 20_000.0)
    fs = SimFilesystem(sim, scheduler, capacity=profile.logical_capacity)
    config = EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB)
    engine = LsmEngine(sim, fs, "t1", config, tracker=tracker)
    return sim, engine, tracker, fs


def drive(sim, gen, until=60.0):
    proc = sim.process(gen)
    sim.run(until=until)
    assert proc.triggered, "engine op deadlocked"
    assert proc.ok, proc.value
    return proc.value


# ---------------------------------------------------------------------------
# Memtable
# ---------------------------------------------------------------------------

def test_memtable_put_get_overwrite():
    mt = Memtable(1 * MIB)
    mt.put(1, 100, 1)
    mt.put(1, 300, 2)
    assert mt.get(1).size == 300
    assert mt.bytes == 300
    assert mt.get(2) is None


def test_memtable_tombstone():
    mt = Memtable(1 * MIB)
    mt.put(5, 100, 1)
    mt.put(5, TOMBSTONE, 2)
    assert mt.get(5).is_tombstone
    assert mt.bytes == 0


def test_memtable_full_flag():
    mt = Memtable(1000)
    assert not mt.full
    mt.put(1, 1000, 1)
    assert mt.full


def test_memtable_sorted_iteration():
    mt = Memtable(1 * MIB)
    for key in (5, 1, 3):
        mt.put(key, 10, key)
    assert [k for k, _e in mt.sorted_entries()] == [1, 3, 5]


# ---------------------------------------------------------------------------
# Basic engine operations
# ---------------------------------------------------------------------------

def test_put_then_get_from_memtable(env):
    sim, engine, _tracker, _fs = env

    def flow():
        yield from engine.put(42, 4 * KIB)
        size = yield from engine.get(42)
        assert size == 4 * KIB

    drive(sim, flow())
    assert engine.stats.puts == 1
    assert engine.stats.get_hits == 1


def test_get_missing_key(env):
    sim, engine, _tracker, _fs = env

    def flow():
        result = yield from engine.get(999)
        assert result is None

    drive(sim, flow())
    assert engine.stats.get_misses == 1


def test_delete_masks_older_value(env):
    sim, engine, _tracker, _fs = env

    def flow():
        yield from engine.put(7, 2 * KIB)
        yield from engine.delete(7)
        result = yield from engine.get(7)
        assert result is None

    drive(sim, flow())


def test_put_rejects_bad_size(env):
    sim, engine, _tracker, _fs = env
    with pytest.raises(ValueError):
        list(engine.put(1, 0))


def test_get_survives_flush(env):
    """Values remain readable after they move from memtable to SSTable."""
    sim, engine, _tracker, _fs = env

    def flow():
        # Overflow the 256 KiB memtable to force a flush.
        for key in range(40):
            yield from engine.put(key, 8 * KIB)
        yield sim.timeout(2.0)  # let FLUSH finish
        assert engine.stats.flushes >= 1
        size = yield from engine.get(3)
        assert size == 8 * KIB

    drive(sim, flow())


def test_overwrite_visible_after_flush(env):
    sim, engine, _tracker, _fs = env

    def flow():
        yield from engine.put(1, 2 * KIB)
        for key in range(100, 140):
            yield from engine.put(key, 8 * KIB)
        yield sim.timeout(2.0)
        yield from engine.put(1, 6 * KIB)  # newer version in memtable
        size = yield from engine.get(1)
        assert size == 6 * KIB

    drive(sim, flow())


def test_flush_tagged_and_tracked(env):
    sim, engine, tracker, _fs = env

    def flow():
        for key in range(40):
            yield from engine.put(key, 8 * KIB)
            tracker.note_request("t1", RequestClass.PUT, 8 * KIB)
        yield sim.timeout(2.0)

    drive(sim, flow())
    tracker.roll_interval()
    profile = tracker.profile("t1", RequestClass.PUT)
    assert profile.direct > 0
    assert InternalOp.FLUSH in profile.indirect
    assert profile.indirect[InternalOp.FLUSH] > 0


def test_wal_retired_after_flush(env):
    sim, engine, _tracker, fs = env

    def flow():
        for key in range(40):
            yield from engine.put(key, 8 * KIB)
        yield sim.timeout(2.0)

    drive(sim, flow())
    # Old WALs are deleted; only the active WAL plus SSTables remain.
    names = [name for name in fs._files if "wal" in name]
    assert len(names) == 1


def test_compaction_reduces_l0(env):
    sim, engine, _tracker, _fs = env
    rng = random.Random(9)

    def flow():
        for i in range(400):
            yield from engine.put(rng.randrange(200), 8 * KIB)
        yield sim.timeout(5.0)

    drive(sim, flow())
    assert engine.stats.compactions >= 1
    assert len(engine.version.levels[0]) < engine.config.l0_trigger + 2


def test_compaction_culls_overwrites(env):
    """Heavy overwrites of few keys: compaction keeps live data bounded."""
    sim, engine, _tracker, _fs = env

    def flow():
        for i in range(600):
            yield from engine.put(i % 20, 8 * KIB)
        yield sim.timeout(5.0)

    drive(sim, flow())
    # 20 live keys * 8 KiB = 160 KiB live; allow generous slack for
    # not-yet-compacted duplicates, but far below the 4.8 MiB written.
    assert engine.live_bytes < 2 * MIB


def test_reads_correct_after_compaction(env):
    sim, engine, _tracker, _fs = env
    rng = random.Random(4)
    expected = {}

    def flow():
        for i in range(500):
            key = rng.randrange(100)
            size = rng.choice([2, 4, 8, 16]) * KIB
            yield from engine.put(key, size)
            expected[key] = size
        yield sim.timeout(5.0)
        for key in sorted(expected)[:30]:
            size = yield from engine.get(key)
            assert size == expected[key], (key, size, expected[key])

    drive(sim, flow(), until=90.0)
    assert engine.stats.compactions >= 1


def test_concurrent_writers_group_commit(env):
    sim, engine, _tracker, _fs = env
    finished = []

    def writer(base):
        for i in range(50):
            yield from engine.put(base + i, 1 * KIB)
        finished.append(base)

    for base in (0, 1000, 2000, 3000):
        sim.process(writer(base))
    sim.run(until=30.0)
    assert len(finished) == 4
    # Group commit: fewer WAL batches than records.
    assert engine._wal_seq >= 0
    assert engine.stats.puts == 200


def test_eligible_count_grows_with_l0(env):
    sim, engine, _tracker, _fs = env

    def flow():
        # Uniform keys: every flushed file spans the whole keyspace.
        rng = random.Random(2)
        for i in range(120):
            yield from engine.put(rng.randrange(1000), 8 * KIB)
        # Immediately after a couple of flushes (maybe pre-compaction),
        # multiple files are eligible for any key.
        return engine.eligible_count(500)

    count = drive(sim, flow())
    assert count >= 1


def test_stall_counted_when_flush_behind(env):
    sim, engine, _tracker, _fs = env

    def writer(base):
        # Pump writes far faster than the device can flush: large
        # values fill the memtable in a handful of group commits.
        # Keys overwrite so compaction keeps live data bounded.
        for i in range(40):
            yield from engine.put(base + (i % 10), 64 * KIB)

    procs = [sim.process(writer(base * 1000)) for base in range(8)]
    sim.run(until=120.0)
    assert all(p.triggered and p.ok for p in procs)
    assert engine.stats.put_stalls > 0


# ---------------------------------------------------------------------------
# Compaction helpers (pure logic)
# ---------------------------------------------------------------------------

def _table(sim, fs, entries, name):
    builder = TableBuilder(sim, fs)
    gen = builder.build(iter(entries), IoTag("t1", RequestClass.PUT), name=name)
    proc = sim.process(gen)
    sim.run()
    assert proc.ok
    return proc.value


@pytest.fixture
def raw_fs():
    sim = Simulator()
    profile = SsdProfile(
        name="tiny", channels=4, logical_capacity=32 * MIB, overprovision=1.0
    )
    device = SsdDevice(sim, profile, seed=3)
    fs = SimFilesystem(sim, RawBackend(device), capacity=profile.logical_capacity)
    return sim, fs


def test_merge_newest_wins(raw_fs):
    sim, fs = raw_fs
    newer = _table(sim, fs, [(1, 100), (2, 200)], "new")
    older = _table(sim, fs, [(1, 999), (3, 300)], "old")
    merged = dict(merge_entries([newer, older], drop_tombstones=False))
    assert merged == {1: 100, 2: 200, 3: 300}


def test_merge_drops_tombstones_at_bottom(raw_fs):
    sim, fs = raw_fs
    newer = _table(sim, fs, [(1, TOMBSTONE)], "new")
    older = _table(sim, fs, [(1, 100), (2, 50)], "old")
    assert dict(merge_entries([newer, older], drop_tombstones=True)) == {2: 50}
    kept = dict(merge_entries([newer, older], drop_tombstones=False))
    assert kept[1] == TOMBSTONE


def test_split_outputs_bounds_file_size():
    entries = [(i, 1 * MIB) for i in range(5)]
    batches = list(split_outputs(iter(entries), max_file_bytes=2 * MIB))
    assert [len(b) for b in batches] == [2, 2, 1]


def test_pick_compaction_prefers_l0(raw_fs):
    sim, fs = raw_fs
    version = Version(max_levels=4)
    for i in range(4):
        version.add_l0(_table(sim, fs, [(0, 100), (500, 100)], f"l0-{i}"))
    job = pick_compaction(version, l0_trigger=4, level1_bytes=1 * MIB, level_ratio=8)
    assert job is not None and job.level == 0 and job.target_level == 1
    assert len(job.inputs) == 4


def test_pick_compaction_none_when_quiet(raw_fs):
    sim, fs = raw_fs
    version = Version(max_levels=4)
    version.add_l0(_table(sim, fs, [(0, 100)], "only"))
    assert pick_compaction(version, 4, 1 * MIB, 8) is None


def test_version_eligible_ordering(raw_fs):
    sim, fs = raw_fs
    version = Version(max_levels=3)
    older = _table(sim, fs, [(0, 10), (999, 10)], "older")
    newer = _table(sim, fs, [(0, 20), (999, 20)], "newer")
    version.add_l0(older)
    version.add_l0(newer)  # added later -> newer, must come first
    l1 = _table(sim, fs, [(10, 30), (500, 30)], "l1")
    version.install(1, [l1])
    eligible = list(version.eligible_files(500))
    assert eligible == [newer, older, l1]
    assert version.eligible_count(500) == 3


# ---------------------------------------------------------------------------
# Crash recovery
# ---------------------------------------------------------------------------

def test_crash_recovery_replays_wal(env):
    sim, engine, _tracker, _fs = env

    def flow():
        yield from engine.put(1, 4 * KIB)
        yield from engine.put(2, 8 * KIB)
        replayed = yield from engine.crash_and_recover()
        assert replayed == 2
        assert (yield from engine.get(1)) == 4 * KIB
        assert (yield from engine.get(2)) == 8 * KIB

    drive(sim, flow())
    assert engine.stats.recoveries == 1
    assert engine.stats.recovered_records == 2


def test_crash_recovery_reads_log_sequentially(env):
    sim, engine, tracker, _fs = env

    def flow():
        for key in range(10):
            yield from engine.put(key, 4 * KIB)
        reads_before = engine.fs.backend.device.stats.reads
        yield from engine.crash_and_recover()
        assert engine.fs.backend.device.stats.reads > reads_before

    drive(sim, flow())


def test_crash_recovery_after_flush_keeps_flushed_data(env):
    sim, engine, _tracker, _fs = env

    def flow():
        # Enough to force at least one flush (memtable 256 KiB).
        for key in range(60):
            yield from engine.put(key, 8 * KIB)
        yield sim.timeout(2.0)
        yield from engine.crash_and_recover()
        # Both flushed and WAL-resident keys survive.
        for key in (0, 59):
            size = yield from engine.get(key)
            assert size == 8 * KIB, key

    drive(sim, flow())


def test_crash_recovery_preserves_latest_version(env):
    sim, engine, _tracker, _fs = env

    def flow():
        yield from engine.put(5, 2 * KIB)
        yield from engine.put(5, 6 * KIB)
        yield from engine.crash_and_recover()
        assert (yield from engine.get(5)) == 6 * KIB

    drive(sim, flow())


# ---------------------------------------------------------------------------
# Bloom filters
# ---------------------------------------------------------------------------

def make_bloom_env():
    sim = Simulator()
    profile = SsdProfile(
        name="tiny-bloom", channels=4, logical_capacity=64 * MIB, overprovision=1.0
    )
    device = SsdDevice(sim, profile, seed=3)
    scheduler = LibraScheduler(
        sim, device, make_cost_model("exact", reference_calibration("intel320"))
    )
    scheduler.register_tenant("t1", 20_000.0)
    fs = SimFilesystem(sim, scheduler, capacity=profile.logical_capacity)
    config = EngineConfig(
        memtable_bytes=128 * KIB, level1_bytes=1 * MIB,
        bloom_bits_per_key=10, table_cache_entries=1,
    )
    return sim, LsmEngine(sim, fs, "t1", config)


def test_bloom_skips_absent_probes():
    sim, engine = make_bloom_env()
    rng = random.Random(5)

    written = set()

    def flow():
        # Spread keys so multiple overlapping files exist.
        for i in range(120):
            key = rng.randrange(1000)
            written.add(key)
            yield from engine.put(key, 4 * KIB)
        yield sim.timeout(2.0)  # flushed tables, empty memtable hits disk path
        # Probe absent keys *inside* the covered key range: the tables
        # are eligible, but their blooms should skip the index reads.
        absent = [k for k in range(1, 999) if k not in written][:50]
        for key in absent:
            result = yield from engine.get(key)
            assert result is None

    proc = sim.process(flow())
    sim.run(until=60.0)
    assert proc.triggered and proc.ok, proc.value
    assert engine.stats.bloom_skips > 0


def test_bloom_never_blocks_present_keys():
    sim, engine = make_bloom_env()

    def flow():
        for key in range(80):
            yield from engine.put(key, 4 * KIB)
        yield sim.timeout(2.0)
        for key in range(80):
            size = yield from engine.get(key)
            assert size == 4 * KIB, key

    proc = sim.process(flow())
    sim.run(until=60.0)
    assert proc.triggered and proc.ok, proc.value


# ---------------------------------------------------------------------------
# Range scans
# ---------------------------------------------------------------------------

def test_scan_merges_memtable_and_tables(env):
    sim, engine, _tracker, _fs = env
    expected = {}

    def flow():
        # Enough writes to flush some data, then overwrite a few keys so
        # the scan must prefer the newest versions.
        for key in range(60):
            yield from engine.put(key, 8 * KIB)
            expected[key] = 8 * KIB
        yield sim.timeout(2.0)
        for key in range(10, 20):
            yield from engine.put(key, 2 * KIB)
            expected[key] = 2 * KIB
        results = yield from engine.scan(5, 25)
        assert results == [(k, expected[k]) for k in range(5, 26)]

    drive(sim, flow())
    assert engine.stats.scans == 1
    assert engine.stats.scanned_entries == 21


def test_scan_excludes_tombstones(env):
    sim, engine, _tracker, _fs = env

    def flow():
        for key in range(10):
            yield from engine.put(key, 4 * KIB)
        yield from engine.delete(5)
        results = yield from engine.scan(0, 9)
        assert [k for k, _s in results] == [0, 1, 2, 3, 4, 6, 7, 8, 9]

    drive(sim, flow())


def test_scan_limit_and_empty_range(env):
    sim, engine, _tracker, _fs = env

    def flow():
        for key in range(10):
            yield from engine.put(key, 1 * KIB)
        limited = yield from engine.scan(0, 9, limit=3)
        assert limited == [(0, 1 * KIB), (1, 1 * KIB), (2, 1 * KIB)]
        empty = yield from engine.scan(100, 200)
        assert empty == []

    drive(sim, flow())


def test_scan_rejects_inverted_range(env):
    sim, engine, _tracker, _fs = env
    with pytest.raises(ValueError):
        list(engine.scan(10, 5))


def test_scan_rejects_a_negative_limit_before_any_io(env):
    """A negative limit used to slice rows off the end (``limit=-1``
    returned all but the last row); it is an error, as an inverted range
    is, raised before the scan reads anything."""
    sim, engine, _tracker, fs = env

    def flow():
        for key in range(80):
            yield from engine.put(key, 8 * KIB)
        yield sim.timeout(2.0)  # flushed: a scan of [0, 79] reads a table
        reads, scans = fs.backend.device.stats.reads, engine.stats.scans
        with pytest.raises(ValueError, match="limit"):
            yield from engine.scan(0, 79, limit=-1)
        assert (fs.backend.device.stats.reads, engine.stats.scans) == (reads, scans)
        assert (yield from engine.scan(0, 79, limit=0)) == []
        assert len((yield from engine.scan(0, 79))) == 80

    drive(sim, flow())


def test_scan_over_a_table_of_tombstones_reads_its_last_block(env):
    """A table of deletes only has no data bytes: its values would start
    where the file ends.  A scan over it reads the file's last block (it
    used to read one byte past the end and fail)."""
    sim, engine, _tracker, fs = env
    tag = IoTag("t1", RequestClass.PUT)

    def flow():
        entries = [(key, TOMBSTONE) for key in range(5)]
        table = yield from engine._builder.build(entries, tag)
        assert table.file.size == 4 * KIB  # the index block
        engine.version.install(1, [table])
        reads = fs.backend.device.stats.reads
        assert (yield from engine.scan(0, 9)) == []
        assert fs.backend.device.stats.reads > reads

    drive(sim, flow())


def test_scan_issues_sequential_reads(env):
    sim, engine, _tracker, fs = env

    def flow():
        for key in range(80):
            yield from engine.put(key, 8 * KIB)
        yield sim.timeout(2.0)  # flush to disk
        reads_before = fs.backend.device.stats.reads
        yield from engine.scan(0, 79)
        assert fs.backend.device.stats.reads > reads_before

    drive(sim, flow())
