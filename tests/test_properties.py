"""Property-based tests (hypothesis) for core data structures and
invariants."""

import random
from dataclasses import replace

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from .helpers import queue_state
from .test_read_path_index import CHURN
from repro.obs.metrics import cdf_points, mmr
from repro.core import Ewma, OpKind, make_cost_model, reference_calibration
from repro.engine import TOMBSTONE, Memtable, merge_entries, split_outputs
from repro.sim import Simulator
from repro.ssd import SsdDevice, SsdProfile
from repro.ssd.ftl import UNMAPPED, Ftl
from repro.workload.distributions import LogNormalSize, align

KIB = 1024
MIB = 1024 * 1024

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# FTL invariants
# ---------------------------------------------------------------------------

def tiny_ftl() -> Ftl:
    profile = SsdProfile(
        name="prop", channels=4, logical_capacity=8 * MIB, overprovision=1.0
    )
    return Ftl(profile, seed=1)


@common_settings
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["write", "trim"]),
            st.integers(min_value=0, max_value=2040),  # page index
            st.integers(min_value=1, max_value=8),  # pages
        ),
        max_size=60,
    )
)
def test_ftl_valid_count_matches_mapping(ops):
    """Sum of per-block valid counts always equals mapped pages, and a
    mapped page's block always claims positive valid count."""
    ftl = tiny_ftl()
    page = ftl.profile.page_size
    for kind, start, pages in ops:
        end = min(start + pages, ftl.profile.logical_pages)
        if end <= start:
            continue
        if kind == "write":
            ftl.host_write(start * page, (end - start) * page)
        else:
            ftl.trim(start * page, (end - start) * page)
        if ftl.gc_needed:
            ftl._sync_gc()
    mapped = int((ftl.page_to_block != UNMAPPED).sum())
    assert int(ftl.block_valid.sum()) == mapped
    assert int(ftl.block_valid.min()) >= 0


@common_settings
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_ftl_precondition_full_mapping(seed):
    profile = SsdProfile(
        name="prop2", channels=4, logical_capacity=8 * MIB, overprovision=1.0
    )
    ftl = Ftl(profile, seed=seed)
    ftl.precondition(age_factor=0.5)
    assert int((ftl.page_to_block != UNMAPPED).sum()) == profile.logical_pages
    assert ftl.gc_satisfied
    assert ftl.emergency_gcs == 0


# ---------------------------------------------------------------------------
# Memtable
# ---------------------------------------------------------------------------

@common_settings
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 50), st.integers(-1, 4096)),
        max_size=100,
    )
)
def test_memtable_bytes_accounting(ops):
    """Memtable byte count always equals the sum of live value sizes."""
    mt = Memtable(1 * MIB)
    model = {}
    seq = 0
    for key, size in ops:
        if size == 0:
            continue
        seq += 1
        mt.put(key, size if size > 0 else TOMBSTONE, seq)
        model[key] = size if size > 0 else TOMBSTONE
    expected = sum(max(v, 0) for v in model.values())
    assert mt.bytes == expected
    for key, size in model.items():
        assert mt.get(key).size == size
    assert [k for k, _e in mt.sorted_entries()] == sorted(model)


# ---------------------------------------------------------------------------
# Compaction helpers
# ---------------------------------------------------------------------------

class _FakeTable:
    def __init__(self, entries):
        self.keys = [k for k, _s in entries]
        self.sizes = [s for _k, s in entries]


@common_settings
@given(
    layers=st.lists(
        st.dictionaries(st.integers(0, 30), st.integers(-1, 1000).filter(lambda v: v != 0),
                        max_size=20),
        min_size=1,
        max_size=5,
    ),
    drop=st.booleans(),
)
def test_merge_entries_newest_wins_model(layers, drop):
    """merge_entries matches a straightforward dict model."""
    tables = [_FakeTable(sorted(layer.items())) for layer in layers if layer]
    if not tables:
        return
    expected = {}
    for layer in layers:
        if not layer:
            continue
        for key, size in layer.items():
            expected.setdefault(key, size)
    if drop:
        expected = {k: v for k, v in expected.items() if v != TOMBSTONE}
    merged = dict(merge_entries(tables, drop_tombstones=drop))
    assert merged == expected
    assert list(merged) == sorted(merged)


@common_settings
@given(
    sizes=st.lists(st.integers(1, 1 * MIB), max_size=40),
    max_bytes=st.integers(64 * KIB, 2 * MIB),
)
def test_split_outputs_conserves_entries(sizes, max_bytes):
    entries = [(i, s) for i, s in enumerate(sizes)]
    batches = list(split_outputs(iter(entries), max_bytes))
    flattened = [e for batch in batches for e in batch]
    assert flattened == entries
    # every batch except possibly the last crosses the threshold only
    # by its final entry
    for batch in batches[:-1]:
        assert sum(max(s, 0) for _k, s in batch) >= max_bytes


# ---------------------------------------------------------------------------
# Cost models
# ---------------------------------------------------------------------------

@common_settings
@given(
    size=st.integers(512, 512 * KIB),
    model_name=st.sampled_from(["exact", "fitted", "constant", "linear"]),
    kind=st.sampled_from([OpKind.READ, OpKind.WRITE]),
)
def test_cost_models_positive_and_monotone_total(size, model_name, kind):
    """Costs are positive; total cost is monotone for reads and
    near-monotone for writes (the measured write curve genuinely dips
    between 1K and 2K, where sub-page writes pay full-page programs)."""
    model = make_cost_model(model_name, reference_calibration("intel320"))
    cost = model.cost(kind, size)
    assert cost > 0
    doubled = model.cost(kind, size * 2)
    if kind == OpKind.READ:
        assert doubled >= cost * 0.999
    else:
        assert doubled >= cost * 0.8


# ---------------------------------------------------------------------------
# EWMA, metrics
# ---------------------------------------------------------------------------

@common_settings
@given(
    samples=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=50),
    alpha=st.floats(0.05, 1.0),
)
def test_ewma_stays_within_sample_range(samples, alpha):
    e = Ewma(alpha=alpha)
    for s in samples:
        e.update(s)
    assert min(samples) - 1e-6 <= e.value <= max(samples) + 1e-6


@common_settings
@given(values=st.lists(st.floats(0.001, 1e6, allow_nan=False), min_size=1, max_size=30))
def test_mmr_bounds_and_scale_invariance(values):
    m = mmr(values)
    assert 0.0 < m <= 1.0
    assert mmr([v * 3.5 for v in values]) == pytest.approx(m)


@common_settings
@given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50))
def test_cdf_points_monotone(values):
    pts = cdf_points(values)
    assert [v for v, _f in pts] == sorted(values)
    fracs = [f for _v, f in pts]
    assert all(a <= b for a, b in zip(fracs, fracs[1:]))
    assert fracs[-1] == 1.0


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@common_settings
@given(
    mean=st.integers(1 * KIB, 256 * KIB),
    sigma=st.integers(0, 128 * KIB),
    seed=st.integers(0, 1000),
)
def test_lognormal_always_in_bounds(mean, sigma, seed):
    dist = LogNormalSize(mean=mean, sigma=sigma)
    rng = random.Random(seed)
    for _ in range(20):
        s = dist.sample(rng)
        assert dist.lo <= s <= dist.hi
        assert s % dist.granularity == 0


@common_settings
@given(value=st.integers(0, 1 << 30), gran=st.integers(1, 1 << 20))
def test_align_properties(value, gran):
    a = align(value, gran)
    assert a % gran == 0
    assert a >= max(value, 1)
    assert a - value < gran or value == 0


# ---------------------------------------------------------------------------
# Device queue slots: slots are conserved and waiters are admitted FIFO
# ---------------------------------------------------------------------------

@common_settings
@given(
    permits=st.integers(1, 4),
    holds=st.lists(st.integers(1, 5), min_size=1, max_size=20),
)
def test_semaphore_serves_waiters_fifo(permits, holds):
    sim = Simulator()
    profile = SsdProfile(
        name="prop", channels=4, logical_capacity=8 * MIB, overprovision=1.0,
        queue_depth=permits,
    )
    device = SsdDevice(sim, profile, seed=1, precondition=False)
    admitted = []
    plan = device._plan
    device._plan = lambda *args: (admitted.append(args[1]), plan(*args))[1]
    active = {"max": 0}

    def finished(_arg, result):
        assert result.ok

    for tag, hold in enumerate(holds):
        device.submit(True, tag * 64 * KIB, hold * 4 * KIB, None, finished, None)
        active["max"] = max(active["max"], device.in_flight)
    sim.run()
    assert admitted == [tag * 64 * KIB for tag in range(len(holds))]
    assert active["max"] == min(permits, len(holds))
    assert device.in_flight == 0
    assert queue_state(device) == {"occupied": [0], "slot_wait": [0], "tag_wait": [0]}


# ---------------------------------------------------------------------------
# Crash recovery (see repro.faults): acknowledged state is exactly restored
# ---------------------------------------------------------------------------

@common_settings
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),               # True -> PUT, False -> DELETE
            st.integers(0, 15),          # key (small space: overwrites happen)
            st.integers(1, 16),          # PUT size in KiB
        ),
        max_size=40,
    ),
    inflight=st.integers(0, 4),
)
def test_crash_and_recover_restores_exactly_acked_state(ops, inflight):
    """After an arbitrary acknowledged PUT/DELETE prefix plus a torn tail
    of un-acknowledged writes, crash_and_recover reconstructs exactly the
    acknowledged key set — survivors from memtable flushes, WAL replay,
    and tombstones alike."""
    from repro.engine import EngineConfig, LsmEngine
    from repro.faults import StorageFault
    from repro.ssd import RawBackend, SimFilesystem, SsdDevice

    sim = Simulator()
    profile = SsdProfile(
        name="prop-crash", channels=4, logical_capacity=64 * MIB, overprovision=1.0
    )
    device = SsdDevice(sim, profile, seed=3, precondition=False)
    fs = SimFilesystem(sim, RawBackend(device), capacity=profile.logical_capacity)
    # A tiny memtable so a 40-op prefix crosses several FLUSH rotations.
    engine = LsmEngine(
        sim, fs, "t1", EngineConfig(memtable_bytes=16 * KIB, level1_bytes=256 * KIB)
    )
    model = {}

    def driver():
        for is_put, key, size_kib in ops:
            if is_put:
                yield from engine.put(key, size_kib * KIB)
                model[key] = size_kib * KIB  # only after the ack
            else:
                yield from engine.delete(key)
                model[key] = None

    proc = sim.process(driver())
    sim.run(until=120.0)
    assert proc.triggered and proc.ok, getattr(proc, "value", None)

    # Torn tail: issue writes and crash before their group commit lands.
    # If one races to durability anyway, it is acknowledged and joins the
    # model — the contract is about *acknowledged* state either way.
    def unacked(key, size):
        try:
            yield from engine.put(key, size)
            model[key] = size
        except StorageFault:
            pass

    tail_keys = []
    for i in range(inflight):
        key, size = 100 + i, 4 * KIB
        tail_keys.append(key)
        sim.process(unacked(key, size))
    sim.run(until=sim.now + 1e-7)  # enough to enqueue, not to commit

    def recover():
        replayed = yield from engine.crash_and_recover()
        return replayed

    rec = sim.process(recover())
    sim.run(until=sim.now + 120.0)
    assert rec.triggered and rec.ok, getattr(rec, "value", None)
    if inflight:
        assert engine.stats.torn_records >= 0  # counter present either way

    def verify():
        for key in range(16):
            size = yield from engine.get(key)
            assert size == model.get(key), key
        for key in tail_keys:
            size = yield from engine.get(key)
            # Never acknowledged: may be absent; must not be garbage.
            assert size in (model.get(key), None), key

    ver = sim.process(verify())
    sim.run(until=sim.now + 120.0)
    assert ver.triggered and ver.ok, getattr(ver, "value", None)


# ---------------------------------------------------------------------------
# Object cache against a dict model, under interleaved clients
# ---------------------------------------------------------------------------

CACHE_KEYS = 8
CACHE_OPS = st.tuples(
    st.sampled_from(["get", "get", "put", "put", "delete"]),
    st.integers(0, CACHE_KEYS - 1),
    st.integers(0, 4),  # think time before the op, in 0.2 ms steps
)


def _run_cache_program(programs, cache_bytes):
    """Run one client process per program, checking every GET against
    the dict model; returns every key's value as read back after
    quiescence, and as the model has it."""
    from repro.engine import EngineConfig
    from repro.node import NodeConfig, StorageNode
    from repro.ssd import get_profile

    sim = Simulator()
    config = NodeConfig(
        cache_bytes=cache_bytes,
        # a memtable of two objects: values reach SSTables fast, so
        # many GETs are engine reads that take simulated time
        engine=EngineConfig(
            memtable_bytes=2 * KIB, level1_bytes=64 * KIB, max_output_file_bytes=16 * KIB,
        ),
    )
    profile = get_profile("intel320").with_capacity(64 * MIB)
    node = StorageNode(sim, profile=profile, config=config, seed=5)
    node.add_tenant("t")
    clients = len(programs)
    #: key -> every acknowledged value, oldest first (None = deleted)
    acked = {key: [None] for key in range(CACHE_KEYS)}

    def checked_get(key):
        history = acked[key]
        first = len(history) - 1  # current when the GET was issued
        got = yield from node.get("t", key)
        assert got in history[first:], (
            f"GET({key}) returned {got}; the key held {history[first:]} while it ran"
        )
        return got

    def client(c_idx, program):
        for op_idx, (verb, key, think) in enumerate(program):
            yield sim.timeout(think * 2e-4)
            if verb == "get":
                yield from checked_get(key)
                continue
            # A key has one writer, so which write is its last does not
            # depend on timing (cache hits change the timing).
            key = (key - key % clients + c_idx) % CACHE_KEYS
            if verb == "put":
                size = 1000 + 100 * c_idx + op_idx  # distinct per write
                yield from node.put("t", key, size)
                acked[key].append(size)
            else:
                yield from node.delete("t", key)
                acked[key].append(None)

    def read_back():
        values = []
        for key in range(CACHE_KEYS):
            values.append((yield from checked_get(key)))
        return values

    def finish(procs):
        sim.step_while(lambda: any(proc.is_alive for proc in procs))
        for proc in procs:
            if not proc.ok:
                raise proc.value

    finish([sim.process(client(c_idx, program)) for c_idx, program in enumerate(programs)])
    final = sim.process(read_back())
    finish([final])
    node.stop()
    return final.value, [history[-1] for history in acked.values()]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs=st.lists(st.lists(CACHE_OPS, min_size=24, max_size=48), min_size=2, max_size=4))
def test_cache_agrees_with_dict_model_under_interleaving(programs):
    """2-4 concurrent clients GET/PUT/DELETE eight keys through a cache
    that holds three objects: every GET returns a value its key held
    while the GET ran, and after quiescence every key reads back as its
    last acknowledged write, exactly as it does with the cache off.  (At
    the parent commit a read-fill overtaken by a write left the cache
    stale and this fails; ``tests/test_node_features.py`` has the two
    interleavings spelled out.)"""
    cached, model = _run_cache_program(programs, cache_bytes=3500)
    assert cached == model
    uncached, model = _run_cache_program(programs, cache_bytes=0)
    assert uncached == model


# ---------------------------------------------------------------------------
# Range scans under concurrent writers
# ---------------------------------------------------------------------------

SCAN_KEYS = 24
#: CHURN's memtable, with L1 the last level, so compaction drops
#: tombstones and every table holds live data.  Values are 4 KiB plus at
#: most 200 bytes and a table holds a handful, so no table's data ends
#: on a block boundary and every scan span starts inside its file (a
#: span of trailing tombstones at a file's end has its own test in
#: test_engine.py); the property then holds for the old span arithmetic
#: too.
SCAN_ENGINE = replace(CHURN, max_levels=2)
SCAN_OPS = st.tuples(
    st.sampled_from(["put", "put", "delete", "scan", "scan"]),
    st.integers(0, SCAN_KEYS - 1),
    st.integers(0, 12),  # a scan's span: hi = key + span
    st.sampled_from([None, 0, 1, 3, 8]),  # a scan's limit
    st.integers(0, 4),  # think time before the op, in 0.2 ms steps
)


def _run_scan_program(programs):
    """Run one client process per program on one node whose engine
    flushes every other PUT, checking every scan against each key's
    history of values."""
    from repro.node import NodeConfig, StorageNode
    from repro.ssd import get_profile

    sim = Simulator()
    profile = get_profile("intel320").with_capacity(64 * MIB)
    node = StorageNode(sim, profile=profile, config=NodeConfig(engine=SCAN_ENGINE), seed=5)
    node.add_tenant("t")
    #: key -> every value it has held, oldest first (None = absent)
    held = {key: [None] for key in range(SCAN_KEYS)}

    def checked_scan(lo, hi, limit):
        in_range = range(lo, min(hi, SCAN_KEYS - 1) + 1)
        first = {key: len(held[key]) - 1 for key in in_range}  # current at issue
        rows = yield from node.scan("t", lo, hi, limit=limit)
        window = {key: held[key][first[key]:] for key in in_range}
        keys = [key for key, _size in rows]
        assert keys == sorted(set(keys)) and all(lo <= key <= hi for key in keys), rows
        assert limit is None or len(rows) <= limit, rows
        for key, size in rows:
            assert size in window[key], (
                f"scan({lo}, {hi}) returned {key}={size}; it held {window[key]}"
            )
        # Below the limit's cut, every key left out must have been absent
        # at some instant while the scan ran.
        cut = hi
        if limit is not None and len(rows) == limit:
            cut = keys[-1] if rows else lo - 1
        for key in set(in_range) - set(keys):
            if key <= cut:
                assert None in window[key], (
                    f"scan({lo}, {hi}) omitted {key}; it held {window[key]}"
                )

    def client(c_idx, program):
        for op_idx, (verb, key, span, limit, think) in enumerate(program):
            yield sim.timeout(think * 2e-4)
            if verb == "scan":
                yield from checked_scan(key, key + span, limit)
            elif verb == "put":
                size = 4097 + 50 * c_idx + op_idx  # distinct per write
                yield from node.put("t", key, size)
                held[key].append(size)
            else:
                yield from node.delete("t", key)
                held[key].append(None)

    procs = [sim.process(client(c_idx, program)) for c_idx, program in enumerate(programs)]
    sim.step_while(lambda: any(proc.is_alive for proc in procs))
    for proc in procs:
        if not proc.ok:
            raise proc.value
    node.stop()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs=st.lists(st.lists(SCAN_OPS, min_size=24, max_size=48), min_size=2, max_size=4))
def test_scans_see_a_value_each_key_held_while_writers_run(programs):
    """2-4 concurrent clients PUT, DELETE and scan 24 keys through one
    node whose memtable holds two values, so FLUSH and COMPACT land
    while scans wait on their reads.  A scan's rows are sorted, in range
    and within its limit; each row is a value its key held at some
    instant while the scan ran, and each in-range key left out below the
    limit's cut was absent at some such instant.  (A scan that read its
    memtables after its table IO would miss the rows a mid-scan FLUSH
    moved into an L0 table it never listed.)"""
    _run_scan_program(programs)


# ---------------------------------------------------------------------------
# Replicated cluster: acknowledged writes survive message chaos
# ---------------------------------------------------------------------------

CHAOS_KEYS = 4  # per client
CHAOS_OPS = st.tuples(
    st.sampled_from(["get", "put", "put"]),
    st.integers(0, CHAOS_KEYS - 1),
    st.integers(0, 4),  # think time before the op, in 5 ms steps
)


def _run_chaos_program(programs, drop, dup, delay, kill_at):
    """One client per program over its own keys of a 3-node rf=3
    primary-backup cluster, under the drawn message-fault windows and an
    optional kill of the node that is a backup of every partition.
    Checks every GET against the key's writes; returns each key's
    read-back after quiescence with the values it may hold."""
    from repro.core import Reservation
    from repro.faults import FaultKind, FaultPlan, FaultWindow, StorageFault
    from repro.net import NetConfig
    from repro.node import StorageCluster
    from repro.ssd import get_profile

    plan = FaultPlan(seed=7)
    if drop is not None:
        start, length, probability = drop
        plan.add(FaultWindow(FaultKind.MSG_DROP, start, start + length, probability=probability))
    if dup is not None:
        start, length, probability = dup
        plan.add(FaultWindow(FaultKind.MSG_DUP, start, start + length, probability=probability))
    if delay is not None:
        start, length, extra = delay
        plan.add(FaultWindow(FaultKind.MSG_DELAY, start, start + length, extra_latency=extra))
    sim = Simulator()
    cluster = StorageCluster(
        sim, n_nodes=3, profile=get_profile("intel320").with_capacity(64 * MIB),
        partitions_per_tenant=2, seed=3,
        net=NetConfig(
            rf=3, heartbeat_interval=0.05, suspicion_timeout=0.25, rpc_timeout=0.05,
            rpc_retries=3, rpc_backoff=0.002, fault_plan=plan,
        ),
    )
    cluster.add_tenant("t", Reservation(gets=1000.0, puts=1000.0))
    primaries = {p.node for p in cluster.partition_map.partitions("t")}
    (backup,) = set(cluster.nodes) - primaries  # two partitions, three nodes
    #: key -> the values a read may return: the last acknowledged write
    #: plus any later write that failed (it may have landed)
    possible = {}

    def client(c_idx, program):
        proxy = cluster.make_client()
        for op_idx, (verb, k, think) in enumerate(program):
            yield sim.timeout(think * 0.005)
            key = c_idx * CHAOS_KEYS + k
            held = possible.setdefault(key, {None})
            try:
                if verb == "get":
                    got = yield from proxy.get("t", key)
                    assert got in held, f"GET({key}) returned {got}; may hold {held}"
                else:
                    size = 512 + 64 * op_idx
                    held.add(size)
                    yield from proxy.put("t", key, size)
                    possible[key] = {size}
            except StorageFault:
                pass  # surfaced after the retries; a failed write stays possible

    def killer():
        yield sim.timeout(kill_at)
        cluster.kill_node(backup)

    procs = [sim.process(client(c_idx, program)) for c_idx, program in enumerate(programs)]
    if kill_at is not None:
        sim.process(killer())
    sim.step_while(lambda: any(proc.is_alive for proc in procs))
    for proc in procs:
        if not proc.ok:
            raise proc.value
    sim.run(until=sim.now + 1.0)  # in-flight shipments land; windows close

    def read_back():
        proxy = cluster.make_client()
        values = {}
        for key in sorted(possible):
            values[key] = yield from proxy.get("t", key)
        return values

    final = sim.process(read_back())
    sim.step_while(lambda: final.is_alive)
    cluster.stop()
    assert final.ok, final.value
    return final.value, possible


def _window(upper):
    return st.none() | st.tuples(st.floats(0.0, 0.15), st.floats(0.01, 0.15), upper)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    programs=st.lists(st.lists(CHAOS_OPS, min_size=8, max_size=20), min_size=2, max_size=4),
    drop=_window(st.floats(0.05, 0.5)),
    dup=_window(st.floats(0.1, 0.8)),
    delay=_window(st.floats(0.001, 0.02)),
    kill_at=st.none() | st.floats(0.02, 0.15),
)
def test_acked_writes_survive_message_chaos(programs, drop, dup, delay, kill_at):
    """2-4 clients on disjoint keys of an rf=3 primary-backup cluster,
    through a drawn MSG_DROP / MSG_DUP / MSG_DELAY window each (none
    longer than the suspicion timeout, so no live node is failed over)
    and maybe a backup's death: every GET returns its key's last
    acknowledged size (or a later write that failed and may have
    landed), and so does the read-back after quiescence.  The quorum
    acks this checks are what replica shipping and backup applies
    answer."""
    final, possible = _run_chaos_program(programs, drop, dup, delay, kill_at)
    for key, got in final.items():
        assert got in possible[key], f"read-back {key} = {got}; may hold {possible[key]}"
