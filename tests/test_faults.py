"""Tests for deterministic fault injection and per-layer failure handling.

Covers the fault stack bottom-up: plan/window semantics, the injector's
seeded draws, device-level error/timing effects, WAL torn tails and
group-commit failure, engine checksum re-reads, scheduler failure
propagation, policy capacity re-estimation, and the node's
retry/timeout/crash machinery.
"""

import pytest

from repro.core import (
    IoTag,
    LibraScheduler,
    RequestClass,
    Reservation,
    ResourcePolicy,
    ResourceTracker,
    make_cost_model,
    reference_calibration,
)
from repro.engine import EngineConfig, LsmEngine, Wal
from repro.faults import (
    CorruptionError, CrashError, DeviceReadError, DeviceWriteError,
    FaultInjector, FaultKind, FaultPlan, FaultWindow, RetriesExhausted,
)
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.ssd import RawBackend, SimFilesystem, SsdDevice, SsdProfile

from .helpers import run_alone

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-flt", channels=4, logical_capacity=64 * MIB, overprovision=1.0)

TAG = IoTag("t1", RequestClass.GET)


def window(kind, start=0.0, end=1.0, **kw):
    return FaultWindow(kind, start, end, **kw)


def _drive_to(sim, proc, until):
    # Step (rather than run) so the clock stops at the completing event
    # instead of being advanced to the horizon — sims get reused across
    # several flows and later flows care about fault-window timing.
    deadline = sim.now + until
    while not proc.triggered and sim.queue_size and sim.now <= deadline:
        sim.step()
    assert proc.triggered, "op deadlocked"


def drive(sim, gen, until=300.0):
    proc = sim.process(gen)
    _drive_to(sim, proc, until)
    assert proc.ok, proc.value
    return proc.value


def drive_failing(sim, gen, until=300.0):
    proc = sim.process(gen)
    _drive_to(sim, proc, until)
    assert not proc.ok, "expected failure, op succeeded"
    return proc.value


# ---------------------------------------------------------------------------
# FaultWindow / FaultPlan
# ---------------------------------------------------------------------------

def test_fault_window_validation():
    with pytest.raises(ValueError):
        FaultWindow(FaultKind.READ_ERROR, 1.0, 1.0)
    with pytest.raises(ValueError):
        FaultWindow(FaultKind.READ_ERROR, 0.0, 1.0, probability=1.5)
    with pytest.raises(ValueError):
        FaultWindow(FaultKind.LATENCY, 0.0, 1.0, extra_latency=-0.1)
    with pytest.raises(ValueError):
        FaultWindow(FaultKind.DEGRADED_BW, 0.0, 1.0, slowdown=0.5)


def test_fault_plan_timing_queries():
    plan = (
        FaultPlan()
        .add(window(FaultKind.STALL, 1.0, 2.0))
        .add(window(FaultKind.STALL, 1.5, 3.0))
        .add(window(FaultKind.DEGRADED_BW, 0.0, 2.0, slowdown=2.0))
        .add(window(FaultKind.DEGRADED_BW, 1.0, 2.0, slowdown=3.0))
        .add(window(FaultKind.LATENCY, 0.0, 1.0, extra_latency=0.01))
        .add(window(FaultKind.LATENCY, 0.5, 1.0, extra_latency=0.02))
    )
    # half-open [start, end): the boundary belongs to the next regime
    assert plan.stall_until(0.9) == 0.9
    assert plan.stall_until(1.0) == 2.0  # only windows covering t apply
    assert plan.stall_until(1.6) == 3.0  # overlapping stalls: latest end
    assert plan.stall_until(2.5) == 3.0
    assert plan.stall_until(3.0) == 3.0
    # concurrent slowdowns compose multiplicatively, latencies add
    assert plan.service_scale(1.5) == pytest.approx(6.0)
    assert plan.service_scale(0.5) == pytest.approx(2.0)
    assert plan.extra_latency(0.7) == pytest.approx(0.03)
    assert plan.extra_latency(1.0) == 0.0
    assert plan.horizon == 3.0


def test_fault_plan_generate_is_seed_deterministic():
    a = FaultPlan.generate(seed=42, horizon=30.0, windows=6)
    b = FaultPlan.generate(seed=42, horizon=30.0, windows=6)
    c = FaultPlan.generate(seed=43, horizon=30.0, windows=6)
    assert a.windows == b.windows
    assert a.windows != c.windows
    assert all(w.end <= 30.0 + 3.0 for w in a.windows)


# ---------------------------------------------------------------------------
# FaultInjector
# ---------------------------------------------------------------------------

def test_injector_identical_draw_sequences():
    plan = FaultPlan(seed=9).add(
        window(FaultKind.READ_ERROR, 0.0, 1.0, probability=0.5)
    ).add(window(FaultKind.CORRUPT_READ, 0.0, 1.0, probability=0.5))
    a, b = FaultInjector(plan), FaultInjector(plan)
    seq_a = [type(a.draw_read_fault(0.5, i, 4096)).__name__ for i in range(50)]
    seq_b = [type(b.draw_read_fault(0.5, i, 4096)).__name__ for i in range(50)]
    assert seq_a == seq_b
    assert a.injected_read_errors == b.injected_read_errors
    assert a.injected_corruptions == b.injected_corruptions
    assert a.injected_read_errors > 0 and a.injected_corruptions > 0


def test_injector_consumes_no_randomness_outside_windows():
    plan = FaultPlan(seed=9).add(
        window(FaultKind.READ_ERROR, 5.0, 6.0, probability=1.0)
    )
    inj = FaultInjector(plan)
    before = inj._rng.getstate()
    for i in range(20):
        assert inj.draw_read_fault(1.0, i, 4096) is None
        assert inj.draw_write_fault(1.0, i, 4096) is None
    # No window active at t=1 -> no draw burned; a healthy prefix never
    # perturbs the fault sequence of a later window.
    assert inj._rng.getstate() == before
    assert isinstance(inj.draw_read_fault(5.0, 0, 4096), DeviceReadError)


def test_injector_error_precedence_over_corruption():
    plan = (
        FaultPlan(seed=1)
        .add(window(FaultKind.READ_ERROR, 0.0, 1.0, probability=1.0))
        .add(window(FaultKind.CORRUPT_READ, 0.0, 1.0, probability=1.0))
    )
    inj = FaultInjector(plan)
    assert isinstance(inj.draw_read_fault(0.0, 0, 4096), DeviceReadError)
    assert inj.injected_corruptions == 0


# ---------------------------------------------------------------------------
# Device-level behavior
# ---------------------------------------------------------------------------

def faulty_device(plan, sim=None):
    sim = sim or Simulator()
    device = SsdDevice(sim, TINY, seed=3, precondition=False, fault_plan=plan)
    return sim, device


def test_device_read_error_raised_and_counted():
    plan = FaultPlan(seed=2).add(
        window(FaultKind.READ_ERROR, 0.0, 1.0, probability=1.0)
    )
    sim, device = faulty_device(plan)

    def flow():
        yield device.write(0, 64 * KIB)
        yield device.read(0, 64 * KIB)

    err = drive_failing(sim, flow())
    assert isinstance(err, DeviceReadError)
    assert device.stats.read_faults == 1
    assert device.stats.reads == 0  # failed ops don't count as served

    # After the window the same read succeeds.
    def later():
        yield sim.timeout(max(0.0, 1.0 - sim.now))
        yield device.read(0, 64 * KIB)

    drive(sim, later())
    assert device.stats.reads == 1


def test_device_write_error_raised_and_counted():
    plan = FaultPlan(seed=2).add(
        window(FaultKind.WRITE_ERROR, 0.0, 1.0, probability=1.0)
    )
    sim, device = faulty_device(plan)

    def flow():
        yield device.write(0, 64 * KIB)

    err = drive_failing(sim, flow())
    assert isinstance(err, DeviceWriteError)
    assert device.stats.write_faults == 1
    assert device.stats.writes == 0


def test_device_corrupt_read_counted_separately():
    plan = FaultPlan(seed=2).add(
        window(FaultKind.CORRUPT_READ, 0.0, 1.0, probability=1.0)
    )
    sim, device = faulty_device(plan)

    def flow():
        yield device.write(0, 4 * KIB)
        yield device.read(0, 4 * KIB)

    err = drive_failing(sim, flow())
    assert isinstance(err, CorruptionError)
    assert device.stats.corrupt_reads == 1
    assert device.stats.read_faults == 0


def test_device_stall_delays_admission():
    plan = FaultPlan().add(window(FaultKind.STALL, 0.0, 0.05))
    sim, device = faulty_device(plan)
    done = {}

    def flow():
        yield device.write(0, 4 * KIB)
        done["at"] = sim.now

    drive(sim, flow())
    assert done["at"] >= 0.05
    assert device.stats.stall_seconds == pytest.approx(0.05)


def test_a_stalled_op_completes_at_the_stall_end_plus_its_service_time():
    """Ops arriving in a stall hold their slots until its end, are then
    admitted in arrival order, and are priced under the windows active
    at that instant — not those at their arrival."""
    end = 0.05
    plan = (
        FaultPlan(seed=4)
        .add(window(FaultKind.STALL, 0.0, end))
        .add(window(FaultKind.DEGRADED_BW, 0.04, 0.2, slowdown=3.0))
        .add(window(FaultKind.LATENCY, end, 0.2, extra_latency=0.002))
        .add(window(FaultKind.READ_ERROR, end, 0.2, probability=1.0))
        .add(window(FaultKind.WRITE_ERROR, 0.0, end, probability=1.0))
    )
    sim, device = faulty_device(plan)
    _sim, healthy = faulty_device(None)
    w_ctrl, w_services = healthy._plan(False, 0, 4 * KIB)
    busy = {chan for chan, _service in w_services}
    offset = next(off for off in range(0, MIB, 4 * KIB)
                  if healthy.ftl.read_channel(off) not in busy)
    r_ctrl, r_services = healthy._plan(True, offset, 4 * KIB)
    log = []

    def record(name, result):
        log.append((name, sim.now, result))

    sim.run(until=0.01)
    device.submit(False, 0, 4 * KIB, None, record, "w")
    device.submit(True, offset, 4 * KIB, None, record, "r")
    assert device.in_flight == 2 and device.stats.controller_busy == 0.0
    sim.run()
    # both at the stall's end, FIFO on the controller, on their own channels
    w_finish = end + w_ctrl + max(s * 3.0 for _c, s in w_services)
    r_finish = end + w_ctrl + r_ctrl + max(s * 3.0 for _c, s in r_services)
    (w_kind, w_at, w_result), (r_kind, r_at, r_result) = sorted(log, reverse=True)
    assert (w_kind, r_kind) == ("w", "r")
    assert w_at == pytest.approx(w_finish + 0.002, rel=1e-12)
    assert r_at == pytest.approx(r_finish + 0.002, rel=1e-12)
    # the write-error window closed at admission; the read-error one opened
    assert w_result.ok and isinstance(r_result.value, DeviceReadError)
    assert device.stats.stall_seconds == pytest.approx(2 * (end - 0.01))
    assert device.stats.degraded_ops == 2
    assert device.stats.fault_delay_seconds == pytest.approx(0.004)


def test_a_faulted_op_occupies_its_stages_before_its_callback_sees_the_fault():
    plan = FaultPlan(seed=2).add(window(FaultKind.WRITE_ERROR, 0.0, 1.0, probability=1.0))
    sim, device = faulty_device(plan)
    _sim, healthy = faulty_device(None)
    seen = []

    def record(name, result):
        seen.append((name, sim.now, device.in_flight, result))

    device.submit(False, 0, 64 * KIB, None, record, "write")
    # a read of a page it programmed queues behind it on that channel
    device.submit(True, 0, 4 * KIB, None, record, "read")
    sim.run()
    (_w, w_at, w_in_flight, w_result), (_r, r_at, _in, r_result) = seen
    # a healthy twin's write finishes at the same instant: every stage served
    assert w_at == run_alone(healthy, False, 0, 64 * KIB)
    assert w_in_flight == 1  # its slot is free before its callback runs
    assert not w_result.ok and isinstance(w_result.value, DeviceWriteError)
    profile = device.profile
    assert r_at == pytest.approx(w_at + profile.read_access + 4 * KIB * profile.read_byte_cost)
    assert r_result.ok
    assert (device.stats.write_faults, device.stats.writes, device.stats.reads) == (1, 0, 1)


def test_device_degraded_bandwidth_slows_service():
    def timed(plan):
        sim, device = faulty_device(plan)
        out = {}

        def flow():
            yield device.read(0, 256 * KIB)
            out["at"] = sim.now

        drive(sim, flow())
        return out["at"], device

    healthy, _dev = timed(None)
    slowed, dev = timed(
        FaultPlan().add(window(FaultKind.DEGRADED_BW, 0.0, 10.0, slowdown=4.0))
    )
    assert slowed > healthy * 1.5
    assert dev.stats.degraded_ops == 1


def test_device_latency_window_pads_completion():
    plan = FaultPlan().add(
        window(FaultKind.LATENCY, 0.0, 1.0, extra_latency=0.02)
    )
    sim, device = faulty_device(plan)
    out = {}

    def flow():
        yield device.read(0, 4 * KIB)
        out["at"] = sim.now

    drive(sim, flow())
    assert out["at"] >= 0.02
    assert device.stats.fault_delay_seconds == pytest.approx(0.02)


# ---------------------------------------------------------------------------
# WAL: torn tails, failed group commits, recovery scan retries
# ---------------------------------------------------------------------------

def wal_env(plan=None):
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=3, precondition=False, fault_plan=plan)
    fs = SimFilesystem(sim, RawBackend(device), capacity=TINY.logical_capacity)
    return sim, device, Wal(sim, fs, "wal-test")


def test_wal_crash_tears_pending_records():
    sim, _device, wal = wal_env()
    events = [wal.append(512, TAG, record=(k, 512)) for k in range(3)]
    # Nothing has committed yet (the sim has not run); crash tears all.
    torn = wal.crash()
    assert torn == 3
    assert wal.torn_records == 3
    assert wal.entries == []
    for ev in events:
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, CrashError)
    # The log remains usable for the successor's appends.
    def reissue():
        yield wal.append(512, TAG, record=(9, 512))

    drive(sim, reissue())
    assert wal.entries == [(9, 512)]


def test_wal_failed_group_commit_fails_all_waiters():
    plan = FaultPlan(seed=4).add(
        window(FaultKind.WRITE_ERROR, 0.0, 1.0, probability=1.0)
    )
    sim, _device, wal = wal_env(plan)
    events = [wal.append(512, TAG, record=(k, 512)) for k in range(4)]
    sim.run(until=1.0)
    assert wal.failed_batches >= 1
    assert wal.entries == []
    for ev in events:
        assert ev.triggered and not ev.ok
        assert isinstance(ev.value, DeviceWriteError)
    # Re-issued records commit once the window closes.
    ev = wal.append(512, TAG, record=(0, 512))
    sim.run(until=2.0)
    assert ev.ok and wal.entries == [(0, 512)]


def test_wal_scan_retries_corrupt_chunks():
    plan = FaultPlan(seed=6).add(
        window(FaultKind.CORRUPT_READ, 1.0, 50.0, probability=0.4)
    )
    sim, device, wal = wal_env(plan)
    for k in range(8):
        ev = wal.append(2 * KIB, TAG, record=(k, 2 * KIB))
    sim.run(until=1.0)
    assert ev.ok

    def scan():
        entries = yield from wal.scan(TAG, chunk=4 * KIB, read_retries=12)
        return entries

    entries = drive(sim, scan())
    assert entries == [(k, 2 * KIB) for k in range(8)]
    assert device.stats.corrupt_reads > 0


def test_wal_scan_exhausts_retries_and_raises():
    plan = FaultPlan(seed=6).add(
        window(FaultKind.READ_ERROR, 1.0, 50.0, probability=1.0)
    )
    sim, _device, wal = wal_env(plan)
    ev = wal.append(2 * KIB, TAG, record=(0, 2 * KIB))
    sim.run(until=1.0)
    assert ev.ok

    err = drive_failing(sim, wal.scan(TAG, read_retries=2))
    assert isinstance(err, DeviceReadError)


# ---------------------------------------------------------------------------
# Engine: checksum verification re-reads
# ---------------------------------------------------------------------------

def engine_env(plan=None, read_retries=4):
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=3, precondition=False, fault_plan=plan)
    tracker = ResourceTracker()
    scheduler = LibraScheduler(
        sim,
        device,
        make_cost_model("exact", reference_calibration("intel320")),
        io_observer=tracker.note_io,
    )
    scheduler.register_tenant("t1", 50_000.0)
    fs = SimFilesystem(sim, scheduler, capacity=TINY.logical_capacity)
    config = EngineConfig(
        memtable_bytes=64 * KIB, level1_bytes=1 * MIB, read_retries=read_retries
    )
    engine = LsmEngine(sim, fs, "t1", config, tracker=tracker)
    return sim, device, engine


def test_engine_reread_clears_corruption():
    plan = FaultPlan(seed=12).add(
        window(FaultKind.CORRUPT_READ, 5.0, 100.0, probability=0.4)
    )
    sim, device, engine = engine_env(plan, read_retries=8)

    def fill():
        for k in range(64):  # spills the 64 KiB memtable into SSTables
            yield from engine.put(k, 4 * KIB)

    drive(sim, fill())
    assert engine.version.file_count > 0

    def lookups():
        yield sim.timeout(max(0.0, 5.0 - sim.now))
        for k in range(64):
            size = yield from engine.get(k)
            assert size == 4 * KIB, k

    drive(sim, lookups())
    assert engine.stats.checksum_failures > 0
    assert engine.stats.read_retries > 0
    assert device.stats.corrupt_reads > 0


def test_engine_get_raises_when_rereads_exhausted():
    plan = FaultPlan(seed=12).add(
        window(FaultKind.CORRUPT_READ, 5.0, 100.0, probability=1.0)
    )
    sim, _device, engine = engine_env(plan, read_retries=2)

    def fill():
        for k in range(64):
            yield from engine.put(k, 4 * KIB)

    drive(sim, fill())

    def lookup():
        yield sim.timeout(max(0.0, 5.0 - sim.now))
        yield from engine.get(0)

    err = drive_failing(sim, lookup())
    assert isinstance(err, CorruptionError)


# ---------------------------------------------------------------------------
# Scheduler: failed IO still completes the task (and is counted)
# ---------------------------------------------------------------------------

def test_scheduler_propagates_failure_and_counts():
    plan = FaultPlan(seed=2).add(
        window(FaultKind.READ_ERROR, 0.0, 10.0, probability=1.0)
    )
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=3, precondition=False, fault_plan=plan)
    scheduler = LibraScheduler(
        sim, device, make_cost_model("exact", reference_calibration("intel320"))
    )
    scheduler.register_tenant("t1", 10_000.0)
    fs = SimFilesystem(sim, scheduler, capacity=TINY.logical_capacity)
    f = fs.create("obj")

    def flow():
        yield f.append(16 * KIB, tag=TAG)
        yield f.read(0, 16 * KIB, tag=TAG)

    err = drive_failing(sim, flow())
    assert isinstance(err, DeviceReadError)
    usage = scheduler.usage("t1")
    assert usage.failed_ops >= 1
    # The failed chunk still consumed (and was charged) virtual IO.
    assert usage.vops > 0
    assert scheduler.backlog == 0  # nothing leaked in the queues


# ---------------------------------------------------------------------------
# Policy: capacity re-estimation under sustained degradation
# ---------------------------------------------------------------------------

class _StubScheduler:
    def __init__(self, backlog):
        self.backlog = backlog


def make_policy(capacity=10_000.0):
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=1, precondition=False)
    scheduler = LibraScheduler(
        sim, device, make_cost_model("exact", reference_calibration("intel320"))
    )
    tracker = ResourceTracker()
    policy = ResourcePolicy(sim, scheduler, tracker, capacity_vops=capacity)
    return sim, policy


def test_policy_degrades_only_after_consecutive_slow_intervals():
    _sim, policy = make_policy()
    policy.scheduler = _StubScheduler(backlog=5)
    for i in range(policy.degrade_intervals - 1):
        policy._observe_capacity(delivered=1000.0)
        assert policy.effective_capacity == policy.capacity_vops, i
    policy._observe_capacity(delivered=1000.0)
    assert policy.effective_capacity < policy.capacity_vops
    assert policy.capacity_reestimates == 1
    assert policy.provisionable == policy.effective_capacity


def test_policy_ignores_low_delivery_without_backlog():
    _sim, policy = make_policy()
    policy.scheduler = _StubScheduler(backlog=0)
    for _ in range(10):
        policy._observe_capacity(delivered=0.0)  # idle, not degraded
    assert policy.effective_capacity == policy.capacity_vops
    assert policy.capacity_reestimates == 0


def test_policy_effective_capacity_recovers_to_nominal():
    _sim, policy = make_policy()
    policy.scheduler = _StubScheduler(backlog=5)
    for _ in range(6):
        policy._observe_capacity(delivered=1000.0)
    degraded = policy.effective_capacity
    assert degraded < policy.capacity_vops
    assert degraded >= 0.05 * policy.capacity_vops  # floored
    policy.scheduler = _StubScheduler(backlog=0)
    for _ in range(40):
        policy._observe_capacity(delivered=9000.0)
    assert policy.effective_capacity == policy.capacity_vops
    assert policy.provisionable == policy.capacity_vops


# ---------------------------------------------------------------------------
# Node: retries, timeouts, crash waits
# ---------------------------------------------------------------------------

def make_node(plan=None, **cfg):
    sim = Simulator()
    cfg.setdefault("capacity_vops", 20_000.0)  # custom profile: no floor table
    node = StorageNode(sim, profile=TINY, config=NodeConfig(**cfg), fault_plan=plan)
    node.add_tenant("t1", Reservation(gets=1000, puts=1000))
    return sim, node


def test_node_retries_are_transparent():
    # Write errors always hit the device (every PUT lands in the WAL;
    # GETs could be absorbed by the memtable).
    plan = FaultPlan(seed=3).add(
        window(FaultKind.WRITE_ERROR, 0.0, 10.0, probability=0.4)
    )
    sim, node = make_node(plan, max_retries=10)

    def flow():
        for k in range(20):
            yield from node.put("t1", k, 4 * KIB)
        for k in range(20):
            size = yield from node.get("t1", k)
            assert size == 4 * KIB

    drive(sim, flow())
    stats = node.stats("t1")
    assert stats.retries > 0
    assert stats.errors == 0
    node.stop()


def test_node_surfaces_retries_exhausted():
    plan = FaultPlan(seed=3).add(
        window(FaultKind.WRITE_ERROR, 0.0, 1000.0, probability=1.0)
    )
    sim, node = make_node(plan, max_retries=2, retry_backoff=0.001)

    def flow():
        yield from node.put("t1", 1, 4 * KIB)

    err = drive_failing(sim, flow())
    assert isinstance(err, RetriesExhausted)
    assert isinstance(err.__cause__, DeviceWriteError)
    stats = node.stats("t1")
    # Every transient failure counts, including the one that exhausts.
    assert stats.retries == 3
    assert stats.errors == 1
    node.stop()


def test_node_timeout_budget_fires_during_stall():
    plan = FaultPlan().add(window(FaultKind.STALL, 0.05, 0.4))
    sim, node = make_node(plan, request_timeout=0.05, max_retries=20)

    def flow():
        yield from node.put("t1", 1, 4 * KIB)  # healthy, before the stall
        yield sim.timeout(0.06)  # inside the stall window
        yield from node.put("t1", 2, 4 * KIB)  # stalled on the device
        size = yield from node.get("t1", 2)
        return size

    assert drive(sim, flow()) == 4 * KIB
    stats = node.stats("t1")
    assert stats.timeouts > 0  # attempts timed out during the stall...
    assert stats.errors == 0  # ...but the request ultimately succeeded
    node.stop()


def test_node_crash_waits_block_until_restart():
    sim, node = make_node()
    sizes = {}

    def writer():
        for k in range(8):
            yield from node.put("t1", k, 4 * KIB)

    def reader():
        yield sim.timeout(0.5)  # issued while the tenant is down
        sizes["got"] = yield from node.get("t1", 3)
        sizes["at"] = sim.now

    def chaos():
        yield sim.timeout(0.2)
        node.crash("t1")
        yield sim.timeout(0.8)
        replayed = yield from node.restart("t1")
        sizes["replayed"] = replayed

    drive(sim, writer(), until=0.2)
    sim.process(reader())
    proc = sim.process(chaos())
    sim.run(until=10.0)
    assert proc.ok, proc.value
    stats = node.stats("t1")
    assert stats.crashes == 1
    assert stats.crash_waits >= 1
    assert sizes["got"] == 4 * KIB
    assert sizes["at"] >= 1.0  # held until the restart completed
    assert sizes["replayed"] >= 1
    node.stop()
