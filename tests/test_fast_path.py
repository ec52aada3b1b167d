"""Equivalence tests for the zero-coroutine device fast path.

The SSD device admits common-case ops analytically (one scheduled
completion action, no generator); anything stateful — fault windows,
GC, NCQ saturation, invalid ranges — falls back to the coroutine
pipeline.  These tests hold the contract that makes that optimization
safe: with the same seed, a run with the fast path enabled is
byte-identical to one whose admission is stubbed to decline, forcing
every op down the coroutine path, and the VOP audit reconciles a
fast-path run at 1.0000 with zero flags.
"""

import random

import pytest

from repro.core import (
    IoTag,
    LibraScheduler,
    make_cost_model,
    reference_calibration,
)
from repro.faults import DeviceReadError, FaultKind, FaultPlan, FaultWindow
from repro.obs import VopAudit
from repro.sim import OK_RESULT, SimulationError, Simulator
from repro.ssd import NvmeDevice, SsdDevice, SsdProfile

from .helpers import force_coroutine_path

KIB = 1024
MIB = 1024 * 1024


def tiny_profile(queue_depth=32):
    return SsdProfile(
        name="tiny", channels=4, logical_capacity=64 * MIB, overprovision=1.0,
        queue_depth=queue_depth,
    )


def run_sched_trace(fast, read_fraction, fault_plan=None, ops=200, until=30.0):
    """Drive a mixed tenant workload; return (trace, stats tuple)."""
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=1, fault_plan=fault_plan)
    if not fast:
        force_coroutine_path(device)
    model = make_cost_model("exact", reference_calibration("intel320"))
    sched = LibraScheduler(sim, device, model)
    for i in range(3):
        sched.register_tenant(f"t{i}", 10_000.0 + 1_000.0 * i)
    trace = []

    def worker(tid):
        rng = random.Random(100 + tid)
        tag = IoTag(f"t{tid}")
        for k in range(ops):
            off = rng.randrange(0, 48 * MIB) & ~4095
            size = rng.choice([4 * KIB, 16 * KIB, 256 * KIB])
            try:
                if rng.random() < read_fraction:
                    yield sched.read(off, size, tag=tag)
                    trace.append((sim.now, tid, k, "r", off, size))
                else:
                    yield sched.write(off, size, tag=tag)
                    trace.append((sim.now, tid, k, "w", off, size))
            except Exception as exc:  # injected faults are part of the trace
                trace.append((sim.now, tid, k, "x", type(exc).__name__, off))

    for tid in range(3):
        sim.process(worker(tid))
    sim.run(until=until)
    stats = device.stats
    return trace, (
        stats.reads, stats.writes, stats.read_bytes, stats.write_bytes,
        stats.gc_runs, stats.read_faults, stats.write_faults,
        stats.degraded_ops, device.in_flight,
    )


@pytest.mark.parametrize("read_fraction", [1.0, 0.0, 0.6])
def test_fast_path_byte_identical(read_fraction):
    fast = run_sched_trace(True, read_fraction)
    slow = run_sched_trace(False, read_fraction)
    assert fast[1] == slow[1]
    assert fast[0] == slow[0]


def test_fast_path_byte_identical_under_faults():
    plan = FaultPlan(seed=5)
    plan.add(FaultWindow(FaultKind.READ_ERROR, 0.002, 0.02, probability=0.3))
    plan.add(FaultWindow(FaultKind.LATENCY, 0.01, 0.05, extra_latency=0.001))
    plan.add(FaultWindow(FaultKind.DEGRADED_BW, 0.03, 0.08, slowdown=3.0))
    plan.add(FaultWindow(FaultKind.STALL, 0.06, 0.07))
    fast = run_sched_trace(True, 0.6, fault_plan=plan)
    slow = run_sched_trace(False, 0.6, fault_plan=plan)
    assert fast[1] == slow[1]
    assert fast[0] == slow[0]
    # the plan actually exercised the fallback's fault machinery
    faulted = [row for row in fast[0] if row[3] == "x"]
    assert faulted and faulted[0][4] == DeviceReadError.__name__


def test_fast_path_byte_identical_through_gc():
    # Write-heavy traffic on the tiny device drains the free pool, so
    # the run crosses GC windows (fast path off) and quiet stretches
    # (fast path on) — the equivalence must hold across the seams.
    fast = run_sched_trace(True, 0.1, ops=500, until=60.0)
    slow = run_sched_trace(False, 0.1, ops=500, until=60.0)
    assert fast[1][4] > 0, "workload never triggered GC"
    assert fast[1] == slow[1]
    assert fast[0] == slow[0]


def test_quiet_serial_ops_never_reach_the_coroutine_path():
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=2)
    calls = []
    original = device._do_op
    device._do_op = lambda *a, **k: calls.append("r" if a[0] else "w") or original(*a, **k)

    def driver():
        for k in range(50):
            yield device.read((k * 16 * KIB) % (32 * MIB), 4 * KIB)
            yield device.write((k * 32 * KIB) % (32 * MIB), 16 * KIB)

    sim.process(driver())
    sim.run()
    assert device.stats.reads == 50 and device.stats.writes == 50
    assert calls == []


def test_fast_path_off_forces_the_coroutine_path():
    sim = Simulator()
    device = force_coroutine_path(SsdDevice(sim, tiny_profile(), seed=2))
    calls = []
    original = device._do_op
    device._do_op = lambda *a, **k: calls.append("r" if a[0] else "w") or original(*a, **k)

    def driver():
        yield device.read(0, 4 * KIB)

    sim.process(driver())
    sim.run()
    assert calls == ["r"]


def test_invalid_range_degrades_to_coroutine_failure():
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=2)
    outcomes = []

    def driver():
        try:
            yield device.read(device.profile.logical_capacity, 4 * KIB)
        except Exception as exc:
            outcomes.append(type(exc).__name__)

    sim.process(driver())
    sim.run()
    assert outcomes == ["ValueError"]


@pytest.mark.parametrize("kind", ["sata", "nvme", "nvme_one_queue"])
@pytest.mark.parametrize("forced", [False, True])
def test_forced_device_runs_every_op_as_a_coroutine(kind, forced):
    """Every fast-vs-coroutine oracle leans on ``force_coroutine_path``:
    a forced device must run each op — scheduler chunk, ``submit``,
    ``read``/``write`` — through ``_do_op`` and none through the
    scheduled finish, and an unforced idle one none through ``_do_op``."""
    sim = Simulator()
    profile = tiny_profile()
    if kind == "sata":
        device = SsdDevice(sim, profile, seed=2)
    else:
        queues = 4 if kind == "nvme" else 1
        device = NvmeDevice(sim, profile.with_queues(queues), seed=2)
    if forced:
        force_coroutine_path(device)
    coroutines, finishes = [], []
    do_op, finish_fast = device._do_op, device._finish_fast
    device._do_op = lambda *args: coroutines.append(args) or do_op(*args)
    device._finish_fast = lambda arg: finishes.append(arg) or finish_fast(arg)
    model = make_cost_model("exact", reference_calibration("intel320"))
    sched = LibraScheduler(sim, device, model)
    for tenant in ("a", "b"):
        sched.register_tenant(tenant, 10_000.0)
    delivered = []

    def driver():
        for i in range(6):
            tag = IoTag("ab"[i % 2])
            yield sched.read(i * 64 * KIB, 4 * KIB, tag=tag)
            yield sched.write(i * 64 * KIB, 256 * KIB, tag=tag)  # two chunks
            yield device.read(i * 4 * KIB, 16 * KIB, (None, "c"))
            yield device.write(i * 4 * KIB, 4 * KIB)
            device.submit(True, i * 8 * KIB, 4 * KIB, None, lambda _a, r: delivered.append(r.ok),
                          None)

    proc = sim.process(driver())
    sim.run(until=5.0)
    sched.stop()
    assert proc.ok and delivered == [True] * 6
    ops = 6 * (1 + 2 + 1 + 1 + 1)
    assert device.stats.reads + device.stats.writes == ops
    if forced:
        assert (len(coroutines), len(finishes)) == (ops, 0)
    else:
        assert (len(coroutines), len(finishes)) == (0, ops)
    assert device.in_flight == 0


def test_ncq_saturation_degrades_and_preserves_order():
    # More submitters than queue-depth slots: late ops find try_acquire
    # failing and must queue FIFO behind the coroutine path.
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(queue_depth=2), seed=2)
    done = []

    def one(i):
        yield device.read((i * 64 * KIB) % (32 * MIB), 4 * KIB)
        done.append(i)

    for i in range(8):
        sim.process(one(i))
    sim.run()
    assert done == sorted(done)
    assert device.stats.reads == 8
    assert device.in_flight == 0


def test_audit_reconciles_fast_path_run():
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=1)
    model = make_cost_model("exact", reference_calibration("intel320"))
    sched = LibraScheduler(sim, device, model)
    sched.register_tenant("a", 20_000.0)
    sched.register_tenant("b", 10_000.0)
    audit = VopAudit(model)
    audit.attach(sched, device)

    def worker(tenant):
        rng = random.Random(f"audit:{tenant}")
        tag = IoTag(tenant)
        for _ in range(150):
            off = rng.randrange(0, 48 * MIB) & ~4095
            if rng.random() < 0.5:
                yield sched.read(off, 4 * KIB, tag=tag)
            else:
                yield sched.write(off, 16 * KIB, tag=tag)

    for tenant in ("a", "b"):
        sim.process(worker(tenant))
    sim.run(until=30.0)
    summary = audit.summary(sim.now)
    assert summary["ok"], summary["flags"]
    assert summary["flags"] == []
    assert summary["reconciliation"] == pytest.approx(1.0, abs=5e-5)
    assert summary["chunks"] == summary["device_ops"] > 0


def test_call_at_rejects_the_past():
    sim = Simulator()
    sim.call_at(1.0, lambda _arg: None, None)
    sim.run()
    assert sim.now == 1.0
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda _arg: None, None)


def test_ok_result_shape():
    assert OK_RESULT.ok and OK_RESULT.triggered and OK_RESULT.processed
    assert OK_RESULT.value is None
