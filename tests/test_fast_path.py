"""Tests of the device's one executor.

``SsdDevice.submit`` times an admitted op at once: it plans and reserves
it and pushes one finish action at its analytic finish time.  An op
that is not admitted yet waits in an admission FIFO (its queue's, the
starved-write FIFO, or a call at a stall's end) and is timed the same
way when it is.  These tests hold the executor to the FIFO queueing
model it implements: every op completes at the finish its plan books
on the controller lane and channels at its admission instant (see
``helpers.fifo_completions``), same-seed runs are identical, and the
VOP audit reconciles a run at 1.0000 with zero flags.
"""

import random
from dataclasses import replace

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

from .helpers import fifo_completions, observe_completions, record_bookings, run_alone

KIB = 1024
MIB = 1024 * 1024


def tiny_profile(queue_depth=32):
    return SsdProfile(
        name="tiny", channels=4, logical_capacity=64 * MIB, overprovision=1.0,
        queue_depth=queue_depth,
    )


def run_sched_trace(read_fraction, fault_plan=None, ops=200, until=30.0):
    """Drive a mixed tenant workload; return (trace, stats tuple, the
    device's completions, the FIFO model's)."""
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=1, fault_plan=fault_plan)
    bookings = record_bookings(device)
    completions = observe_completions(device)
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
    ), sorted(completions), fifo_completions(bookings, fault_plan, until)


def assert_one_executor(read_fraction, fault_plan=None, **kwargs):
    """Same seed, same run; and every op completed where the FIFO model
    of its admission-time booking puts it."""
    trace, stats, completions, model = run_sched_trace(read_fraction, fault_plan, **kwargs)
    again = run_sched_trace(read_fraction, fault_plan, **kwargs)
    assert (trace, stats) == again[:2]
    assert completions == model
    assert len(completions) == sum(stats[:2]) + stats[5] + stats[6]
    return trace, stats


@pytest.mark.parametrize("read_fraction", [1.0, 0.0, 0.6])
def test_fast_path_byte_identical(read_fraction):
    trace, stats = assert_one_executor(read_fraction)
    assert len(trace) == 600 and stats[-1] == 0


def test_fast_path_byte_identical_under_faults():
    plan = FaultPlan(seed=5)
    plan.add(FaultWindow(FaultKind.READ_ERROR, 0.002, 0.02, probability=0.3))
    plan.add(FaultWindow(FaultKind.LATENCY, 0.01, 0.05, extra_latency=0.001))
    plan.add(FaultWindow(FaultKind.DEGRADED_BW, 0.03, 0.08, slowdown=3.0))
    plan.add(FaultWindow(FaultKind.STALL, 0.06, 0.07))
    trace, stats = assert_one_executor(0.6, fault_plan=plan)
    # the plan's error and degraded-bandwidth windows fired
    faulted = [row for row in trace if row[3] == "x"]
    assert faulted and faulted[0][4] == DeviceReadError.__name__
    assert stats[7] > 0  # degraded ops


def test_fast_path_byte_identical_through_gc():
    # Write-heavy traffic on the tiny device drains the free pool, so
    # the run crosses GC windows and quiet stretches; GC's copy and
    # erase bookings sit in the same FIFO model as host ops.
    _trace, stats = assert_one_executor(0.1, ops=500, until=60.0)
    assert stats[4] > 0, "workload never triggered GC"


def test_quiet_serial_ops_never_reach_the_coroutine_path():
    """On an otherwise idle device each op completes at its own service
    time, as the same op run alone on an idle twin does, and none ever
    waits."""
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=2)
    twin = SsdDevice(Simulator(), tiny_profile(), seed=2)
    ops = []
    for k in range(50):
        ops.append((True, (k * 16 * KIB) % (32 * MIB), 4 * KIB))
        ops.append((False, (k * 32 * KIB) % (32 * MIB), 16 * KIB))
    latencies = []

    def driver():
        for is_read, offset, size in ops:
            start = sim.now
            done = (device.read if is_read else device.write)(offset, size)
            assert device.in_flight == 1 and sim.queue_size == 1  # timed at submit
            yield done
            latencies.append(sim.now - start)

    sim.process(driver())
    sim.run()
    assert device.stats.reads == 50 and device.stats.writes == 50
    expected = [run_alone(twin, *op) for op in ops]
    assert latencies == pytest.approx(expected, rel=1e-9)


def test_fast_path_off_forces_the_coroutine_path():
    """A running GC loop no longer holds ops back: a write arriving while
    it runs, with the pool above the GC reserve, is planned at submit."""
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=2)
    while not device.gc_running:
        device.write(0, 256 * KIB)
        sim.step()
    assert not device.ftl.host_starved
    busy = device.stats.controller_busy
    device.submit(False, 0, 4 * KIB, None, lambda *_: None, None)
    assert device.stats.controller_busy > busy and not device._starved
    sim.run()
    assert device.in_flight == 0


def test_invalid_range_degrades_to_coroutine_failure():
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(), seed=2)
    outcomes = []

    def driver():
        try:
            yield device.read(device.profile.logical_capacity, 4 * KIB)
        except Exception as exc:
            outcomes.append(type(exc).__name__)
            outcomes.append((device.in_flight, sim.queue_size))

    sim.process(driver())
    sim.run()
    assert outcomes == ["ValueError", (0, 0)]


@pytest.mark.parametrize("kind", ["sata", "nvme", "nvme_one_queue"])
@pytest.mark.parametrize("forced", [False, True])
def test_forced_device_runs_every_op_as_a_coroutine(kind, forced):
    """Every op — scheduler chunk, ``submit``, ``read``/``write`` — is
    delivered by one finish action, whether it is admitted at submit or
    (``forced``: one-slot queues) waits in its queue's FIFO first."""
    sim = Simulator()
    profile = replace(tiny_profile(), queue_depth=1) if forced else tiny_profile()
    if kind == "sata":
        device = SsdDevice(sim, profile, seed=2)
    else:
        queues = 4 if kind == "nvme" else 1
        device = NvmeDevice(sim, profile.with_queues(queues), seed=2)
    finishes, waited = [], []
    finish = device._finish
    device._finish = lambda arg: finishes.append(arg) or finish(arg)
    park = device._park
    device._park = lambda op: waited.append(op) or park(op)
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
    assert len(finishes) == ops
    assert bool(waited) == forced
    assert device.in_flight == 0


def test_ncq_saturation_degrades_and_preserves_order():
    # More submitters than queue-depth slots: late ops wait in the NCQ's
    # FIFO, and each is admitted in the finish action freeing a slot.
    sim = Simulator()
    device = SsdDevice(sim, tiny_profile(queue_depth=2), seed=2)
    admitted = []
    plan = device._plan
    device._plan = lambda *args: (admitted.append((args[1], sim.now)), plan(*args))[1]
    finished = observe_completions(device)
    done = []

    def one(i):
        yield device.read((i * 64 * KIB) % (32 * MIB), 4 * KIB)
        done.append(i)

    for i in range(8):
        sim.process(one(i))
    sim.run()
    assert done == sorted(done)
    assert [offset for offset, _at in admitted] == [i * 64 * KIB for i in range(8)]
    # the first two at once, each later one at its predecessor-but-one's finish
    assert [at for _offset, at in admitted] == [0.0, 0.0] + [at for at, *_ in finished[:6]]
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
