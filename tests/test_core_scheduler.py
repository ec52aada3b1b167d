"""Unit/behaviour tests for the Libra DDRR scheduler."""

import random

import pytest

from repro.core import (
    IoTag, LibraScheduler, OpKind, RequestClass, make_cost_model,
    reference_calibration,
)
from repro.sim import Simulator
from repro.ssd import SsdDevice, SsdProfile

KIB = 1024
MIB = 1024 * 1024


def make_env(queue_depth=32):
    sim = Simulator()
    profile = SsdProfile(
        name="tiny", channels=4, logical_capacity=32 * MIB, overprovision=1.0,
        queue_depth=queue_depth,
    )
    device = SsdDevice(sim, profile, seed=1)
    cal = reference_calibration("intel320")
    model = make_cost_model("exact", cal)
    scheduler = LibraScheduler(sim, device, model)
    return sim, device, scheduler, model


def test_untagged_io_rejected():
    _sim, _dev, scheduler, _m = make_env()
    with pytest.raises(ValueError):
        scheduler.read(0, 4 * KIB)


def test_unknown_tenant_rejected():
    _sim, _dev, scheduler, _m = make_env()
    with pytest.raises(KeyError):
        scheduler.read(0, 4 * KIB, tag=IoTag("ghost"))


@pytest.mark.parametrize("size", [0, -4 * KIB])
def test_empty_io_rejected_at_submission(size):
    """An IO of no bytes has no chunk to complete it: it used to return
    an event that never fired."""
    sim, _dev, scheduler, _m = make_env()
    scheduler.register_tenant("a", 100.0)
    for submit in (scheduler.read, scheduler.write):
        with pytest.raises(ValueError):
            submit(0, size, tag=IoTag("a"))
    assert scheduler.backlog == 0


@pytest.mark.parametrize("offset, size", [
    (32 * MIB, 4 * KIB),  # starts at the end
    (32 * MIB - 4 * KIB, 8 * KIB),  # straddles it
    (32 * MIB - 64 * KIB, 256 * KIB),  # a multi-chunk task reaching past it
    (-4 * KIB, 4 * KIB),
])
def test_out_of_range_io_rejected_before_any_charge(offset, size):
    """Not a device fault: nothing is charged to the deficit, the usage
    or the fault feed, and the device sees no op."""
    sim, device, scheduler, _m = make_env()
    scheduler.register_tenant("a", 100.0)
    failed = []
    scheduler.fail_observer = lambda *args: failed.append(args)
    state = scheduler._state("a")
    deficit, usage = state.deficit, scheduler.usage("a").snapshot()
    for submit in (scheduler.read, scheduler.write):
        with pytest.raises(ValueError):
            submit(offset, size, tag=IoTag("a"))
    sim.run(until=1.0)
    assert state.deficit == deficit
    assert scheduler.usage("a") == usage
    assert failed == [] and scheduler.backlog == 0
    assert (device.stats.reads, device.stats.writes) == (0, 0)


def test_duplicate_registration_rejected():
    _sim, _dev, scheduler, _m = make_env()
    scheduler.register_tenant("a", 100.0)
    with pytest.raises(ValueError):
        scheduler.register_tenant("a", 100.0)


def test_negative_allocation_rejected():
    _sim, _dev, scheduler, _m = make_env()
    scheduler.register_tenant("a", 100.0)
    with pytest.raises(ValueError):
        scheduler.set_allocation("a", -1.0)


def test_single_tenant_io_completes_and_charges():
    sim, _dev, scheduler, model = make_env()
    scheduler.register_tenant("a", 10_000.0)
    tag = IoTag("a")
    done = []

    def proc():
        yield scheduler.read(0, 4 * KIB, tag=tag)
        yield scheduler.write(64 * KIB, 8 * KIB, tag=tag)
        done.append(sim.now)

    sim.process(proc())
    sim.run(until=1.0)
    assert done
    usage = scheduler.usage("a")
    assert usage.tasks == 2
    expected = model.cost(OpKind.READ, 4 * KIB) + model.cost(OpKind.WRITE, 8 * KIB)
    assert usage.vops == pytest.approx(expected)


def test_large_op_chunked():
    sim, _dev, scheduler, model = make_env()
    scheduler.register_tenant("a", 50_000.0)
    tag = IoTag("a")

    def proc():
        yield scheduler.read(0, 256 * KIB, tag=tag)

    sim.process(proc())
    sim.run(until=1.0)
    usage = scheduler.usage("a")
    assert usage.tasks == 1
    assert usage.ops == 2  # two 128 KiB chunks
    assert usage.vops == pytest.approx(2 * model.cost(OpKind.READ, 128 * KIB))


@pytest.mark.parametrize("kind, size, chunks", [
    (OpKind.READ, 4 * KIB, [4 * KIB]),
    (OpKind.READ, 128 * KIB, [128 * KIB]),
    (OpKind.READ, 300 * KIB, [128 * KIB, 128 * KIB, 44 * KIB]),
    (OpKind.WRITE, 4 * KIB, [4 * KIB]),
    (OpKind.WRITE, 256 * KIB, [128 * KIB, 128 * KIB]),
    (OpKind.WRITE, 300 * KIB, [128 * KIB, 128 * KIB, 44 * KIB]),
])
def test_task_vops_is_what_the_dispatcher_charges(kind, size, chunks):
    """``task_vops`` prices a task without running it (churn sizes its
    tenants' allocations from it): the same chunk split and per-chunk
    price the event-driven path charges when the task runs."""
    sim, _dev, scheduler, model = make_env()
    scheduler.register_tenant("a", 50_000.0)
    submit = scheduler.read if kind == OpKind.READ else scheduler.write
    submit(0, size, tag=IoTag("a"))
    sim.run(until=1.0)
    usage = scheduler.usage("a")
    assert (usage.tasks, usage.ops, usage.bytes) == (1, len(chunks), size)
    expected = sum(model.cost(kind, length) for length in chunks)
    assert scheduler.task_vops(kind, size) == pytest.approx(expected, rel=1e-12)
    assert usage.vops == pytest.approx(scheduler.task_vops(kind, size), rel=1e-12)


def test_io_observer_sees_every_chunk():
    sim, dev, _s, model = make_env()
    seen = []
    scheduler = LibraScheduler(
        sim, dev, model,
        io_observer=lambda tag, kind, size, cost: seen.append((tag.tenant, kind, size)),
    )
    scheduler.register_tenant("a", 50_000.0)

    def proc():
        yield scheduler.write(0, 256 * KIB, tag=IoTag("a", RequestClass.PUT))

    sim.process(proc())
    sim.run(until=1.0)
    assert seen == [
        ("a", OpKind.WRITE, 128 * KIB),
        ("a", OpKind.WRITE, 128 * KIB),
    ]


def run_two_tenant_contest(alloc_a, alloc_b, duration=1.0, size=4 * KIB, seed=5):
    """Two backlogged tenants with given allocations; returns VOP/s pair."""
    sim, _dev, scheduler, _model = make_env()
    scheduler.register_tenant("a", alloc_a)
    scheduler.register_tenant("b", alloc_b)
    rng = random.Random(seed)
    profile = scheduler.device.profile
    page = profile.page_size

    def worker(tenant):
        tag = IoTag(tenant)
        max_slot = (profile.logical_capacity - size) // page
        while sim.now < duration:
            yield scheduler.read(rng.randrange(0, max_slot) * page, size, tag=tag)

    for _ in range(8):
        sim.process(worker("a"))
        sim.process(worker("b"))
    sim.run(until=duration)
    return scheduler.usage("a").vops / duration, scheduler.usage("b").vops / duration


def test_proportional_sharing_2_to_1():
    a, b = run_two_tenant_contest(20_000.0, 10_000.0)
    assert a / b == pytest.approx(2.0, rel=0.1)


def test_equal_allocations_share_equally():
    a, b = run_two_tenant_contest(10_000.0, 10_000.0)
    assert a / b == pytest.approx(1.0, rel=0.05)


def test_work_conserving_when_other_tenant_idle():
    """A lone backlogged tenant gets (nearly) the whole device even with
    a small allocation."""
    sim, _dev, scheduler, _model = make_env()
    scheduler.register_tenant("busy", 1_000.0)
    scheduler.register_tenant("idle", 30_000.0)
    rng = random.Random(5)
    profile = scheduler.device.profile
    page = profile.page_size
    size = 4 * KIB
    duration = 0.5

    def worker():
        tag = IoTag("busy")
        max_slot = (profile.logical_capacity - size) // page
        while sim.now < duration:
            yield scheduler.read(rng.randrange(0, max_slot) * page, size, tag=tag)

    for _ in range(16):
        sim.process(worker())
    sim.run(until=duration)
    vops_rate = scheduler.usage("busy").vops / duration
    # Far beyond its 1k allocation: the idle tenant's share is reused.
    assert vops_rate > 10_000.0


def test_best_effort_tenant_progresses():
    """Zero-allocation tenants still get a trickle (best-effort floor)."""
    sim, _dev, scheduler, _model = make_env()
    scheduler.register_tenant("paying", 20_000.0)
    scheduler.register_tenant("free", 0.0)
    rng = random.Random(5)
    profile = scheduler.device.profile
    page = profile.page_size
    size = 4 * KIB
    duration = 0.5

    def worker(tenant):
        tag = IoTag(tenant)
        max_slot = (profile.logical_capacity - size) // page
        while sim.now < duration:
            yield scheduler.read(rng.randrange(0, max_slot) * page, size, tag=tag)

    for _ in range(8):
        sim.process(worker("paying"))
        sim.process(worker("free"))
    sim.run(until=duration)
    assert scheduler.usage("free").tasks > 0
    assert scheduler.usage("paying").vops > scheduler.usage("free").vops * 5


def test_allocation_change_takes_effect():
    sim, _dev, scheduler, _model = make_env()
    scheduler.register_tenant("a", 10_000.0)
    scheduler.register_tenant("b", 10_000.0)
    rng = random.Random(5)
    profile = scheduler.device.profile
    page = profile.page_size
    size = 4 * KIB
    duration = 2.0

    def worker(tenant):
        tag = IoTag(tenant)
        max_slot = (profile.logical_capacity - size) // page
        while sim.now < duration:
            yield scheduler.read(rng.randrange(0, max_slot) * page, size, tag=tag)

    for _ in range(8):
        sim.process(worker("a"))
        sim.process(worker("b"))
    sim.run(until=1.0)
    first_a = scheduler.usage("a").snapshot()
    first_b = scheduler.usage("b").snapshot()
    scheduler.set_allocation("a", 30_000.0)
    scheduler.set_allocation("b", 10_000.0)
    sim.run(until=2.0)
    a = scheduler.usage("a").delta(first_a).vops
    b = scheduler.usage("b").delta(first_b).vops
    assert a / b == pytest.approx(3.0, rel=0.15)


def test_rounds_advance_and_timeout_counter():
    sim, _dev, scheduler, _model = make_env()
    scheduler.register_tenant("a", 1_000.0)
    rng = random.Random(5)
    profile = scheduler.device.profile
    page = profile.page_size

    def worker():
        tag = IoTag("a")
        while sim.now < 0.3:
            yield scheduler.read(rng.randrange(0, 1000) * page, 4 * KIB, tag=tag)

    for _ in range(8):
        sim.process(worker())
    sim.run(until=0.3)
    assert scheduler.rounds > 10


def test_stop_halts_timeout_loop():
    sim, _dev, scheduler, _model = make_env()
    scheduler.stop()
    sim.run(until=1.0)
    # After stop, the event queue eventually drains (no immortal ticker).
    assert sim.queue_size == 0
