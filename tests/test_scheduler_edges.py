"""Edge-case coverage for the DDRR scheduler: chunk boundaries, round
timeouts, and diagnostic surfaces."""

import math
import random

import pytest

from repro.core import (
    IoTag,
    LibraScheduler,
    OpKind,
    Reservation,
    SchedulerConfig,
    make_cost_model,
    reference_calibration,
)
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.ssd import SsdDevice, SsdProfile

from .helpers import hang_guard

KIB = 1024
MIB = 1024 * 1024


def make_env(config=None):
    sim = Simulator()
    profile = SsdProfile(
        name="tiny-edge", channels=4, logical_capacity=32 * MIB, overprovision=1.0
    )
    device = SsdDevice(sim, profile, seed=1)
    model = make_cost_model("exact", reference_calibration("intel320"))
    scheduler = LibraScheduler(sim, device, model, config=config)
    return sim, scheduler, model


def test_op_exactly_at_chunk_size_not_split():
    sim, scheduler, _model = make_env()
    scheduler.register_tenant("a", 50_000.0)

    def proc():
        yield scheduler.read(0, 128 * KIB, tag=IoTag("a"))

    sim.process(proc())
    sim.run(until=2.0)
    assert scheduler.usage("a").ops == 1
    assert scheduler.usage("a").tasks == 1


def test_op_one_byte_over_chunk_splits():
    sim, scheduler, _model = make_env()
    scheduler.register_tenant("a", 50_000.0)

    def proc():
        yield scheduler.read(0, 128 * KIB + 4096, tag=IoTag("a"))

    sim.process(proc())
    sim.run(until=2.0)
    usage = scheduler.usage("a")
    assert usage.tasks == 1
    assert usage.ops == 2
    assert usage.bytes == 128 * KIB + 4096


def test_chunk_size_configurable():
    sim, scheduler, _model = make_env(SchedulerConfig(chunk_size=32 * KIB))
    scheduler.register_tenant("a", 50_000.0)

    def proc():
        yield scheduler.read(0, 128 * KIB, tag=IoTag("a"))

    sim.process(proc())
    sim.run(until=2.0)
    assert scheduler.usage("a").ops == 4


def test_forced_rounds_counted_under_starved_round():
    """A tenant holding deficit but starved of completions triggers the
    round timeout rather than stalling other tenants forever."""
    config = SchedulerConfig(round_seconds=0.002, timeout_rounds=2.0)
    sim, scheduler, _model = make_env(config)
    scheduler.register_tenant("slow", 30_000.0)
    scheduler.register_tenant("busy", 100.0)
    rng = random.Random(2)
    profile = scheduler.device.profile
    page = profile.page_size

    def busy_worker():
        tag = IoTag("busy")
        while sim.now < 0.5:
            yield scheduler.read(rng.randrange(0, 2000) * page, 4 * KIB, tag=tag)

    # 'slow' never submits anything: it is idle, not pending, so rounds
    # advance normally; but give it one op mid-run to hold deficit.
    def slow_once():
        yield sim.timeout(0.25)
        yield scheduler.read(0, 4 * KIB, tag=IoTag("slow"))

    for _ in range(4):
        sim.process(busy_worker())
    sim.process(slow_once())
    sim.run(until=0.5)
    # The busy tenant made progress the whole time.
    assert scheduler.usage("busy").tasks > 100
    assert scheduler.rounds > 10


def test_queued_diagnostic():
    sim, scheduler, _model = make_env()
    scheduler.register_tenant("a", 1.0)  # starvation-level allocation
    assert scheduler.queued("a") == 0
    for i in range(40):
        scheduler.read(i * 4096, 4 * KIB, tag=IoTag("a"))
    # Far more submitted than the device can have in flight.
    assert scheduler.queued("a") > 0


def test_total_allocation_property():
    _sim, scheduler, _model = make_env()
    scheduler.register_tenant("a", 100.0)
    scheduler.register_tenant("b", 200.0)
    assert scheduler.total_allocation == 300.0
    scheduler.set_allocation("a", 50.0)
    assert scheduler.total_allocation == 250.0
    assert scheduler.tenants == ["a", "b"]


def test_mixed_read_write_accounting():
    sim, scheduler, model = make_env()
    scheduler.register_tenant("a", 50_000.0)

    def proc():
        yield scheduler.read(0, 4 * KIB, tag=IoTag("a"))
        yield scheduler.write(64 * KIB, 8 * KIB, tag=IoTag("a"))

    sim.process(proc())
    sim.run(until=2.0)
    usage = scheduler.usage("a")
    assert usage.read_ops == 1 and usage.write_ops == 1
    expected = model.cost(OpKind.READ, 4 * KIB) + model.cost(OpKind.WRITE, 8 * KIB)
    assert usage.vops == pytest.approx(expected)


# ---------------------------------------------------------------------------
# A non-finite allocation is refused before it can hang the pump
# ---------------------------------------------------------------------------


def burst_of_reads(sim, scheduler, tenant, count=96):
    """``count`` concurrent one-page reads, more than the device has
    slots, so chunks queue and the pump must pick among tenants."""
    done = []

    def reader(k):
        yield scheduler.read(k * 4 * KIB, 4 * KIB, tag=IoTag(tenant))
        done.append(k)

    for k in range(count):
        sim.process(reader(k))
    return done


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_a_bad_allocation_is_refused_and_the_pump_keeps_serving(bad):
    """A NaN or infinite allocation makes every quantum NaN, which
    leaves no tenant eligible, and the pump used to start round after
    round forever.  Whatever the entry points accept is driven, under a
    guard that fails the test instead of hanging it."""
    sim, scheduler, _model = make_env()
    scheduler.register_tenant("a", 1000.0)
    refused = []
    for entry, args in ((scheduler.register_tenant, ("b", bad)),
                        (scheduler.set_allocation, ("a", bad))):
        try:
            entry(*args)
        except ValueError:
            refused.append(entry.__name__)
    with hang_guard(10.0):
        done = burst_of_reads(sim, scheduler, "a")
        sim.run(until=1.0)
    assert refused == ["register_tenant", "set_allocation"]
    assert sorted(done) == list(range(96))
    assert scheduler.allocation("a") == 1000.0 and scheduler.tenants == ["a"]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_non_finite_reservation_never_reaches_the_scheduler(bad):
    sim = Simulator()
    profile = SsdProfile(
        name="tiny-edge", channels=4, logical_capacity=32 * MIB, overprovision=1.0
    )
    node = StorageNode(sim, profile=profile, config=NodeConfig(capacity_vops=20_000.0), seed=1)
    node.add_tenant("t0", Reservation(gets=100.0, puts=100.0))
    refused = False
    try:
        node.add_tenant("t1", Reservation(gets=bad, puts=100.0))
    except ValueError:
        refused = True
    with hang_guard(10.0):
        sim.run(until=1.0)  # the policy provisions every tenant
        done = burst_of_reads(sim, node.scheduler, "t0")
        sim.run(until=2.0)
    assert refused
    assert sorted(done) == list(range(96))


def _dispatch_log(scheduler):
    """Record ``(tenant, sim time)`` at every chunk dispatch."""
    log = []
    scheduler.dispatch_observer = lambda tag, _kind, _size, _cost: log.append(
        (tag.tenant, scheduler.sim.now)
    )
    return log


def test_a_completion_on_a_full_device_dispatches_a_queued_chunk_at_once():
    """With every slot taken and chunks queued, the slot a completion
    frees is refilled at that instant, although the completing tenant
    still has chunks in flight."""
    sim, scheduler, _model = make_env()
    scheduler.register_tenant("a", 50_000.0)
    log = _dispatch_log(scheduler)
    slots = scheduler.device.queue_depth
    done = [scheduler.read(i * 4 * KIB, 4 * KIB, tag=IoTag("a")) for i in range(slots + 4)]
    assert scheduler.queued("a") == 4
    first = []
    done[0].callbacks.append(lambda _event: first.append(sim.now))
    sim.run(until=1.0)
    assert all(event.ok for event in done)
    assert len(log) == slots + 4
    assert log[slots][1] == first[0] > 0.0


def test_the_round_holders_last_completion_starts_the_next_round():
    """Tenant ``b`` holds the round open (deficit left, one chunk in
    flight, nothing queued) while ``a`` has spent its quantum and waits
    with chunks queued and slots free.  ``b``'s completion ends the
    round: ``a``'s next chunk goes out at that instant, not at the
    round timeout."""
    sim, scheduler, _model = make_env()
    scheduler.register_tenant("b", 50_000.0)
    scheduler.register_tenant("a", 100.0)  # a quantum short of one 4 KiB read
    log = _dispatch_log(scheduler)
    held = scheduler.read(0, 128 * KIB, tag=IoTag("b"))
    done = [scheduler.read(MIB + i * 4 * KIB, 4 * KIB, tag=IoTag("a")) for i in range(60)]
    assert log == [("b", 0.0), ("a", 0.0)] and scheduler.queued("a") == 59
    assert scheduler.backlog - scheduler.queued("a") == 2  # 30 slots free
    released = []
    held.callbacks.append(lambda _event: released.append(sim.now))
    sim.run(until=1.0)
    assert all(event.ok for event in done)
    assert log[2] == ("a", released[0]) and scheduler.forced_rounds == 0
