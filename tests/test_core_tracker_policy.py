"""Unit tests for the resource tracker, EWMA profiles, and policy."""

import pytest

from repro.core import (
    Ewma,
    InternalOp,
    IoTag,
    LibraScheduler,
    OpKind,
    RequestClass,
    Reservation,
    ResourcePolicy,
    ResourceTracker,
    make_cost_model,
    reference_calibration,
)
from repro.sim import Simulator
from repro.ssd import SsdDevice, SsdProfile

KIB = 1024
MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# EWMA
# ---------------------------------------------------------------------------

def test_ewma_first_sample_taken_whole():
    e = Ewma(alpha=0.3)
    assert not e.initialized
    e.update(10.0)
    assert e.value == 10.0
    assert e.initialized


def test_ewma_converges():
    e = Ewma(alpha=0.5)
    e.update(0.0)
    for _ in range(20):
        e.update(100.0)
    assert e.value == pytest.approx(100.0, abs=0.1)


def test_ewma_alpha_validation():
    with pytest.raises(ValueError):
        Ewma(alpha=0.0)
    with pytest.raises(ValueError):
        Ewma(alpha=1.5)


# ---------------------------------------------------------------------------
# Tracker
# ---------------------------------------------------------------------------

def test_direct_cost_profile():
    tracker = ResourceTracker()
    tag = IoTag("t1", RequestClass.GET)
    # 10 GETs of 4KB each costing 2 VOPs -> 40 normalized units, 20 VOPs.
    for _ in range(10):
        tracker.note_io(tag, OpKind.READ, 4 * KIB, 2.0)
        tracker.note_request("t1", RequestClass.GET, 4 * KIB)
    tracker.roll_interval()
    profile = tracker.profile("t1", RequestClass.GET)
    assert profile.direct == pytest.approx(0.5)  # 20 VOPs / 40 units
    assert profile.indirect == {}
    assert profile.total == pytest.approx(0.5)


def test_indirect_cost_attributed_to_put():
    tracker = ResourceTracker()
    put = IoTag("t1", RequestClass.PUT)
    flush = put.with_internal(InternalOp.FLUSH)
    for _ in range(10):
        tracker.note_io(put, OpKind.WRITE, 1 * KIB, 3.0)
        tracker.note_request("t1", RequestClass.PUT, 1 * KIB)
    tracker.note_trigger("t1", RequestClass.PUT, InternalOp.FLUSH)
    tracker.note_io(flush, OpKind.WRITE, 1 * MIB, 10.0)
    tracker.note_internal_op("t1", InternalOp.FLUSH)
    tracker.roll_interval()
    profile = tracker.profile("t1", RequestClass.PUT)
    assert profile.direct == pytest.approx(3.0)
    assert profile.indirect[InternalOp.FLUSH] == pytest.approx(1.0)  # 10 / 10 units
    assert profile.total == pytest.approx(4.0)


def test_internal_vops_do_not_pollute_get_profile():
    tracker = ResourceTracker()
    get = IoTag("t1", RequestClass.GET)
    flush = IoTag("t1", RequestClass.PUT, InternalOp.FLUSH)
    tracker.note_io(get, OpKind.READ, 1 * KIB, 1.0)
    tracker.note_request("t1", RequestClass.GET, 1 * KIB)
    tracker.note_io(flush, OpKind.WRITE, 1 * KIB, 5.0)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.GET).indirect == {}


def test_ewma_smooths_across_intervals():
    tracker = ResourceTracker(alpha=0.5)
    tag = IoTag("t1", RequestClass.GET)
    tracker.note_io(tag, OpKind.READ, 1 * KIB, 1.0)
    tracker.note_request("t1", RequestClass.GET, 1 * KIB)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.GET).direct == pytest.approx(1.0)
    tracker.note_io(tag, OpKind.READ, 1 * KIB, 3.0)
    tracker.note_request("t1", RequestClass.GET, 1 * KIB)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.GET).direct == pytest.approx(2.0)


def test_interval_with_no_requests_keeps_profile():
    tracker = ResourceTracker()
    tag = IoTag("t1", RequestClass.PUT)
    tracker.note_io(tag, OpKind.WRITE, 1 * KIB, 2.0)
    tracker.note_request("t1", RequestClass.PUT, 1 * KIB)
    tracker.roll_interval()
    before = tracker.profile("t1", RequestClass.PUT).direct
    tracker.roll_interval()  # idle interval
    assert tracker.profile("t1", RequestClass.PUT).direct == before


def test_direct_vops_in_an_interval_without_requests_leave_the_ewma():
    """A GET's IO can complete an interval before the GET does: the
    interval then holds direct VOPs and zero requests.  The fold skips
    that ratio — raising nothing — both before the first profile and
    once one exists."""
    tracker = ResourceTracker(alpha=0.5)
    tag = IoTag("t1", RequestClass.GET)
    tracker.note_io(tag, OpKind.READ, 1 * KIB, 4.0)
    tracker.roll_interval()
    assert not tracker.has_profile("t1", RequestClass.GET)
    tracker.note_io(tag, OpKind.READ, 1 * KIB, 2.0)
    tracker.note_request("t1", RequestClass.GET, 1 * KIB)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.GET).direct == 2.0
    tracker.note_io(tag, OpKind.READ, 1 * KIB, 6.0)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.GET).direct == 2.0


def test_indirect_vops_with_no_triggering_requests_carry_to_the_next_fold():
    """A COMPACT that completes in an interval with no PUT folds
    nothing: its VOPs stay pending and join the next completion's,
    normalized by the PUTs issued up to it (12 + 6 VOPs over 6 units)."""
    tracker = ResourceTracker()
    compact = IoTag("t1", RequestClass.PUT, InternalOp.COMPACT)
    tracker.note_io(compact, OpKind.WRITE, 1 * MIB, 12.0)
    tracker.note_internal_op("t1", InternalOp.COMPACT)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.PUT).indirect == {}
    for _ in range(6):
        tracker.note_request("t1", RequestClass.PUT, 1 * KIB)
    tracker.note_io(compact, OpKind.WRITE, 1 * MIB, 6.0)
    tracker.note_internal_op("t1", InternalOp.COMPACT)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.PUT).indirect == {InternalOp.COMPACT: 3.0}


def test_indirect_vops_fold_only_when_their_internal_op_completes():
    """A FLUSH still running at an interval's end folds nothing yet,
    though its VOPs and the PUTs that triggered it are counted: the
    ratio is taken once, at its completion, over both intervals
    (8 + 4 VOPs over 4 + 2 units)."""
    tracker = ResourceTracker()
    flush = IoTag("t1", RequestClass.PUT, InternalOp.FLUSH)
    for _ in range(4):
        tracker.note_request("t1", RequestClass.PUT, 1 * KIB)
    tracker.note_trigger("t1", RequestClass.PUT, InternalOp.FLUSH)
    tracker.note_io(flush, OpKind.WRITE, 1 * MIB, 8.0)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.PUT).indirect == {}
    for _ in range(2):
        tracker.note_request("t1", RequestClass.PUT, 1 * KIB)
    tracker.note_io(flush, OpKind.WRITE, 1 * MIB, 4.0)
    tracker.note_internal_op("t1", InternalOp.FLUSH)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.PUT).indirect == {InternalOp.FLUSH: 2.0}


def test_small_request_counts_at_least_one_unit():
    tracker = ResourceTracker()
    tracker.note_request("t1", RequestClass.GET, 100)  # < 1 KiB
    tracker.note_io(IoTag("t1", RequestClass.GET), OpKind.READ, 1 * KIB, 1.0)
    tracker.roll_interval()
    assert tracker.profile("t1", RequestClass.GET).direct == pytest.approx(1.0)


def test_note_io_splits_direct_and_internal_vops():
    # Every completed op's VOPs land in exactly one book: the tag's
    # request class when it is direct, its internal op otherwise.
    tracker = ResourceTracker()
    tag = IoTag("t1", RequestClass.GET)
    tracker.note_io(tag, OpKind.READ, 1 * KIB, 1.5)
    tracker.note_io(tag.with_internal(InternalOp.COMPACT), OpKind.READ, 1 * KIB, 2.5)
    tracker.note_request("t1", RequestClass.GET, 1 * KIB)
    tracker.note_request("t1", RequestClass.PUT, 1 * KIB)
    tracker.note_internal_op("t1", InternalOp.COMPACT)
    tracker.roll_interval()
    get = tracker.profile("t1", RequestClass.GET)
    put = tracker.profile("t1", RequestClass.PUT)
    assert get.direct == pytest.approx(1.5)
    assert get.indirect == {}
    assert put.direct == 0.0
    assert put.indirect == {InternalOp.COMPACT: pytest.approx(2.5)}
    assert get.total + put.total == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------

def make_policy_env(capacity=10_000.0, track_indirect=True, on_overflow=None):
    sim = Simulator()
    profile = SsdProfile(name="tiny", channels=4, logical_capacity=16 * MIB, overprovision=1.0)
    device = SsdDevice(sim, profile, seed=1, precondition=False)
    model = make_cost_model("exact", reference_calibration("intel320"))
    scheduler = LibraScheduler(sim, device, model)
    tracker = ResourceTracker()
    policy = ResourcePolicy(
        sim, scheduler, tracker, capacity_vops=capacity,
        track_indirect=track_indirect, on_overflow=on_overflow,
    )
    return sim, scheduler, tracker, policy


def feed(tracker, tenant, request, vops_per_unit, units=100, indirect_vops=0.0):
    tag = IoTag(tenant, request)
    tracker.note_io(tag, OpKind.WRITE, units * KIB, vops_per_unit * units)
    tracker.note_request(tenant, request, units * KIB)
    if indirect_vops:
        tracker.note_trigger(tenant, request, InternalOp.FLUSH)
        tracker.note_io(
            tag.with_internal(InternalOp.FLUSH), OpKind.WRITE, units * KIB, indirect_vops
        )
        tracker.note_internal_op(tenant, InternalOp.FLUSH)


def test_policy_provisions_reservation_times_profile():
    sim, scheduler, tracker, policy = make_policy_env(capacity=10_000.0)
    scheduler.register_tenant("t1")
    policy.set_reservation("t1", Reservation(gets=0.0, puts=1000.0))
    feed(tracker, "t1", RequestClass.PUT, vops_per_unit=2.0)
    policy.reprovision()
    assert scheduler.allocation("t1") == pytest.approx(2000.0)


def test_policy_includes_indirect_costs_when_tracking():
    sim, scheduler, tracker, policy = make_policy_env(capacity=10_000.0)
    scheduler.register_tenant("t1")
    policy.set_reservation("t1", Reservation(puts=1000.0))
    feed(tracker, "t1", RequestClass.PUT, vops_per_unit=2.0, indirect_vops=100.0)
    policy.reprovision()
    # direct 2.0 + indirect 1.0 per unit -> 3000 VOP/s
    assert scheduler.allocation("t1") == pytest.approx(3000.0)


def test_policy_ignores_indirect_costs_without_tracking():
    sim, scheduler, tracker, policy = make_policy_env(track_indirect=False)
    scheduler.register_tenant("t1")
    policy.set_reservation("t1", Reservation(puts=1000.0))
    feed(tracker, "t1", RequestClass.PUT, vops_per_unit=2.0, indirect_vops=100.0)
    policy.reprovision()
    assert scheduler.allocation("t1") == pytest.approx(2000.0)


def test_policy_scales_down_on_overbooking_and_notifies():
    reports = []
    sim, scheduler, tracker, policy = make_policy_env(
        capacity=3000.0, on_overflow=reports.append
    )
    scheduler.register_tenant("t1")
    scheduler.register_tenant("t2")
    policy.set_reservation("t1", Reservation(puts=1000.0))
    policy.set_reservation("t2", Reservation(puts=2000.0))
    feed(tracker, "t1", RequestClass.PUT, vops_per_unit=2.0)
    feed(tracker, "t2", RequestClass.PUT, vops_per_unit=2.0)
    policy.reprovision()
    # demand 2000 + 4000 = 6000 > 3000 -> scale 0.5, proportional cut
    assert policy.last_scale == pytest.approx(0.5)
    assert scheduler.allocation("t1") == pytest.approx(1000.0)
    assert scheduler.allocation("t2") == pytest.approx(2000.0)
    assert len(reports) == 1
    assert reports[0].demanded_vops == pytest.approx(6000.0)
    assert policy.overflows == 1


def test_policy_cold_start_uses_unit_cost():
    sim, scheduler, tracker, policy = make_policy_env()
    scheduler.register_tenant("t1")
    policy.set_reservation("t1", Reservation(gets=500.0, puts=500.0))
    policy.reprovision()  # no profile yet
    assert scheduler.allocation("t1") == pytest.approx(1000.0)


def test_policy_runs_periodically_in_sim():
    sim, scheduler, tracker, policy = make_policy_env()
    scheduler.register_tenant("t1")
    policy.set_reservation("t1", Reservation(puts=100.0))
    feed(tracker, "t1", RequestClass.PUT, vops_per_unit=1.0)
    sim.run(until=2.5)
    assert scheduler.allocation("t1") == pytest.approx(100.0)


def test_policy_rejects_unknown_tenant():
    _sim, _scheduler, _tracker, policy = make_policy_env()
    with pytest.raises(KeyError):
        policy.set_reservation("ghost", Reservation(gets=1.0))


def test_policy_rejects_bad_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        make_policy_env(capacity=0.0)
