"""Epoch fast-forward: FF/DES agreement, fallback triggers, audit.

The hybrid runner's contract is that ``fast_forward=True`` changes the
*wall time* of a trial, never its measurements: both modes pull the
same per-tenant arrival streams, so task/op/byte counts agree exactly
and VOP totals to float-summation order.  These tests pin that
property (randomized via hypothesis), plus each of the monitor's
fallback triggers — fault windows, GC onset, rate changes — and the
VOP audit's exact reconciliation of bulk epoch charges.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.calibration import reference_calibration
from repro.core.scheduler import LibraScheduler
from repro.core.tags import IoTag, OpKind, RequestClass
from repro.core.vop import make_cost_model
from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.sim import Simulator, SteadyStateMonitor
from repro.ssd import SsdDevice, get_profile
from repro.workload import EpochTenantSpec, RateChange, run_epoch_trial

KIB = 1024
PROFILE = get_profile("intel320")


def both_modes(specs, horizon, **kwargs):
    des = run_epoch_trial(PROFILE, specs, horizon=horizon, fast_forward=False, **kwargs)
    ff = run_epoch_trial(PROFILE, specs, horizon=horizon, fast_forward=True, **kwargs)
    return des, ff


def assert_agreement(des, ff):
    assert des.total_tasks == ff.total_tasks
    assert des.total_ops == ff.total_ops
    assert des.total_bytes == ff.total_bytes
    assert ff.total_vops == pytest.approx(des.total_vops, rel=1e-9)
    for name, tenant in des.tenants.items():
        other = ff.tenants[name]
        assert (tenant.tasks, tenant.ops, tenant.bytes) == (
            other.tasks, other.ops, other.bytes,
        )
        assert other.vops == pytest.approx(tenant.vops, rel=1e-9)


# ---------------------------------------------------------------------------
# FF == DES on quiet workloads (the core property)
# ---------------------------------------------------------------------------


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_tenants=st.integers(min_value=1, max_value=3),
    rate=st.floats(min_value=200.0, max_value=2000.0),
    read_fraction=st.floats(min_value=0.85, max_value=1.0),
    size_kib=st.sampled_from([4, 16, 256]),
)
def test_ff_matches_des_on_quiet_workloads(seed, n_tenants, rate, read_fraction, size_kib):
    """Randomized quiet workloads: acked tasks, ops, bytes, and VOPs agree.

    Rates and mixes are kept under the headroom/GC thresholds so the
    fast-forward path actually engages (asserted via ``ff_fraction``).
    256 KiB tasks exercise the chunk-split path in ``credit_epoch``.
    """
    # Scale large-task rates down so total VOP demand stays under the
    # monitor's headroom — the property is about *quiet* workloads.
    rate = rate / max(1, size_kib // 8)
    specs = [
        EpochTenantSpec(
            name=f"t{i}", rate=rate, read_fraction=read_fraction,
            read_size=size_kib * KIB, write_size=4 * KIB,
        )
        for i in range(n_tenants)
    ]
    des, ff = both_modes(specs, horizon=1.0, seed=seed)
    assert_agreement(des, ff)
    assert ff.ff_fraction > 0.5
    assert des.ff_fraction == 0.0


def test_ff_latency_mass_matches_des_for_quiet_reads():
    """On an idle device the analytic latency is the DES latency, so the
    fast-forwarded histogram matches the event-driven one closely."""
    specs = [EpochTenantSpec(name="t0", rate=1000.0, read_fraction=1.0)]
    des, ff = both_modes(specs, horizon=1.0, seed=3)
    h_des = des.tenants["t0"].latency
    h_ff = ff.tenants["t0"].latency
    assert h_ff.count == h_des.count
    assert h_ff.mean == pytest.approx(h_des.mean, rel=0.05)
    assert h_ff.percentile(99) == pytest.approx(h_des.percentile(99), rel=0.25)


def test_ff_agreement_with_lognormal_sizes():
    specs = [
        EpochTenantSpec(name="t0", rate=800.0, read_fraction=0.95, sigma=4.0 * KIB),
        EpochTenantSpec(name="t1", rate=500.0, read_fraction=1.0, read_size=16 * KIB),
    ]
    des, ff = both_modes(specs, horizon=1.5, seed=11)
    assert_agreement(des, ff)
    assert ff.ff_fraction > 0.5


# ---------------------------------------------------------------------------
# Fallback triggers
# ---------------------------------------------------------------------------


def test_fault_window_forces_fallback():
    """Epochs never start inside or span a fault window; the window's
    stretch of the horizon runs event-by-event."""
    plan = FaultPlan(
        windows=[
            FaultWindow(FaultKind.READ_ERROR, start=0.4, end=0.6, probability=0.5)
        ],
        seed=5,
    )
    specs = [EpochTenantSpec(name="t0", rate=1000.0, read_fraction=1.0)]
    ff = run_epoch_trial(
        PROFILE, specs, horizon=1.0, seed=9, fast_forward=True, fault_plan=plan
    )
    des_window = [s for s in ff.segments if s.mode == "des"]
    ff_segments = [s for s in ff.segments if s.mode == "ff"]
    assert ff_segments, "quiet stretches outside the window should fast-forward"
    assert des_window, "the fault window must run event-by-event"
    for seg in ff_segments:
        # No analytic segment overlaps the open window interior.
        assert seg.t1 <= 0.4 + 1e-9 or seg.t0 >= 0.6 - 1e-9
    # Injected read errors were actually exercised in the DES stretch.
    des = run_epoch_trial(
        PROFILE, specs, horizon=1.0, seed=9, fast_forward=False, fault_plan=plan
    )
    assert des.tenants["t0"].failed_ops > 0
    assert ff.tenants["t0"].failed_ops == des.tenants["t0"].failed_ops


def test_gc_onset_forces_fallback():
    """A write-heavy epoch ends at the GC watermark crossing and the
    collector's stretch runs event-by-event."""
    specs = [
        EpochTenantSpec(name=f"t{i}", rate=2500.0, read_fraction=0.5)
        for i in range(4)
    ]
    des, ff = both_modes(specs, horizon=4.0, seed=7)
    assert_agreement(des, ff)
    assert 0.0 < ff.ff_fraction < 1.0
    assert any(s.mode == "des" and s.reason == "gc" for s in ff.segments)


def test_rate_change_is_an_epoch_edge_not_a_fallback():
    """A scheduled rate change bounds the epoch; both sides of the edge
    still fast-forward, and both modes agree across the change."""
    specs = [EpochTenantSpec(name="t0", rate=800.0, read_fraction=1.0)]
    changes = (RateChange(at=0.5, tenant="t0", rate=2400.0),)
    des, ff = both_modes(specs, horizon=1.0, seed=13, rate_changes=changes)
    assert_agreement(des, ff)
    assert ff.ff_fraction == pytest.approx(1.0)
    # The post-change half really runs at the higher rate.
    assert des.total_tasks > 800 * 0.5 + 2400 * 0.5 * 0.6


def test_overload_disables_fast_forward():
    """Demand above the headroom threshold refuses the analytic model."""
    specs = [EpochTenantSpec(name="t0", rate=60000.0, read_fraction=1.0)]
    ff = run_epoch_trial(PROFILE, specs, horizon=0.2, seed=5, fast_forward=True)
    assert ff.ff_fraction == 0.0
    assert all(s.mode == "des" for s in ff.segments)
    assert all(s.reason == "overload" for s in ff.segments)


# ---------------------------------------------------------------------------
# Audit reconciliation of bulk epoch charges
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n_tenants,rate,horizon,seed",
    [
        (2, 1500.0, 1.0, 21),
        # epochfig's steady-read row: the whole horizon in one epoch
        (4, 2500.0, 4.0, 7),
    ],
)
def test_ff_audit_reconciles_exactly(n_tenants, rate, horizon, seed):
    specs = [
        EpochTenantSpec(name=f"t{i}", rate=rate, read_fraction=1.0)
        for i in range(n_tenants)
    ]
    des, ff = both_modes(specs, horizon=horizon, seed=seed, audit=True)
    assert_agreement(des, ff)
    assert ff.ff_fraction == pytest.approx(1.0)
    summary = ff.audit_summary
    assert summary["ok"], summary["flags"]
    assert summary["reconciliation"] == pytest.approx(1.0, abs=1e-9)
    assert summary["charged_vops"] == pytest.approx(ff.total_vops, rel=1e-12)


def test_hybrid_audit_reconciles_across_mode_switches():
    """A run that mixes analytic epochs with DES (GC) stretches still
    conserves VOPs across all three audit streams."""
    specs = [
        EpochTenantSpec(name=f"t{i}", rate=2500.0, read_fraction=0.5)
        for i in range(4)
    ]
    ff = run_epoch_trial(
        PROFILE, specs, horizon=3.0, seed=7, fast_forward=True, audit=True
    )
    assert 0.0 < ff.ff_fraction < 1.0
    summary = ff.audit_summary
    assert summary["ok"], summary["flags"]
    assert summary["reconciliation"] == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# The monitor and the scheduler's bulk credit, unit-level
# ---------------------------------------------------------------------------


def scheduler_fixture():
    sim = Simulator()
    device = SsdDevice(sim, PROFILE, seed=11)
    model = make_cost_model("exact", reference_calibration("intel320"))
    scheduler = LibraScheduler(sim, device, model)
    scheduler.register_tenant("t0", model.max_iop)
    return sim, device, scheduler, model


def test_credit_epoch_matches_chunked_cost_and_usage():
    sim, device, scheduler, model = scheduler_fixture()
    tag = IoTag("t0", RequestClass.RAW)
    size = 300 * KIB  # chunks: 128K + 128K + 44K
    vops = scheduler.credit_epoch(tag, OpKind.WRITE, size)
    expected = (
        2 * model.cost(OpKind.WRITE, 128 * KIB) + model.cost(OpKind.WRITE, 44 * KIB)
    )
    assert vops == pytest.approx(expected, rel=1e-12)
    usage = scheduler.usage("t0")
    assert usage.tasks == 1
    assert usage.ops == 3
    assert usage.write_ops == 3
    assert usage.bytes == size
    assert usage.vops == pytest.approx(expected, rel=1e-12)


def test_monitor_eligibility_reasons():
    sim, device, scheduler, model = scheduler_fixture()
    monitor = SteadyStateMonitor(sim, scheduler, device)
    ok, reason = monitor.eligible(demand_vops=100.0)
    assert ok and reason == "steady"
    ok, reason = monitor.eligible(demand_vops=model.max_iop)
    assert not ok and reason == "overload"
    scheduler.read(0, 4 * KIB, tag=IoTag("t0", RequestClass.RAW))
    ok, reason = monitor.eligible(demand_vops=100.0)
    assert not ok and reason in ("backlog", "inflight")


def test_monitor_epoch_edges():
    sim, device, scheduler, model = scheduler_fixture()
    plan = FaultPlan(
        windows=[FaultWindow(FaultKind.STALL, start=2.0, end=3.0)], seed=1
    )
    monitor = SteadyStateMonitor(sim, scheduler, device, fault_plan=plan)
    edge, reason = monitor.next_epoch(100.0, until=10.0)
    assert (edge, reason) == (2.0, "fault-edge")
    edge, reason = monitor.next_epoch(100.0, until=1.5)
    assert (edge, reason) == (1.5, "horizon")
    edge, reason = monitor.next_epoch(100.0, until=10.0, extra_edges=(0.7,))
    assert (edge, reason) == (0.7, "event")
    edge, reason = monitor.next_epoch(100.0, until=10.0, min_epoch=20.0)
    assert edge is None and reason == "short"
    assert plan.next_edge(2.5) == 3.0
    assert plan.next_edge(3.0) == math.inf


def test_step_while_drains_exactly_to_condition():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.call_at(float(i), fired.append, i)
    steps = sim.step_while(lambda: len(fired) < 3)
    assert steps == 3
    assert fired == [0, 1, 2]
    assert sim.queue_size == 2
