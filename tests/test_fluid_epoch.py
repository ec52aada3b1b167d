"""Fluid (stable-backlog) fast-forward: exactness, fallbacks, audit.

The fluid regime extends epoch fast-forward to *loaded* stretches:
persistently non-empty queues replayed through the analytic DDRR round
schedule instead of event by event.  Its contract is the same as the
quiet regime's — bulk replay, not approximation — so these tests pin:

- FF == DES **exactly** (tasks/ops/bytes per tenant, VOPs to float
  summation order) on randomized loaded stationary workloads;
- every fallback trigger hands control back to the DES: backlog
  drift, mid-epoch rate changes, fault windows;
- NVMe SQ parking is drainable queue state for the fluid class (the
  handover drain empties the SQs) while still vetoing the quiet class;
- the VOP audit reconciles at 1.0000 with a non-zero epoch leg;
- the monitor's rejection accounting (``window_state``,
  ``publish_metrics``) reports why coverage was lost.
"""

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.calibration import reference_calibration
from repro.core.scheduler import LibraScheduler
from repro.core.tags import IoTag, OpKind, RequestClass
from repro.core.vop import make_cost_model
from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator, SteadyStateMonitor, reason_stem
from repro.ssd import SsdDevice, get_profile
from repro.workload import EpochTenantSpec, RateChange, run_epoch_trial

KIB = 1024
PROFILE = get_profile("intel320")
MODEL = make_cost_model("exact", reference_calibration("intel320"))


def loaded_specs(util, read_fraction, n_tenants=4, size=4 * KIB):
    """Per-tenant rates derived from the cost model so the aggregate
    demand sits at ``util`` of the provisioned VOP capacity — high
    enough that queues stay persistently non-empty."""
    mean = read_fraction * MODEL.cost(OpKind.READ, size) + (
        1.0 - read_fraction
    ) * MODEL.cost(OpKind.WRITE, size)
    rate = util * MODEL.max_iop / mean / n_tenants
    return [
        EpochTenantSpec(
            name=f"t{i}", rate=rate, read_fraction=read_fraction,
            read_size=size, write_size=size,
        )
        for i in range(n_tenants)
    ]


def both_modes(specs, horizon, profile=PROFILE, **kwargs):
    des = run_epoch_trial(profile, specs, horizon=horizon, fast_forward=False, **kwargs)
    ff = run_epoch_trial(profile, specs, horizon=horizon, fast_forward=True, **kwargs)
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
# Fluid FF == DES on loaded stationary workloads (the core property)
# ---------------------------------------------------------------------------


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    n_tenants=st.integers(min_value=2, max_value=4),
    util=st.floats(min_value=0.55, max_value=0.80),
    read_fraction=st.floats(min_value=0.92, max_value=1.0),
    size_kib=st.sampled_from([4, 16]),
)
def test_fluid_ff_matches_des_on_loaded_workloads(
    seed, n_tenants, util, read_fraction, size_kib
):
    """Randomized loaded stationary workloads: acked tasks, ops, bytes,
    and VOPs agree exactly between DES and fluid fast-forward, and the
    fluid engine actually covers part of the horizon."""
    specs = loaded_specs(util, read_fraction, n_tenants, size=size_kib * KIB)
    des, ff = both_modes(specs, horizon=0.6, seed=seed)
    assert_agreement(des, ff)
    assert ff.fluid_seconds > 0.0
    assert any(s.regime == "fluid" for s in ff.segments)
    assert des.fluid_seconds == 0.0


@pytest.mark.parametrize("horizon", [2.0, 4.0])
def test_fluid_covers_most_of_a_loaded_read_horizon(horizon):
    """A clean loaded read-only workload fast-forwards the bulk of the
    horizon through the fluid engine (only the confirmation window and
    the handover drain stay event-by-event), and the audit reconciles
    the bulk charges.  4 s is epochfig's loaded-read row."""
    des, ff = both_modes(loaded_specs(0.75, 1.0), horizon=horizon, seed=7, audit=True)
    assert_agreement(des, ff)
    for trial in (des, ff):
        assert trial.audit_summary["ok"], trial.audit_summary["flags"]
        assert trial.audit_summary["reconciliation"] == pytest.approx(1.0, abs=1e-9)
    assert ff.fluid_fraction > 0.7
    assert ff.ff_fraction == pytest.approx(ff.fluid_fraction)
    # Loaded stretches are never covered by the quiet (idle-latency)
    # engine — its latency model is invalid when queue-wait dominates.
    assert all(s.regime != "quiet" for s in ff.segments if s.mode == "ff")


def test_fluid_latency_includes_queue_wait():
    """Under load the fluid latency is queue-wait dominated, far above
    the idle service time, and in the same regime the DES measures."""
    des, ff = both_modes(loaded_specs(0.75, 1.0), horizon=2.0, seed=7)
    idle_service = MODEL.cost(OpKind.READ, 4 * KIB) / MODEL.max_iop
    assert ff.tenants["t0"].latency.mean > 2 * idle_service
    assert ff.tenants["t0"].latency.mean == pytest.approx(
        des.tenants["t0"].latency.mean, rel=0.5
    )


# ---------------------------------------------------------------------------
# Fallback triggers
# ---------------------------------------------------------------------------


def test_gc_and_backlog_hand_control_back_to_des():
    """A loaded mixed workload trips GC; the collector's stretches run
    event-by-event and the monitor accounts for every lost second."""
    des, ff = both_modes(loaded_specs(0.65, 0.9), horizon=4.0, seed=7)
    assert_agreement(des, ff)
    assert 0.0 < ff.fluid_fraction < 1.0
    assert ff.reject_counts
    assert "gc" in ff.des_reasons
    # The per-reason seconds partition the DES share of the horizon.
    des_span = sum(s.t1 - s.t0 for s in ff.segments if s.mode == "des")
    assert sum(ff.des_reasons.values()) == pytest.approx(des_span, abs=1e-6)


def test_rate_change_bounds_fluid_epochs():
    """A scheduled rate change is an epoch edge: no fluid segment spans
    it, the window re-confirms after it, and both modes agree."""
    specs = loaded_specs(0.60, 1.0)
    changes = (RateChange(at=0.5, tenant="t0", rate=specs[0].rate * 1.3),)
    des, ff = both_modes(specs, horizon=1.0, seed=13, rate_changes=changes)
    assert_agreement(des, ff)
    assert ff.fluid_seconds > 0.0
    for seg in ff.segments:
        if seg.mode == "ff":
            assert seg.t1 <= 0.5 + 1e-9 or seg.t0 >= 0.5 - 1e-9


def test_fault_window_excludes_fluid_epochs():
    """Under load, faults are admission-timed: a fluid epoch would
    shift which ops dispatch inside the window, so fluid coverage is
    only granted once the plan is exhausted.  Everything up to the last
    window runs event-by-event and both modes agree exactly — injected
    failures included."""
    plan = FaultPlan(
        windows=[
            FaultWindow(FaultKind.READ_ERROR, start=0.4, end=0.6, probability=0.5)
        ],
        seed=5,
    )
    specs = loaded_specs(0.70, 1.0)
    des = run_epoch_trial(
        PROFILE, specs, horizon=1.0, seed=9, fast_forward=False, fault_plan=plan
    )
    ff = run_epoch_trial(
        PROFILE, specs, horizon=1.0, seed=9, fast_forward=True, fault_plan=plan
    )
    assert_agreement(des, ff)
    assert ff.fluid_seconds > 0.0
    for seg in ff.segments:
        if seg.mode == "ff":
            # Fluid epochs exist only after the last fault-window edge.
            assert seg.t0 >= 0.6 - 1e-9
    assert "fault-ahead" in ff.des_reasons
    assert des.tenants["t0"].failed_ops > 0
    assert ff.tenants["t0"].failed_ops == des.tenants["t0"].failed_ops


def test_loaded_nvme_fast_forwards_despite_sq_parking():
    """On the multi-queue NVMe device the SQs are never empty under
    load.  Parked commands are drainable queue state, not a
    disturbance: the handover drain empties them before each fluid
    epoch, so coverage matches the plain-SSD case."""
    specs = loaded_specs(0.75, 1.0)
    des, ff = both_modes(specs, horizon=1.0, profile=PROFILE.with_queues(4), seed=7)
    assert_agreement(des, ff)
    assert ff.fluid_fraction > 0.5
    assert "sq-backlog" not in ff.des_reasons


def test_fluid_disabled_keeps_trial_byte_identical():
    """``fluid=False`` restores the quiet-only runner; on a loaded
    workload that means no analytic coverage at all, and the DES
    baseline itself is unaffected by the flag."""
    specs = loaded_specs(0.75, 1.0)
    plain = run_epoch_trial(
        PROFILE, specs, horizon=0.5, seed=3, fast_forward=True, fluid=False
    )
    assert plain.fluid_seconds == 0.0
    des_a = run_epoch_trial(
        PROFILE, specs, horizon=0.5, seed=3, fast_forward=False, fluid=False
    )
    des_b = run_epoch_trial(
        PROFILE, specs, horizon=0.5, seed=3, fast_forward=False, fluid=True
    )
    assert_agreement(des_a, des_b)
    assert des_a.tenants["t0"].latency.mean == des_b.tenants["t0"].latency.mean


# ---------------------------------------------------------------------------
# Audit reconciliation under fluid epochs
# ---------------------------------------------------------------------------


def test_fluid_audit_reconciles_exactly():
    ff = run_epoch_trial(
        PROFILE, loaded_specs(0.75, 1.0), horizon=1.0, seed=21,
        fast_forward=True, audit=True,
    )
    assert ff.fluid_fraction > 0.5
    summary = ff.audit_summary
    assert summary["ok"], summary["flags"]
    assert summary["reconciliation"] == pytest.approx(1.0, abs=1e-9)
    # The bulk epoch leg is populated and within the charged total.
    assert summary["epoch_ops"] > 0
    assert 0.0 < summary["epoch_share"] <= 1.0
    assert summary["epoch_vops"] <= summary["charged_vops"] * (1 + 1e-12)


# ---------------------------------------------------------------------------
# The monitor, unit-level
# ---------------------------------------------------------------------------


def monitor_fixture(device=None, **kwargs):
    sim = Simulator()
    if device is None:
        device = SsdDevice(sim, PROFILE, seed=11)
    scheduler = LibraScheduler(sim, device, MODEL)
    scheduler.register_tenant("t0", MODEL.max_iop)
    return sim, SteadyStateMonitor(sim, scheduler, device, **kwargs)


def fill_window(monitor, backlogs, t0=0.0, dt=0.05):
    for i, backlog in enumerate(backlogs):
        monitor.observe_virtual(t0 + i * dt, backlog)


def test_monitor_confirmation_window_progress_in_reason():
    _sim, monitor = monitor_fixture()
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert not ok and reason.startswith("confirming(0/3 samples")
    fill_window(monitor, [40, 42])
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert not ok and reason.startswith("confirming(2/3 samples, 0.05s/0.10s")
    fill_window(monitor, [40, 42, 41])
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert ok and reason == "stable"


def test_monitor_drift_is_asymmetric():
    """A growing backlog rejects with the measured rate; a draining one
    passes (the handover drain absorbs it)."""
    _sim, monitor = monitor_fixture()
    fill_window(monitor, [0, 30, 60])  # +600 chunks/sec over 0.1s
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert not ok
    assert reason_stem(reason) == "drift"
    assert "+600/s>400/s" in reason
    monitor.note_disturbance()
    fill_window(monitor, [60, 30, 0])  # draining at the same rate
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert ok and reason == "stable"


def test_monitor_window_state_reports_drift():
    _sim, monitor = monitor_fixture()
    fill_window(monitor, [0, 30, 60])
    state = monitor.window_state()
    assert state["samples"] == 3
    assert state["span"] == pytest.approx(0.1)
    assert state["drift_per_sec"] == pytest.approx(600.0)


def test_monitor_sq_parking_vetoes_quiet_but_not_fluid():
    """Parked SQ commands disqualify the quiet class (stateful
    timeline) but are ordinary drainable backlog for the fluid class,
    and do not invalidate the confirmation window."""
    parked = SimpleNamespace(
        queue_backlogs=[2, 0], fetch_backlogs=[0, 0], in_flight=2,
        queue_depth=32,
    )
    _sim, monitor = monitor_fixture(device=parked)
    ok, reason = monitor.eligible(demand_vops=100.0)
    assert not ok and reason == "inflight"
    parked.in_flight = 0
    ok, reason = monitor.eligible(demand_vops=100.0)
    assert not ok and reason == "sq-backlog"
    fill_window(monitor, [40, 41, 40])
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert ok and reason == "stable"
    monitor.observe(backlog=40)  # must not clear the window
    assert len(monitor.samples) == 4


def test_monitor_gc_clears_the_window():
    gc_device = SimpleNamespace(
        queue_backlogs=[0], fetch_backlogs=[0], in_flight=0, gc_running=True,
        queue_depth=32,
    )
    _sim, monitor = monitor_fixture(device=gc_device)
    fill_window(monitor, [40, 41, 40])
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert not ok and reason == "gc"
    monitor.observe(backlog=40)
    assert len(monitor.samples) == 0


def test_monitor_backlog_cap_with_measured_value():
    """An instantaneous backlog above ``fluid_backlog`` rejects with
    both the measured and the configured value in the reason."""
    _sim, monitor = monitor_fixture(fluid_backlog=8)
    fill_window(monitor, [4, 4, 4])
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert ok and reason == "stable"
    tag = IoTag("t0", RequestClass.RAW)
    for i in range(10):
        monitor.scheduler.read(i * 4 * KIB, 4 * KIB, tag=tag)
    backlog = monitor.scheduler.backlog
    assert backlog > 8
    ok, reason = monitor.fluid_eligible(demand_vops=100.0)
    assert not ok and reason == f"backlog({backlog}>8)"
    assert reason_stem(reason) == "backlog"


def test_monitor_publish_metrics_exports_rejections_and_grants():
    _sim, monitor = monitor_fixture()
    monitor.note_segment("des", "drift(+600/s>400/s)", 0.25)
    monitor.note_segment("des", "drift(+550/s>400/s)", 0.05)
    monitor.note_segment("fluid", "horizon", 1.2)
    monitor.note_segment("quiet", "gc-horizon", 0.5)
    registry = MetricsRegistry()
    monitor.publish_metrics(registry)
    monitor.publish_metrics(registry)  # idempotent: install replaces
    flat = registry.as_dict()
    assert flat["epoch.des{field=segments,reason=drift}"] == 2
    assert flat["epoch.des{field=seconds,reason=drift}"] == pytest.approx(0.30)
    assert flat["epoch.ff{field=seconds,regime=fluid}"] == pytest.approx(1.2)
    assert flat["epoch.ff{field=epochs,regime=quiet}"] == 1
