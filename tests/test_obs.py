"""Tests for repro.obs: tracing, latency histograms, and the VOP audit.

Covers the subsystem's three contracts: histogram math agrees with numpy
within bucket resolution, tracing is deterministic and perturbs
nothing, and the audit reconciles honest runs while flagging injected
leaks and double-charges.
"""

import json
from random import Random

import numpy as np
import pytest

from repro.core import Reservation
from repro.core.calibration import reference_calibration
from repro.core.tags import IoTag, OpKind, RequestClass
from repro.core.vop import make_cost_model
from repro.engine import EngineConfig
from repro.node import NodeConfig, StorageNode
from repro.obs import Histogram, Observability, Tracer, VopAudit
from repro.obs.export import latency_breakdown, waterfall_report
from repro.sim import Simulator
from repro.ssd import SsdProfile

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-obs", channels=4, logical_capacity=64 * MIB, overprovision=1.0)


def tiny_config(**kwargs):
    return NodeConfig(
        capacity_vops=kwargs.pop("capacity_vops", 15_000.0),
        engine=EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB),
        **kwargs,
    )


def exact_model():
    return make_cost_model("exact", reference_calibration("intel320"))


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_histogram_percentiles_match_numpy():
    rng = Random(5)
    samples = [rng.lognormvariate(-7.0, 1.2) for _ in range(5000)]
    hist = Histogram()
    for value in samples:
        hist.observe(value)
    assert hist.count == len(samples)
    assert hist.mean == pytest.approx(float(np.mean(samples)))
    for pct in (1, 10, 25, 50, 75, 90, 99, 99.9):
        exact = float(np.percentile(samples, pct))
        # one log-spaced bucket is ~2% wide; allow a bucket and change
        assert hist.percentile(pct) == pytest.approx(exact, rel=0.025), pct
    # min/max are pinned exactly
    assert hist.percentile(0) == min(samples)
    assert hist.percentile(100) == max(samples)


def test_histogram_merge_and_validation():
    a, b = Histogram(), Histogram()
    for v in (0.001, 0.002):
        a.observe(v)
    for v in (0.004, 0.008):
        b.observe(v)
    a.merge(b)
    assert a.count == 4
    assert a.percentile(100) == 0.008
    with pytest.raises(ValueError):
        a.merge(Histogram(bounds=(1.0, 2.0)))
    with pytest.raises(ValueError):
        a.percentile(101)
    assert Histogram().percentile(50) == 0.0


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_select_and_clear():
    tr = Tracer()
    tr.span("a", "sched", "p", "t1", 0.0, 1.0, trace=1)
    tr.span("b", "ssd", "p", "t2", 1.0, 2.0)
    assert len(tr.select(cat="sched")) == 1
    assert len(tr.select(name="b")) == 1
    tr.clear()
    assert tr.span_count == 0


def test_chrome_trace_schema(tmp_path):
    tr = Tracer()
    tr.span("service", "sched", "libra", "alice", 0.5, 0.503, trace=7,
            args={"bytes": 4096})
    tr.span("ctrl", "ssd", "ssd.x", "ctrl", 0.501, 0.502, trace=7)
    tr.span("service", "sched", "libra", "bob", 0.6, 0.61)
    path = tmp_path / "trace.json"
    tr.export_chrome(str(path))
    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    assert payload["displayTimeUnit"] == "ms"
    seen_tracks = set()
    for event in events:
        assert event["ph"] in ("M", "X")
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
        if event["ph"] == "M":
            assert event["name"] in ("process_name", "thread_name")
            assert isinstance(event["args"]["name"], str)
            seen_tracks.add((event["name"], event["pid"], event["tid"]))
        else:
            # every X event's track was named by a preceding M event
            assert ("process_name", event["pid"], 0) in seen_tracks
            assert ("thread_name", event["pid"], event["tid"]) in seen_tracks
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["cat"] in ("sched", "ssd")
    x_events = [e for e in events if e["ph"] == "X"]
    assert len(x_events) == 3
    assert x_events[0]["args"] == {"bytes": 4096, "trace": 7}
    assert x_events[0]["ts"] == pytest.approx(0.5e6)
    assert x_events[0]["dur"] == pytest.approx(3000.0)


# ---------------------------------------------------------------------------
# determinism: tracing observes, never perturbs
# ---------------------------------------------------------------------------

def _run_node(obs=None, horizon=1.5, seed=3):
    sim = Simulator()
    node = StorageNode(sim, profile=TINY, config=tiny_config(), seed=seed, obs=obs)
    node.add_tenant("alice", Reservation(gets=500, puts=500))
    node.add_tenant("bob", Reservation(gets=500, puts=500))

    def load(tenant, rng):
        while sim.now < horizon:
            key = rng.randrange(200)
            if rng.random() < 0.5:
                yield from node.get(tenant, key)
            else:
                yield from node.put(tenant, key, 4 * KIB)

    for i, tenant in enumerate(("alice", "bob")):
        sim.process(load(tenant, Random(seed * 100 + i)))
    sim.run(until=horizon)
    node.stop()
    for _ in range(40):
        sim.run(until=sim.now + 0.1)
        if node.audit is None or node.audit.outstanding_ops == 0:
            break
    return sim, node


def _fingerprint(sim, node):
    parts = [repr(sim.now)]
    for tenant in sorted(node.request_stats):
        stats = node.request_stats[tenant]
        parts.append(repr([getattr(stats, f) for f in stats.FIELDS]))
        parts.append(repr(node.scheduler.usage(tenant).vops))
    parts.append(repr(sorted(vars(node.device.stats).items())))
    return "\n".join(parts)


def test_traced_run_identical_to_untraced():
    sim_a, node_a = _run_node(obs=None)
    sim_b, node_b = _run_node(obs=Observability(tracer=Tracer(), audit=True))
    assert _fingerprint(sim_a, node_a) == _fingerprint(sim_b, node_b)


def test_same_seed_traces_byte_identical():
    obs1 = Observability(tracer=Tracer())
    obs2 = Observability(tracer=Tracer())
    _run_node(obs=obs1)
    _run_node(obs=obs2)
    assert obs1.tracer.span_count > 0
    assert obs1.tracer.spans == obs2.tracer.spans
    assert obs1.tracer.chrome_events() == obs2.tracer.chrome_events()


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_clean_on_real_run():
    obs = Observability(tracer=Tracer(), audit=True)
    sim, node = _run_node(obs=obs)
    audit = node.audit
    summary = audit.summary(sim.now)
    assert summary["ok"], summary["flags"]
    assert summary["outstanding_vops"] == pytest.approx(0.0, abs=1e-9)
    assert summary["chunks"] > 0
    assert summary["device_ops"] == summary["chunks"]
    assert summary["reconciliation"] == pytest.approx(1.0, rel=1e-6)
    # the ledger decomposes the same VOPs the scheduler charged
    ledger_vops = sum(e.vops for _, _, _, e in audit.ledger_rows())
    assert ledger_vops == pytest.approx(summary["serviced_vops"])
    # report renderers consume the audit/trace without blowing up
    assert "= total" in waterfall_report(audit, requests={"alice": 1})
    assert "wait share" in latency_breakdown(obs.tracer)


def test_audit_flags_double_charge():
    model = exact_model()
    audit = VopAudit(model)
    tag = IoTag("t1", RequestClass.RAW)
    cost = model.cost(OpKind.READ, 4 * KIB)
    audit.note_dispatch(tag, OpKind.READ, 4 * KIB, 2 * cost)
    # completion reports double the model's price — the PR 2 bug shape
    audit.note_complete(tag, OpKind.READ, 4 * KIB, 2 * cost)
    audit.note_device_op("read", 4 * KIB)
    summary = audit.summary()
    assert not summary["ok"]
    assert any("double-charge" in f for f in summary["flags"])


def test_audit_flags_leak():
    model = exact_model()
    audit = VopAudit(model)
    tag = IoTag("t1", RequestClass.RAW)
    cost = model.cost(OpKind.WRITE, 8 * KIB)
    # dispatched but never completed: charged VOPs leaked
    audit.note_dispatch(tag, OpKind.WRITE, 8 * KIB, cost)
    summary = audit.summary()
    assert not summary["ok"]
    assert any("leak" in f for f in summary["flags"])
    assert audit.outstanding_ops == 1


def test_audit_flags_device_mismatch():
    model = exact_model()
    audit = VopAudit(model, tolerance=0.01)
    tag = IoTag("t1", RequestClass.RAW)
    cost = model.cost(OpKind.READ, 4 * KIB)
    audit.note_dispatch(tag, OpKind.READ, 4 * KIB, cost)
    audit.note_complete(tag, OpKind.READ, 4 * KIB, cost)
    # the device saw twice the work the scheduler charged for
    audit.note_device_op("read", 4 * KIB)
    audit.note_device_op("read", 4 * KIB)
    summary = audit.summary()
    assert not summary["ok"]
    assert any("unreconciled" in f for f in summary["flags"])


def test_audit_windows_partition_the_run():
    model = exact_model()
    audit = VopAudit(model)
    tag = IoTag("t1", RequestClass.RAW)
    cost = model.cost(OpKind.READ, 4 * KIB)
    for t in (1.0, 2.0):
        audit.note_dispatch(tag, OpKind.READ, 4 * KIB, cost)
        audit.note_complete(tag, OpKind.READ, 4 * KIB, cost)
        audit.note_device_op("read", 4 * KIB)
        window = audit.roll_window(t)
        assert window.ok, window.flags
        assert window.charged == pytest.approx(cost)
    assert len(audit.windows) == 2
    assert sum(w.charged for w in audit.windows) == pytest.approx(audit.charged)
    assert audit.summary()["ok"]


class SizePricedModel:
    """A cost model that prices an op at its size in VOPs."""

    def cost(self, kind, size):
        return float(size)


@pytest.mark.parametrize("skew, flag", [
    (0.5, None), (2.0, "double-charge"), (-0.5, None), (-2.0, "leak"),
])
def test_audit_single_evaluation_slack_is_relative_to_the_window(skew, flag):
    """One 1 MB completion priced at 10^6 VOPs by the model but reported
    with ``skew`` more: the slack is ``EXACT_EPS`` (10^-6) of the
    window's VOPs, about 1 VOP here, so half a VOP of skew passes and
    two VOPs are flagged, in either direction."""
    audit = VopAudit(SizePricedModel())
    tag = IoTag("t1", RequestClass.RAW)
    audit.note_complete(tag, OpKind.READ, 1_000_000, 1_000_000 + skew)
    flags = audit.roll_window(1.0).flags
    assert [f.split(":")[0] for f in flags] == ([flag] if flag else [])


def test_audit_validation():
    with pytest.raises(ValueError):
        VopAudit(exact_model(), tolerance=0.0)


# ---------------------------------------------------------------------------
# obsfig smoke
# ---------------------------------------------------------------------------

def test_obsfig_traced_node_smoke(tmp_path):
    from repro.experiments import obsfig

    path = tmp_path / "trace.json"
    result = obsfig._traced_node("intel320", seed=23, horizon=0.5,
                                 trace_path=str(path))
    assert result.span_count > 0
    assert result.audit_summary["ok"], result.audit_summary["flags"]
    assert abs(result.audit_summary["reconciliation"] - 1.0) < 0.01
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == result.chrome_events
    assert "= total" in result.waterfall


def test_obsfig_audit_grid_exact_model():
    from repro.experiments import obsfig

    cell = obsfig._audit_one_model("intel320", "exact", duration=0.2,
                                   warmup=0.05, seed=23)
    assert cell["ok"], cell["flags"]
    assert abs(cell["reconciliation"] - 1.0) < 0.01
    assert cell["chunks"] > 0
