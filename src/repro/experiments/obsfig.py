"""Observability capstone: traces and the VOP-accounting audit.

Not a figure from the paper — the :mod:`repro.obs` subsystem exercised
end to end over the same stack the figures use, in two parts:

**Part A — a traced storage node.**  Two KV tenants (a read-heavy and a
write-heavy one) run closed-loop against one node with tracing and
the VOP audit enabled.  The run emits a Chrome trace-event file (load
it at ``chrome://tracing`` or https://ui.perfetto.dev) whose spans tie
each application request to its node/engine/scheduler/device activity
by trace id, plus a request→IO→VOP waterfall, a queue-wait vs service
latency breakdown, and the audit's reconciliation verdict with
periodic windows.

**Part B — the audit across cost models.**  The fig9 read-write
workload (4 KB readers vs 64 KB writers) reruns under every cost model
with a :class:`~repro.obs.VopAudit` attached to the trial's scheduler
and device.  For each model the audit reconciles scheduler-charged
VOPs against independently re-priced completions and the device's own
op stream — the invariant that would have caught a double cost-model
evaluation or a dropped charge.  Acceptance: reconciliation within 1%
and zero flags for every model.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_table
from ..core.calibration import reference_calibration
from ..core.policy import Reservation
from ..core.vop import COST_MODEL_NAMES, make_cost_model
from ..engine import EngineConfig
from ..node import StorageNode
from ..obs import Observability, Tracer, VopAudit
from ..obs.export import latency_breakdown, waterfall_report
from ..sim import Simulator
from ..ssd import get_profile
from ..workload.generator import bootstrap_tenant
from ..workload.iobench import DeviceEnv, run_raw_trial
from .common import KIB, mode_for
from .fig9 import equal_shares

__all__ = ["run", "render", "ObsFigResult", "DEFAULT_TRACE_PATH"]

#: where ``python -m repro.experiments obsfig`` drops the Chrome trace
DEFAULT_TRACE_PATH = "obsfig_trace.json"

#: Part B workload: the fig9 rw pairing at 4K reads vs 64K writes
AUDIT_READ_SIZE = 4 * KIB
AUDIT_WRITE_SIZE = 64 * KIB


@dataclass
class ObsFigResult:
    profile: str
    mode: str
    # -- Part A: the traced node ----------------------------------------
    span_count: int
    span_cats: Dict[str, int]
    chrome_events: int
    trace_path: Optional[str]
    requests: Dict[str, int]
    waterfall: str
    latency: str
    audit_summary: Dict[str, object]
    audit_windows: List[Tuple[float, float, float, float, bool]]
    # -- Part B: the audit across cost models ---------------------------
    #: model -> {charged, device, reconciliation, skew, flags, ok}
    audit_grid: Dict[str, Dict[str, object]]


# -- Part A ----------------------------------------------------------------


def _kv_load(sim: Simulator, node: StorageNode, tenant: str, rng: Random,
             get_fraction: float, n_keys: int, put_size: int, horizon: float):
    while sim.now < horizon:
        if rng.random() < get_fraction:
            yield from node.get(tenant, rng.randrange(n_keys))
        else:
            yield from node.put(tenant, rng.randrange(n_keys), put_size)


def _traced_node(profile_name: str, seed: int, horizon: float,
                 trace_path: Optional[str]):
    """Run the traced two-tenant node and collect every obs artifact."""
    tracer = Tracer()
    obs = Observability(tracer=tracer, audit=True)
    sim = Simulator()
    node = StorageNode(sim, profile=profile_name, seed=seed, obs=obs)
    # A small memtable keeps FLUSH/COMPACT activity inside the short
    # window, so background attribution shows up in the trace.
    engine_config = EngineConfig(memtable_bytes=256 * KIB)
    n_keys = 2000
    tenants = (
        ("reader", 0.8, 4 * KIB, Reservation(gets=2000, puts=500)),
        ("writer", 0.2, 16 * KIB, Reservation(gets=500, puts=2000)),
    )
    for i, (name, get_fraction, put_size, reservation) in enumerate(tenants):
        node.add_tenant(name, reservation, engine_config=engine_config)
        bootstrap_tenant(node.engines[name], n_keys, 4 * KIB)
        for w in range(4):
            sim.process(
                _kv_load(sim, node, name, Random(seed * 1000 + i * 10 + w),
                         get_fraction, n_keys, put_size, horizon),
                name=f"load.{name}.{w}",
            )
    audit = node.audit

    def roll_windows():
        while sim.now < horizon:
            yield sim.timeout(1.0)
            audit.roll_window(sim.now)

    sim.process(roll_windows(), name="obs.windows")
    sim.run(until=horizon)
    node.stop()
    # Drain until every dispatched chunk reconciled (background
    # compactions keep issuing IO briefly after the load stops).
    for _ in range(40):
        sim.run(until=sim.now + 0.1)
        if audit.outstanding_ops == 0:
            break

    if trace_path:
        tracer.export_chrome(trace_path)
    cats: Dict[str, int] = {}
    for span in tracer.spans:
        cats[span[1]] = cats.get(span[1], 0) + 1
    requests = {
        name: stats.gets + stats.puts + stats.deletes
        for name, stats in sorted(node.request_stats.items())
    }
    windows = [
        (w.t0, w.t1, w.charged, w.serviced, w.ok) for w in audit.windows
    ]
    return ObsFigResult(
        profile=profile_name,
        mode="",  # filled by run()
        span_count=tracer.span_count,
        span_cats=cats,
        chrome_events=len(tracer.chrome_events()),
        trace_path=trace_path,
        requests=requests,
        waterfall=waterfall_report(audit, requests=requests),
        latency=latency_breakdown(tracer),
        audit_summary=audit.summary(sim.now),
        audit_windows=windows,
        audit_grid={},
    )


# -- Part B ----------------------------------------------------------------


def _audit_one_model(profile_name: str, model_name: str, duration: float,
                     warmup: float, seed: int) -> Dict[str, object]:
    """One cost model's audited fig9 rw trial on a fresh device env."""
    profile = get_profile(profile_name)
    model = make_cost_model(model_name, reference_calibration(profile_name))
    audit = VopAudit(model, tolerance=0.01)
    specs, allocations = equal_shares(
        profile_name, "rw", AUDIT_READ_SIZE, AUDIT_WRITE_SIZE
    )
    env = DeviceEnv(profile, seed=seed)
    run_raw_trial(
        profile, specs, duration=duration, warmup=warmup, seed=seed,
        cost_model=model, allocations=allocations, env=env, audit=audit,
    )
    summary = audit.summary(env.sim.now)
    charged = summary["charged_vops"]
    device = summary["device_vops"]
    skew = abs(charged - device) / charged if charged else 0.0
    return {
        "charged": charged,
        "device": device,
        "reconciliation": summary["reconciliation"],
        "skew": skew,
        "chunks": summary["chunks"],
        "flags": summary["flags"],
        "ok": summary["ok"],
    }


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 23,
    jobs: int = 1,
    trace_path: Optional[str] = DEFAULT_TRACE_PATH,
) -> ObsFigResult:
    """Run both parts; ``jobs`` is accepted for CLI parity (serial run).

    ``trace_path=None`` skips writing the Chrome trace file (tests
    point it at a temp directory instead).
    """
    del jobs  # one continuous timeline + five short trials: serial
    mode = mode_for(quick)
    horizon = 4.0 if quick else 10.0
    result = _traced_node(profile_name, seed, horizon, trace_path)
    result.mode = mode.name
    for model_name in COST_MODEL_NAMES:
        result.audit_grid[model_name] = _audit_one_model(
            profile_name, model_name, mode.duration, mode.warmup, seed
        )
    return result


def render(result: ObsFigResult) -> str:
    blocks = [f"obsfig — observability & VOP audit, {result.profile} ({result.mode})"]

    cats = ", ".join(f"{cat}={n}" for cat, n in sorted(result.span_cats.items()))
    trace_note = (
        f"written to {result.trace_path} (chrome://tracing)"
        if result.trace_path else "not written"
    )
    blocks.append(
        f"Part A — traced node: {result.span_count} spans ({cats}); "
        f"{result.chrome_events} Chrome events {trace_note}"
    )

    summary = result.audit_summary
    rows = [[key, _fmt(summary[key])] for key in (
        "charged_vops", "serviced_vops", "failed_vops", "outstanding_vops",
        "device_vops", "chunks", "device_ops", "reconciliation",
    )]
    rows.append(["flags", ", ".join(summary["flags"]) or "none"])
    rows.append(["verdict", "OK" if summary["ok"] else "FLAGGED"])
    blocks.append(format_table(["invariant", "value"], rows,
                               title="VOP audit — full-run reconciliation"))

    if result.audit_windows:
        wrows = [
            [f"{t0:.1f}-{t1:.1f}", f"{charged:.1f}", f"{serviced:.1f}",
             "OK" if ok else "FLAGGED"]
            for t0, t1, charged, serviced, ok in result.audit_windows
        ]
        blocks.append(format_table(
            ["window s", "charged", "serviced", "verdict"], wrows,
            title="VOP audit — per-window reconciliation",
        ))

    blocks.append(result.waterfall)
    blocks.append(result.latency)

    grid_rows = []
    for model in COST_MODEL_NAMES:
        cell = result.audit_grid[model]
        grid_rows.append([
            model, f"{cell['charged']:.1f}", f"{cell['device']:.1f}",
            f"{cell['reconciliation']:.4f}", f"{100.0 * cell['skew']:.2f}%",
            ", ".join(cell["flags"]) or "none",
            "OK" if cell["ok"] else "FLAGGED",
        ])
    blocks.append(format_table(
        ["model", "charged vops", "device vops", "reconciliation", "skew",
         "flags", "verdict"],
        grid_rows,
        title="Part B — audited fig9 rw workload, per cost model",
    ))
    return "\n\n".join(blocks)


def _fmt(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else str(value)
