"""Perf harness: measure the kernel, the scheduler, and a figure grid.

Runs the kernel events/sec microbench (live kernel vs the frozen
:mod:`refkernel` baseline), the DDRR scheduler throughput bench, a
fig4 interference grid serial vs ``--jobs N`` — checking that the two
renders are byte-identical — a replicated-cluster workload through
the :mod:`repro.net` fabric (RPC round trips per second at RF=1 vs
RF=2, plus the replication write-amplification overhead), the epoch
fast-forward bench (steady-state hybrid-simulation throughput, gated
on exact agreement with the event-by-event run and on the VOP audit
reconciling), the loaded-epoch bench (the same contract under
persistently non-empty queues, covered by the fluid DDRR engine and
additionally gated on a 70% fast-forward-fraction floor), the
control-plane bench (partition-map mutation
throughput plus the VOP overhead of growing a node mid-workload,
gated on zero acked-write loss across the live migrations; and the
50-node tenant-churn trial on the hybrid driver, gated on FF == DES
agreement), and the tracing-overhead gate (a disabled
:class:`repro.obs.Tracer` must cost the scheduler hot loop <= 2%, and
a sample ``trace.json`` is exported for CI artifacts), then writes the
numbers to ``BENCH_sim.json``.
That file is the tracked perf trajectory: each PR that touches the hot
path regenerates it so regressions show up as a diff.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/harness.py            # full quick grid
    PYTHONPATH=src python benchmarks/perf/harness.py --smoke    # seconds, for CI
    PYTHONPATH=src python benchmarks/perf/harness.py --profile  # + cProfile dumps

``--smoke`` shrinks every stage (one microbench repeat, a tiny fig4
grid) so CI can run the harness in under a minute; the JSON it writes
is still schema-complete.  ``--profile`` wraps the live kernel bench
and the serial grid run in :mod:`cProfile` and prints the top entries
by cumulative time — the hook for digging into a regression the JSON
surfaced.

Two trajectory mechanisms ride on every run:

- **Regression gate** — the headline numbers (``kernel.events_per_sec``
  and ``scheduler.ops_per_sec``) are compared against the committed
  per-mode reference in ``benchmarks/perf/baseline.json``; a drop of
  more than 20% fails the run.  Set ``PERF_GATE_SKIP=1`` to disable the
  gate on runners too noisy for wall-clock thresholds (the comparison
  is still printed).
- **History** — each run appends one line (git SHA, UTC timestamp,
  ``src_lines``, headline numbers) to repo-root ``BENCH_history.jsonl``
  and reports the speedup against the previous same-mode entry in the
  summary, so the perf trajectory across commits survives
  BENCH_sim.json being overwritten in place.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(os.path.dirname(_HERE))
for path in (os.path.join(_REPO, "src"), os.path.dirname(_HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perf.microbench import kernel_speedup, scheduler_ops_per_sec  # noqa: E402

__all__ = ["main", "run_harness"]

DEFAULT_OUTPUT = os.path.join(_REPO, "BENCH_sim.json")
BASELINE_PATH = os.path.join(_HERE, "baseline.json")
HISTORY_PATH = os.path.join(_REPO, "BENCH_history.jsonl")
#: fractional drop vs the committed baseline that fails the gate
GATE_TOLERANCE = 0.20
#: headline metrics: (label, result path) pairs the gate and the
#: history trajectory both track
HEADLINE_METRICS = (
    ("kernel.events_per_sec", ("kernel", "events_per_sec")),
    ("scheduler.ops_per_sec", ("scheduler", "ops_per_sec")),
    ("nvme.ops_per_sec", ("nvme", "ops_per_sec")),
    ("epoch.ops_per_sec", ("epoch", "ops_per_sec")),
    ("epoch_loaded.ops_per_sec", ("epoch_loaded", "ops_per_sec")),
    ("epoch_loaded.ff_fraction", ("epoch_loaded", "ff_fraction")),
    ("control.map_changes_per_sec", ("control", "map_changes_per_sec")),
)
#: recorded in the history beside ``src_lines`` but read by neither the
#: baseline gate nor the speedup report: a second-scale measurement
INFORMATIONAL_METRICS = (
    ("control.churn_tasks_per_sec", ("control", "churn_tasks_per_sec")),
    ("control.churn_ff_fraction", ("control", "churn_ff_fraction")),
)


def _headline(results: Dict[str, Any], metrics=HEADLINE_METRICS) -> Dict[str, float]:
    """The ``metrics`` numbers present in ``results`` (a stage may be
    absent, e.g. in trimmed fixtures or future partial runs)."""
    found = {}
    for label, (section, key) in metrics:
        value = results.get(section, {}).get(key)
        if value is not None:
            found[label] = value
    return found


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO, capture_output=True, text=True, timeout=10,
        )
        sha = proc.stdout.strip()
        return sha if proc.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


def _src_lines() -> int:
    """Physical lines under ``src/**/*.py`` — ROADMAP item 3's size trend."""
    total = 0
    for root, _dirs, files in os.walk(os.path.join(_REPO, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def check_regression(
    results: Dict[str, Any], smoke: bool, path: str = BASELINE_PATH
) -> List[str]:
    """Compare headline numbers to the committed per-mode baseline.

    Returns the list of failure messages (empty = pass).  Skipped —
    with a note, never silently — when ``PERF_GATE_SKIP`` is set or the
    baseline has no entry for this mode.
    """
    if os.environ.get("PERF_GATE_SKIP"):
        print("[perf] regression gate skipped (PERF_GATE_SKIP set)", file=sys.stderr)
        return []
    try:
        with open(path) as fh:
            baseline = json.load(fh)
    except (OSError, ValueError):
        print(f"[perf] regression gate skipped (no {path})", file=sys.stderr)
        return []
    mode = "smoke" if smoke else "full"
    reference = baseline.get(mode)
    if not reference:
        print(f"[perf] regression gate skipped (no {mode!r} baseline)", file=sys.stderr)
        return []
    failures = []
    for label, current in _headline(results).items():
        ref = reference.get(label)
        if not ref:
            continue
        ratio = current / ref
        status = "OK" if ratio >= 1.0 - GATE_TOLERANCE else "REGRESSION"
        print(
            f"[perf]   gate {label}: {current:.0f} vs baseline {ref:.0f} "
            f"({ratio:.2f}x) {status}",
            file=sys.stderr,
        )
        if status != "OK":
            failures.append(
                f"{label} dropped to {current:.0f} from baseline {ref:.0f} "
                f"({100.0 * (1.0 - ratio):.0f}% > {100.0 * GATE_TOLERANCE:.0f}% budget; "
                f"set PERF_GATE_SKIP=1 to override on noisy runners)"
            )
    return failures


def append_history(results: Dict[str, Any], smoke: bool, path: str = HISTORY_PATH) -> None:
    """Append this run's headline numbers to the perf trajectory log and
    report the speedup against the previous same-mode entry.

    Smoke and full runs have wildly different scales, so the comparison
    only ever looks at the most recent entry with the *same* ``smoke``
    flag, and the appended line records what it was compared against
    (``compared_to``) so the trajectory log is self-describing.
    """
    previous = None
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except ValueError:
                    continue
                if entry.get("smoke") == smoke:
                    previous = entry
    except OSError:
        pass
    mode = "smoke" if smoke else "full"
    headline = _headline(results)
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": _git_sha(),
        "smoke": smoke,
        "compared_to": (
            f"{previous.get('git_sha', '?')} @ "
            f"{previous.get('timestamp', '?')} ({mode})"
            if previous is not None
            else None
        ),
        "src_lines": _src_lines(),
        **_headline(results, INFORMATIONAL_METRICS),
        **headline,
    }
    with open(path, "a") as fh:
        fh.write(json.dumps(record, sort_keys=False) + "\n")
    # Only the headline metrics participate in the speedup report — the
    # bookkeeping fields also live in ``record`` (and ``smoke`` is a
    # bool, which *is* an int to isinstance), so iterating the record
    # itself would emit nonsense ratios.
    for label in headline:
        if previous is None:
            break
        prev = previous.get(label)
        if isinstance(prev, bool) or not isinstance(prev, (int, float)) or not prev:
            continue
        speedup = headline[label] / prev
        print(
            f"[perf]   history {label}: {speedup:.2f}x vs previous {mode} "
            f"({previous.get('git_sha', '?')} @ {previous.get('timestamp', '?')})",
            file=sys.stderr,
        )
    if previous is None:
        print(f"[perf]   history: first entry for {mode} mode", file=sys.stderr)


def _tiny_mode():
    """A seconds-scale fig4 grid for --smoke: same code path, less work."""
    from repro.experiments.common import KIB, ExperimentMode

    return ExperimentMode(
        name="tiny",
        sizes=(4 * KIB, 64 * KIB),
        ratios=(None, 0.5),
        sigmas=(4 * KIB,),
        duration=0.08,
        warmup=0.03,
        kv_horizon=10.0,
    )


def _maybe_profiled(enabled: bool, label: str, fn):
    """Run ``fn()``; under --profile, wrap it in cProfile and print the
    top functions by cumulative time."""
    if not enabled:
        return fn()
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    print(f"\n--- cProfile: {label} (top 20 by cumulative time) ---", file=sys.stderr)
    pstats.Stats(profiler, stream=sys.stderr).sort_stats("cumulative").print_stats(20)
    return result


def _bench_grid(jobs: int, smoke: bool, profile: bool) -> Dict[str, Any]:
    """fig4 serial vs ``jobs`` workers: wall-clock speedup plus the
    byte-equality check that guards the parallel merge."""
    from repro.experiments import fig4

    mode = _tiny_mode() if smoke else None
    quick = True

    def serial():
        return fig4.run(quick=quick, jobs=1, mode=mode)

    started = time.perf_counter()
    serial_result = _maybe_profiled(profile, "fig4 serial grid", serial)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel_result = fig4.run(quick=quick, jobs=jobs, mode=mode)
    parallel_seconds = time.perf_counter() - started

    identical = fig4.render(serial_result) == fig4.render(parallel_result)
    return {
        "figure": "fig4",
        "mode": serial_result.mode,
        "jobs": jobs,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup_vs_serial": round(serial_seconds / parallel_seconds, 3)
        if parallel_seconds > 0
        else 0.0,
        "byte_identical": identical,
    }


def _bench_cluster(smoke: bool, profile: bool) -> Dict[str, Any]:
    """Replicated-cluster RPC throughput: a closed-loop workload through
    the net fabric at RF=1 vs RF=2, measuring completed RPC round trips
    per wall second and the replication overhead (durable WAL records
    and backup applies per acknowledged write)."""
    import random

    from repro.core import Reservation
    from repro.faults import StorageFault
    from repro.net import NetConfig
    from repro.node import NodeConfig, StorageCluster
    from repro.sim import Simulator

    horizon = 0.6 if smoke else 3.0

    def one_rf(rf: int) -> Dict[str, Any]:
        sim = Simulator()
        cluster = StorageCluster(
            sim,
            n_nodes=3,
            profile="intel320",
            config=NodeConfig(cache_bytes=0),
            partitions_per_tenant=6,
            seed=17,
            net=NetConfig(rf=rf),
        )
        cluster.add_tenant("t1", Reservation(gets=4000.0, puts=4000.0))
        client = cluster.make_client()
        acked = [0]

        def worker(widx):
            rng = random.Random(f"perf-cluster:{rf}:{widx}")
            while sim.now < horizon:
                key = rng.randrange(512)
                try:
                    yield from client.put("t1", key, 4096)
                    acked[0] += 1
                    yield from client.get("t1", key)
                except StorageFault:
                    pass

        for widx in range(8):
            sim.process(worker(widx))
        started = time.perf_counter()
        sim.run(until=horizon)
        wall = time.perf_counter() - started
        cluster.stop()
        round_trips = client.rpc.stats.round_trips + sum(
            service.rpc.stats.round_trips for service in cluster.services.values()
        )
        durable = sum(cluster.durable_record_counts("t1").values())
        stats = cluster.total_stats("t1")
        return {
            "round_trips": round_trips,
            "round_trips_per_sec": round(round_trips / wall, 1) if wall > 0 else 0.0,
            "acked_puts": acked[0],
            "repl_applies": stats.repl_applies,
            "write_amplification": round(durable / acked[0], 3) if acked[0] else 0.0,
            "wall_seconds": round(wall, 3),
        }

    rf1 = _maybe_profiled(profile, "cluster workload (rf=1)", lambda: one_rf(1))
    rf2 = one_rf(2)
    overhead = (
        round(rf2["write_amplification"] / rf1["write_amplification"], 3)
        if rf1["write_amplification"]
        else 0.0
    )
    return {
        "horizon_sim_seconds": horizon,
        "rf1": rf1,
        "rf2": rf2,
        "replication_overhead": overhead,
    }


def _bench_obs(smoke: bool, trace_path: str) -> Dict[str, Any]:
    """Tracing overhead on the scheduler hot loop, plus a sample trace.

    Interleaves best-of-N runs with no tracer against runs with a
    *disabled* tracer installed (the production default: every
    instrumentation point pays one attribute load and a None/flag
    test).  The overhead ratio gates the harness exit code at 2%.  A
    short traced run then exports ``trace_path`` so CI can publish a
    loadable Chrome trace artifact.
    """
    from repro.obs import Tracer

    sim_seconds = 0.1 if smoke else 0.3
    repeats = 3 if smoke else 5

    def measure(n: int):
        base_best = 0.0
        disabled_best = 0.0
        for _ in range(n):
            base = scheduler_ops_per_sec(sim_seconds=sim_seconds)
            disabled = scheduler_ops_per_sec(
                sim_seconds=sim_seconds, tracer=Tracer(enabled=False)
            )
            base_best = max(base_best, base["ops_per_sec"])
            disabled_best = max(disabled_best, disabled["ops_per_sec"])
        ratio = base_best / disabled_best - 1.0 if disabled_best > 0 else 0.0
        return ratio, base_best, disabled_best

    # Wall-clock jitter on shared CI runners dwarfs a 2% signal, so the
    # gate escalates instead of trusting one estimate: a real regression
    # reproduces under every re-measurement, noise does not survive the
    # min of independent best-of-N estimates.
    overhead, base_best, disabled_best = measure(repeats)
    for _ in range(2):
        if overhead <= 0.02:
            break
        retry, retry_base, retry_disabled = measure(2 * repeats)
        if retry < overhead:
            overhead, base_best, disabled_best = retry, retry_base, retry_disabled

    # A negative estimate just means the no-tracer side lost the jitter
    # lottery — both sides are best-of-N of the same loop, so the true
    # overhead cannot be below zero.  Clamp for the recorded number
    # (a "-0.15%" overhead in the JSON reads as a measurement bug),
    # keep the raw value, and mark the measurement as noise-dominated.
    noisy = overhead < 0.0
    clamped = max(overhead, 0.0)

    tracer = Tracer()
    traced = scheduler_ops_per_sec(sim_seconds=sim_seconds, tracer=tracer)
    tracer.export_chrome(trace_path)
    return {
        "sim_seconds": sim_seconds,
        "repeats": repeats,
        "ops_per_sec_no_tracer": round(base_best, 1),
        "ops_per_sec_tracer_disabled": round(disabled_best, 1),
        "disabled_overhead": round(clamped, 4),
        "disabled_overhead_raw": round(overhead, 4),
        "noisy": noisy,
        "disabled_overhead_ok": clamped <= 0.02,
        "traced_spans": tracer.span_count,
        "traced_ops": traced["ops"],
        "trace_path": os.path.basename(trace_path),
    }


def _bench_epoch(smoke: bool, profile: bool) -> Dict[str, Any]:
    """Epoch fast-forward throughput on a steady-state workload.

    Four read-only open-loop tenants under their allocations — the
    whole horizon qualifies as one analytic epoch, so this measures the
    fast-forward arrival loop itself (stream draws, bulk VOP credit,
    analytic device accounting).  The recorded ``ops_per_sec`` is
    best-of-N completed tasks per wall second with ``fast_forward=True``.

    Two cross-checks ride along and gate the harness exit code:
    an event-by-event run of the same seed must agree exactly on
    tasks/ops/bytes (and on VOPs to float tolerance), and an audited
    fast-forward run must reconcile at 1.0 with zero flags.
    """
    from repro.ssd import get_profile
    from repro.workload import EpochTenantSpec, run_epoch_trial

    horizon = 4.0 if smoke else 10.0
    repeats = 2 if smoke else 3
    device_profile = get_profile("intel320")
    specs = [
        EpochTenantSpec(name=f"t{i}", rate=2500.0, read_fraction=1.0)
        for i in range(4)
    ]

    def one_ff():
        return run_epoch_trial(
            device_profile, specs, horizon=horizon, seed=7, fast_forward=True
        )

    best = _maybe_profiled(profile, "epoch fast-forward (steady read)", one_ff)
    for _ in range(repeats - 1):
        trial = one_ff()
        if trial.tasks_per_wall_second > best.tasks_per_wall_second:
            best = trial

    des = run_epoch_trial(
        device_profile, specs, horizon=horizon, seed=7, fast_forward=False
    )
    agreement_ok = (
        des.total_tasks == best.total_tasks
        and des.total_ops == best.total_ops
        and des.total_bytes == best.total_bytes
        and abs(des.total_vops - best.total_vops)
        <= 1e-6 * max(des.total_vops, 1.0)
    )
    audited = run_epoch_trial(
        device_profile, specs, horizon=min(horizon, 4.0), seed=7,
        fast_forward=True, audit=True,
    )
    summary = audited.audit_summary
    return {
        "horizon_sim_seconds": horizon,
        "repeats": repeats,
        "tasks": best.total_tasks,
        "wall_seconds": round(best.wall_seconds, 3),
        "ops_per_sec": round(best.tasks_per_wall_second, 1),
        "ff_fraction": round(best.ff_fraction, 4),
        "des_wall_seconds": round(des.wall_seconds, 3),
        "speedup_vs_des": round(des.wall_seconds / best.wall_seconds, 2)
        if best.wall_seconds > 0
        else 0.0,
        "agreement_ok": agreement_ok,
        "audit_reconciliation": round(summary["reconciliation"], 6),
        "audit_ok": summary["ok"],
    }


def _bench_epoch_loaded(smoke: bool, profile: bool) -> Dict[str, Any]:
    """Fluid (stable-backlog) fast-forward throughput under load.

    Four read-only open-loop tenants at 75% of the provisioned VOP
    capacity — queues stay persistently non-empty, so the quiet regime
    never applies and coverage comes from the fluid engine's analytic
    DDRR round schedule.  Records best-of-N completed tasks per wall
    second with ``fast_forward=True`` plus the fast-forwarded fraction
    of the horizon; both are headline metrics
    (``epoch_loaded.ops_per_sec``, ``epoch_loaded.ff_fraction``).

    Hard gates on the harness exit code: the same seed replayed
    event-by-event must agree exactly on tasks/ops/bytes (VOPs to
    float tolerance), the audit must reconcile at 1.0, and the fluid
    regime must cover at least 70% of the horizon — losing coverage is
    losing the optimisation this stage exists to track.
    """
    from repro.core.calibration import reference_calibration
    from repro.core.tags import OpKind
    from repro.core.vop import make_cost_model
    from repro.ssd import get_profile
    from repro.workload import EpochTenantSpec, run_epoch_trial

    horizon = 4.0 if smoke else 10.0
    repeats = 2 if smoke else 3
    device_profile = get_profile("intel320")
    model = make_cost_model("exact", reference_calibration("intel320"))
    rate = 0.75 * model.max_iop / model.cost(OpKind.READ, 4096) / 4
    specs = [
        EpochTenantSpec(name=f"t{i}", rate=rate, read_fraction=1.0)
        for i in range(4)
    ]

    def one_ff():
        return run_epoch_trial(
            device_profile, specs, horizon=horizon, seed=7, fast_forward=True
        )

    best = _maybe_profiled(profile, "epoch fast-forward (loaded read)", one_ff)
    for _ in range(repeats - 1):
        trial = one_ff()
        if trial.tasks_per_wall_second > best.tasks_per_wall_second:
            best = trial

    des = run_epoch_trial(
        device_profile, specs, horizon=horizon, seed=7, fast_forward=False
    )
    agreement_ok = (
        des.total_tasks == best.total_tasks
        and des.total_ops == best.total_ops
        and des.total_bytes == best.total_bytes
        and abs(des.total_vops - best.total_vops)
        <= 1e-6 * max(des.total_vops, 1.0)
    )
    audited = run_epoch_trial(
        device_profile, specs, horizon=min(horizon, 4.0), seed=7,
        fast_forward=True, audit=True,
    )
    summary = audited.audit_summary
    return {
        "horizon_sim_seconds": horizon,
        "repeats": repeats,
        "tenant_rate": round(rate, 1),
        "tasks": best.total_tasks,
        "wall_seconds": round(best.wall_seconds, 3),
        "ops_per_sec": round(best.tasks_per_wall_second, 1),
        "ff_fraction": round(best.ff_fraction, 4),
        "fluid_fraction": round(best.fluid_fraction, 4),
        "des_reasons": {
            reason: round(seconds, 4)
            for reason, seconds in sorted(best.des_reasons.items())
        },
        "des_wall_seconds": round(des.wall_seconds, 3),
        "speedup_vs_des": round(des.wall_seconds / best.wall_seconds, 2)
        if best.wall_seconds > 0
        else 0.0,
        "agreement_ok": agreement_ok,
        "audit_reconciliation": round(summary["reconciliation"], 6),
        "audit_epoch_share": round(summary["epoch_share"], 4),
        "audit_ok": summary["ok"],
    }


def _bench_control(smoke: bool, profile: bool) -> Dict[str, Any]:
    """Control-plane costs: map-change throughput and migration VOPs.

    The map leg hammers the versioned ranged ``PartitionMap`` with the
    planner's mutation vocabulary — splits, promotions, atomic replica
    cutovers — and records best-of-N mutations per wall second; the
    routing structure must keep up with a planner loop at 10k+ tenants.

    The migration leg runs the same seeded open-loop writer twice —
    once on a static 3-node cluster, once growing a fourth node (live
    ring-driven migrations) mid-run — and prices elasticity as the
    relative increase in scheduler-charged VOPs (snapshot scans, wire
    ships, and destination applies are all charged, so the delta is the
    real bill).  Zero acked-write loss in the migrating run is a hard
    gate on the harness exit code.

    The churn leg is the hybrid driver's many-cell consumer: the
    50-node × 1k-tenant lifecycle trial, fast-forwarded, reported as
    tasks per wall second of the run loop and the fast-forwarded share
    of the horizon (informational: a second-scale measurement behind
    ~15 s of device preconditioning), plus a small loaded config run in
    both modes whose ``agreement_key`` equality is a hard gate.
    """
    import random

    from repro.control.churn import ChurnConfig, run_churn_trial
    from repro.core import Reservation
    from repro.faults import StorageFault
    from repro.net import NetConfig
    from repro.node import NodeConfig, StorageCluster
    from repro.node.router import PartitionMap
    from repro.sim import Simulator

    # -- map-change throughput (pure control plane, no DES) ------------
    split_rounds = 2 if smoke else 4
    churn_rounds = 20 if smoke else 60
    repeats = 2 if smoke else 3
    names = [f"n{i}" for i in range(8)]
    base_sets = [(names[i % 8], names[(i + 1) % 8]) for i in range(16)]

    def one_map_pass() -> float:
        pm = PartitionMap(4)
        pm.place_tenant_ranges("bench", base_sets, key_space=1 << 20)
        ops = 0
        started = time.perf_counter()
        for _ in range(split_rounds):
            for part in list(pm.partitions("bench")):
                if part.hi - part.lo >= 2:
                    pm.split(
                        "bench", part.index,
                        (part.lo + part.hi) // 2, part.replicas,
                    )
                    ops += 1
        for _ in range(churn_rounds):
            for part in list(pm.partitions("bench")):
                rotated = part.replicas[1:] + part.replicas[:1]
                pm.set_replicas("bench", part.index, rotated)
                pm.promote("bench", part.index, rotated[1])
                ops += 2
        wall = time.perf_counter() - started
        return ops / wall if wall > 0 else 0.0

    map_best = _maybe_profiled(profile, "partition-map mutation loop", one_map_pass)
    for _ in range(repeats - 1):
        map_best = max(map_best, one_map_pass())

    # -- migration VOP overhead (full stack, grow mid-run) -------------
    horizon = 0.6 if smoke else 1.5

    def one_run(migrate: bool) -> Dict[str, Any]:
        sim = Simulator()
        cluster = StorageCluster(
            sim,
            n_nodes=3,
            profile="intel320",
            config=NodeConfig(cache_bytes=0),
            seed=23,
            net=NetConfig(rf=2),
        )
        cluster.enable_control(key_space=1 << 14, vnodes=16)
        cluster.add_ranged_tenant(
            "t1", Reservation(gets=4000.0, puts=4000.0), n_partitions=4
        )
        client = cluster.make_client()
        acked: Dict[int, int] = {}
        counters = {"errors": 0, "lost": 0, "migrations": 0}

        def writer():
            rng = random.Random("perf-control-writer")
            while sim.now < horizon:
                key = rng.randrange(1 << 14)
                try:
                    yield from client.put("t1", key, 4096)
                    acked[key] = 4096
                except StorageFault:
                    counters["errors"] += 1
                yield sim.timeout(0.004)

        def controller():
            yield sim.timeout(horizon / 3.0)
            if migrate:
                reports = yield from cluster.grow("node3")
                counters["migrations"] = len(reports)

        def verifier():
            yield sim.timeout(horizon + 0.05)
            for key, size in acked.items():
                try:
                    got = yield from client.get("t1", key)
                except StorageFault:
                    got = None
                if got != size:
                    counters["lost"] += 1

        sim.process(writer())
        sim.process(controller())
        sim.process(verifier())
        sim.run(until=horizon + (3.0 if migrate else 1.0))
        cluster.stop()
        vops = sum(
            node.scheduler.usage("t1").vops
            for node in cluster.nodes.values()
            if "t1" in node.tenants
        )
        return {
            "acked": len(acked),
            "errors": counters["errors"],
            "lost": counters["lost"],
            "migrations": counters["migrations"],
            "vops": round(vops, 1),
        }

    static = _maybe_profiled(
        profile, "control workload (static)", lambda: one_run(False)
    )
    grown = one_run(True)
    overhead = (
        round(grown["vops"] / static["vops"] - 1.0, 4) if static["vops"] else 0.0
    )

    # -- tenant churn (hybrid driver, one cell per node) ---------------
    fleet = _maybe_profiled(
        profile, "churn 50 nodes x 1k tenants (fast-forward)",
        lambda: run_churn_trial(
            ChurnConfig(horizon=300.0 if smoke else 600.0), fast_forward=True
        ),
    )
    # loaded enough that quiet epochs are closed by GC crossings and a
    # real share of the tasks runs event-by-event on both sides
    loaded = ChurnConfig(
        n_nodes=4, n_tenants=60, horizon=15.0 if smoke else 30.0,
        base_rate=900.0, read_fraction=0.3, rebalance_interval=5.0,
    )
    churn_agrees = (
        run_churn_trial(loaded, fast_forward=True).agreement_key()
        == run_churn_trial(loaded, fast_forward=False).agreement_key()
    )
    return {
        "map_split_rounds": split_rounds,
        "map_churn_rounds": churn_rounds,
        "map_changes_per_sec": round(map_best, 1),
        "horizon_sim_seconds": horizon,
        "static": static,
        "grown": grown,
        "migration_vop_overhead": overhead,
        "migration_lossless": grown["lost"] == 0 and static["lost"] == 0,
        "churn_horizon_sim_seconds": fleet.horizon,
        "churn_tasks": fleet.total_tasks,
        "churn_tasks_per_sec": round(fleet.tasks_per_wall_second, 1),
        "churn_ff_fraction": round(fleet.ff_fraction, 4),
        "churn_des_reasons": {
            reason: round(seconds, 3)
            for reason, seconds in sorted(fleet.des_reasons.items())
        },
        "churn_agreement_ok": churn_agrees,
    }


def run_harness(
    jobs: int = 4, smoke: bool = False, profile: bool = False
) -> Dict[str, Any]:
    """Run every stage and return the BENCH_sim.json payload."""
    print("[perf] kernel microbench (live vs frozen baseline)...", file=sys.stderr)
    # Best-of-2 even under --smoke: the regression gate compares the
    # recorded number against a committed baseline, and a single run is
    # too exposed to shared-runner jitter to gate on.
    kernel = _maybe_profiled(
        profile,
        "kernel microbench (live)",
        lambda: kernel_speedup(scale=1, repeats=2 if smoke else 3),
    )
    kernel = {
        "events": kernel["events"],
        "ref_events_per_sec": round(kernel["ref_events_per_sec"], 1),
        "events_per_sec": round(kernel["events_per_sec"], 1),
        "speedup_vs_baseline": round(kernel["speedup"], 3),
    }
    print(
        f"[perf]   {kernel['events_per_sec']:.0f} ev/s, "
        f"{kernel['speedup_vs_baseline']:.2f}x the frozen kernel",
        file=sys.stderr,
    )

    print("[perf] DDRR scheduler throughput...", file=sys.stderr)
    # Best-of-N, like the tracing-overhead stage: the first run in a
    # fresh interpreter pays cold bytecode/caches and a single run is
    # at the mercy of shared-runner jitter, so the recorded trajectory
    # number is the best of three steady-state measurements.
    sched_repeats = 3
    sched = max(
        (
            scheduler_ops_per_sec(sim_seconds=0.1 if smoke else 0.5)
            for _ in range(sched_repeats)
        ),
        key=lambda r: r["ops_per_sec"],
    )
    scheduler = {
        "ops": sched["ops"],
        "sim_seconds": sched["sim_seconds"],
        "repeats": sched_repeats,
        "ops_per_sec": round(sched["ops_per_sec"], 1),
    }
    print(f"[perf]   {scheduler['ops_per_sec']:.0f} chunks/s", file=sys.stderr)

    print("[perf] NVMe multi-queue scheduler throughput (queues=8)...", file=sys.stderr)
    # Same closed loop as the scheduler stage, on the 8-queue NVMe
    # device — tracks the cost of per-SQ admission, command-tag
    # arbitration, and the per-queue controller lanes.  Best-of-N for
    # the same jitter reasons as above.
    nvme_queues = 8
    nvme_best = max(
        (
            scheduler_ops_per_sec(
                sim_seconds=0.1 if smoke else 0.5, num_queues=nvme_queues
            )
            for _ in range(sched_repeats)
        ),
        key=lambda r: r["ops_per_sec"],
    )
    nvme = {
        "num_queues": nvme_queues,
        "ops": nvme_best["ops"],
        "sim_seconds": nvme_best["sim_seconds"],
        "repeats": sched_repeats,
        "ops_per_sec": round(nvme_best["ops_per_sec"], 1),
    }
    print(f"[perf]   {nvme['ops_per_sec']:.0f} chunks/s", file=sys.stderr)

    print(f"[perf] fig4 grid: serial vs --jobs {jobs}...", file=sys.stderr)
    grid = _bench_grid(jobs=jobs, smoke=smoke, profile=profile)
    print(
        f"[perf]   serial {grid['serial_seconds']:.1f}s, "
        f"jobs={jobs} {grid['parallel_seconds']:.1f}s "
        f"({grid['speedup_vs_serial']:.2f}x), "
        f"byte_identical={grid['byte_identical']}",
        file=sys.stderr,
    )

    print("[perf] cluster workload: RPC round trips and replication...", file=sys.stderr)
    cluster = _bench_cluster(smoke=smoke, profile=profile)
    print(
        f"[perf]   rf1 {cluster['rf1']['round_trips_per_sec']:.0f} rt/s, "
        f"rf2 {cluster['rf2']['round_trips_per_sec']:.0f} rt/s, "
        f"write-amp overhead {cluster['replication_overhead']:.2f}x",
        file=sys.stderr,
    )

    print("[perf] epoch fast-forward (steady-state hybrid sim)...", file=sys.stderr)
    epoch = _bench_epoch(smoke=smoke, profile=profile)
    print(
        f"[perf]   {epoch['ops_per_sec']:.0f} ops/s fast-forwarded "
        f"({epoch['speedup_vs_des']:.1f}x the event-by-event run), "
        f"agreement={epoch['agreement_ok']}, "
        f"audit recon {epoch['audit_reconciliation']:.4f}",
        file=sys.stderr,
    )

    print("[perf] epoch fast-forward (loaded stable backlog)...", file=sys.stderr)
    epoch_loaded = _bench_epoch_loaded(smoke=smoke, profile=profile)
    print(
        f"[perf]   {epoch_loaded['ops_per_sec']:.0f} ops/s through the fluid "
        f"engine ({epoch_loaded['speedup_vs_des']:.1f}x the event-by-event "
        f"run), ff fraction {epoch_loaded['ff_fraction']:.2f}, "
        f"agreement={epoch_loaded['agreement_ok']}, "
        f"audit recon {epoch_loaded['audit_reconciliation']:.4f}",
        file=sys.stderr,
    )

    print("[perf] control plane: map changes and migration VOPs...", file=sys.stderr)
    control = _bench_control(smoke=smoke, profile=profile)
    print(
        f"[perf]   {control['map_changes_per_sec']:.0f} map changes/s, "
        f"migration VOP overhead "
        f"{100.0 * control['migration_vop_overhead']:+.1f}% "
        f"({control['grown']['migrations']} live migrations, "
        f"lossless={control['migration_lossless']})",
        file=sys.stderr,
    )
    print(
        f"[perf]   churn {control['churn_tasks_per_sec']:.0f} tasks/s, "
        f"ff fraction {control['churn_ff_fraction']:.4f}, "
        f"FF==DES agreement={control['churn_agreement_ok']}",
        file=sys.stderr,
    )

    print("[perf] tracing overhead (disabled tracer vs none)...", file=sys.stderr)
    obs = _bench_obs(smoke=smoke, trace_path=os.path.join(_REPO, "trace.json"))
    print(
        f"[perf]   disabled-tracer overhead "
        f"{100.0 * obs['disabled_overhead']:+.2f}% "
        f"(gate 2%), sample trace: {obs['traced_spans']} spans",
        file=sys.stderr,
    )

    return {
        "schema": 1,
        "smoke": smoke,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "kernel": kernel,
        "scheduler": scheduler,
        "nvme": nvme,
        "grids": {"fig4": grid},
        "cluster": cluster,
        "epoch": epoch,
        "epoch_loaded": epoch_loaded,
        "control": control,
        "obs": obs,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the DES kernel, scheduler, and figure grids."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="seconds-scale run for CI (tiny grid, single microbench repeat)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="worker processes for the parallel grid leg (default 4)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="wrap the kernel bench and the serial grid in cProfile",
    )
    parser.add_argument(
        "--output", default=DEFAULT_OUTPUT, metavar="PATH",
        help="where to write the JSON results (default: repo-root BENCH_sim.json)",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    results = run_harness(jobs=args.jobs, smoke=args.smoke, profile=args.profile)
    with open(args.output, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=False)
        fh.write("\n")
    print(f"[perf] wrote {args.output}", file=sys.stderr)

    print("[perf] perf trajectory (BENCH_history.jsonl)...", file=sys.stderr)
    append_history(results, smoke=args.smoke)
    print("[perf] regression gate (vs benchmarks/perf/baseline.json)...", file=sys.stderr)
    gate_failures = check_regression(results, smoke=args.smoke)

    if not results["grids"]["fig4"]["byte_identical"]:
        print("[perf] FAIL: parallel grid diverged from serial", file=sys.stderr)
        return 1
    if not results["epoch"]["agreement_ok"]:
        print(
            "[perf] FAIL: epoch fast-forward diverged from the "
            "event-by-event run",
            file=sys.stderr,
        )
        return 1
    if not results["epoch"]["audit_ok"]:
        print(
            f"[perf] FAIL: epoch fast-forward audit flagged "
            f"(reconciliation {results['epoch']['audit_reconciliation']:.4f})",
            file=sys.stderr,
        )
        return 1
    if not results["epoch_loaded"]["agreement_ok"]:
        print(
            "[perf] FAIL: loaded-epoch fluid fast-forward diverged from the "
            "event-by-event run",
            file=sys.stderr,
        )
        return 1
    if not results["epoch_loaded"]["audit_ok"]:
        print(
            f"[perf] FAIL: loaded-epoch audit flagged (reconciliation "
            f"{results['epoch_loaded']['audit_reconciliation']:.4f})",
            file=sys.stderr,
        )
        return 1
    if results["epoch_loaded"]["ff_fraction"] < 0.70:
        print(
            f"[perf] FAIL: loaded-epoch ff fraction "
            f"{results['epoch_loaded']['ff_fraction']:.2f} below the 0.70 "
            f"floor (the fluid regime lost coverage; see "
            f"epoch_loaded.des_reasons for where)",
            file=sys.stderr,
        )
        return 1
    if not results["control"]["migration_lossless"]:
        print(
            f"[perf] FAIL: live migration lost acked writes "
            f"(static {results['control']['static']['lost']}, "
            f"grown {results['control']['grown']['lost']})",
            file=sys.stderr,
        )
        return 1
    if not results["control"]["churn_agreement_ok"]:
        print(
            "[perf] FAIL: churn fast-forward diverged from the "
            "event-by-event run",
            file=sys.stderr,
        )
        return 1
    if not results["obs"]["disabled_overhead_ok"]:
        print(
            f"[perf] FAIL: disabled-tracer overhead "
            f"{100.0 * results['obs']['disabled_overhead']:.2f}% exceeds the "
            f"2% budget",
            file=sys.stderr,
        )
        return 1
    if gate_failures:
        for failure in gate_failures:
            print(f"[perf] FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
