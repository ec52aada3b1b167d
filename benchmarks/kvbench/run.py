"""Run one kvbench workload: the command ``BENCHMARK.json`` names.

    python3 benchmarks/kvbench/run.py --workload node_get --seed 1 \
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no profiler attached;
``--trace 1`` is the separate traced run that yields the per-layer ones.
Every metric is printed by name with its unit, outputs are checked, and
the last line of stdout is the result object.  ``--seconds`` scales the
workload's fixed simulated horizon (sized so that an end-to-end run's
three same-seed passes take ~11 CPU-s at 10), so the same ``(--seed,
--seconds)`` always measures the same simulated work.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
_STARTED = time.perf_counter()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The benchmark builds nothing: it imports the program from source.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.kvbench import harness
    from benchmarks.kvbench.refhost import NOMINAL_RATE, HostMeter
    from benchmarks.kvbench.workloads import WORKLOADS

    import_cpu, import_wall = time.process_time(), time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec = WORKLOADS[args.workload]
    quick = args.seconds < harness.NOMINAL_SECONDS
    horizon = spec.horizon * args.seconds / harness.NOMINAL_SECONDS
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]

    meter = HostMeter()
    import_ref_s = meter.charge(import_cpu)
    problems = []
    setups, windows = [], []
    # An end-to-end run repeats the same seed: setup_s is the median
    # set-up and each slice is charged the median of its repeats.  One
    # pass is enough where neither is reported (traced runs) or valid for
    # a claim (quick runs).
    for _ in range(1 if args.trace or quick else harness.REPEATS):
        world = None  # drop the previous system before building the next
        world, ref_s, wall_s = harness.timed_setup(spec, args.seed, meter)
        setups.append((ref_s, wall_s))
        windows.append(harness.run_window(world, horizon, meter))
        if windows[-1].digests != windows[0].digests:
            problems.append(f"same seed, different simulation: {windows[-1].digests}")
    window = windows[0]
    setup_s = import_ref_s + statistics.median(ref_s for ref_s, _wall in setups)
    problems += world.final_checks()
    detail = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "quick": quick,
        "horizon_sim_s": horizon, "clients": len(spec.tenants) * spec.clients_per_tenant,
        "sim_digest": {f"seg{k}": value for k, value in window.digests.items()},
        "sim_latency": harness.latency_summary(window),
        "slices": {"cpu_s": [w.slice_cpu for w in windows],
                   "ref_s": [w.slice_ref for w in windows], "completed": window.slice_done},
        "setups": {"import_ref_s": import_ref_s, "ref_s": [ref_s for ref_s, _wall in setups]},
    }

    if not args.trace:
        metrics = harness.end_to_end(windows, setup_s, detail["sim_latency"])
    else:
        counters = harness.model_counters(window, world)
        # Same set-up and seed again, with the profiler around the first
        # segments; it may not perturb the simulation.
        world = None
        world, _ref_s, _wall_s = harness.timed_setup(spec, args.seed, meter)
        profiler = cProfile.Profile()
        traced = harness.run_window(world, horizon, meter, harness.TRACED_SEGMENTS, profiler)
        profiler.create_stats()
        seg = harness.TRACED_SEGMENTS
        if traced.digests[seg] != window.digests[seg]:
            problems.append(
                f"profiling perturbed the simulation: segment-{seg} digest "
                f"{traced.digests[seg]} != untraced {window.digests[seg]}"
            )
        metrics, table = harness.traced_layers(profiler.stats, traced)
        metrics.update(counters)
        metrics.update({
            "host.req_per_wall_s": sum(window.slice_done) / sum(window.slice_wall),
            "host.req_per_cpu_s_raw": sum(window.slice_done) / sum(window.slice_cpu),
            "host.setup_wall_s": import_wall + setups[0][1],
            "host.ref_ev_per_cpu_s": statistics.median(meter.samples),
            "host.trace_overhead": sum(traced.slice_ref)
            / sum(window.slice_ref[:len(traced.slice_ref)]),
        })
        detail["requests_traced"] = traced.total("driver", "completed")
        detail["layers"] = table

    names = {metric["name"] for metric in declared}
    if set(metrics) != names:
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: missing {sorted(names - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - names)}"
        )
    failed = int(window.total("driver", "failed"))
    result = {
        "correct": not problems,
        "attempted": int(window.total("driver", "completed")) + failed,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    detail.update(result)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{spec.name}.{'layers' if args.trace else 'e2e'}.json"
    out_file.write_text(json.dumps(detail, indent=1))

    print(f"kvbench {spec.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f"{' QUICK (not valid for a claim)' if quick else ''}")
    print(f"  {detail['clients']} closed-loop clients, {horizon:g} simulated s in "
          f"{harness.SEGMENTS} segments x {harness.SLICES_PER_SEGMENT} slices; host speed "
          f"{statistics.median(meter.samples) / NOMINAL_RATE:.2f} of reference")
    for op, row in detail["sim_latency"].items():
        print(f"  sim latency {op:<5} n={row['samples']:<7} mean {row['mean_ms']:.4g} ms  "
              f"p50 {row['p50_ms']:.4g}  p90 {row['p90_ms']:.4g}  p99 {row['p99_ms']:.4g}")
    print("  sim_digest " + " ".join(f"{k}={v}" for k, v in detail["sim_digest"].items()))
    for metric in declared:
        print(f"  {metric['name']:<40} {metrics[metric['name']]:>16.6g} {metric['unit']:<8}"
              f" ({metric['better']} is better)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  detail: {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
