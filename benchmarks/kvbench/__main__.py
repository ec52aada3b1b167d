"""``python -m benchmarks.kvbench [--seed N] [--workload W] [--quick]``

Runs every workload's end-to-end run and then its traced run, each in a
fresh subprocess, one at a time (so no run inherits another's heap or
competes with it for the CPU), streams their metric tables, and gathers
the result objects into ``benchmarks/kvbench/out/kvbench.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.kvbench")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (repeatable); default: all")
    parser.add_argument("--quick", action="store_true",
                        help="horizons / 10; a smoke run, never valid for a claim")
    args = parser.parse_args(argv)
    seconds = contract["run_seconds"] / 10 if args.quick else contract["run_seconds"]

    results = {}
    failed = []
    for name in args.workload or names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                failed.append(f"{name} --trace {trace} (exit {proc.returncode})")
            if lines and lines[-1].startswith("{"):
                results.setdefault(name, {})["traced" if trace else "end_to_end"] = json.loads(
                    lines[-1]
                )
    out_file = HERE / "out" / "kvbench.json"
    out_file.parent.mkdir(exist_ok=True)
    out_file.write_text(json.dumps(
        {"seed": args.seed, "seconds": seconds, "quick": args.quick, "results": results},
        indent=1,
    ))
    print(f"results: {out_file.relative_to(ROOT)}")
    for failure in failed:
        print(f"FAILED: {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
