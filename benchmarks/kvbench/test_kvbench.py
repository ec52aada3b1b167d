"""kvbench's own checks: layer bucketing, and smoke runs of two workloads.

Outside ``testpaths`` (tier-1 time is unchanged); run from the repo root:

    python -m pytest benchmarks/kvbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from . import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bucket_splits_builtins_by_caller_and_sums_to_one():
    core = ("/x/src/repro/core/scheduler.py", 10, "pump")
    ssd = ("/x/src/repro/ssd/device.py", 20, "submit")
    driver = ("/x/benchmarks/kvbench/workloads.py", 5, "_client")
    unknown = ("/somewhere/else/helper.py", 1, "helper")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        # func: (prim_calls, calls, self_s, cum_s, {caller: (calls, prim, self_s, cum_s)})
        driver: (1, 1, 1.0, 10.0, {}),
        core: (4, 4, 3.0, 6.0, {driver: (4, 4, 3.0, 6.0)}),
        ssd: (6, 6, 2.0, 3.0, {core: (6, 6, 2.0, 3.0)}),
        unknown: (1, 1, 0.5, 0.5, {core: (1, 1, 0.5, 0.5)}),
        builtin: (10, 10, 4.0, 4.0, {core: (2, 2, 1.0, 1.0), ssd: (8, 8, 3.0, 3.0)}),
    }
    table = layers.bucket(stats)
    assert table["core"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert table["ssd"]["self_s"] == pytest.approx(2.0 + 3.0)
    # the driver and the unknown path are "other", whoever called them
    assert table["other"]["self_s"] == pytest.approx(1.0 + 0.5)
    assert sum(layer["self_share"] for layer in table.values()) == pytest.approx(1.0)
    # calls are the layer's own Python functions, never the builtins it called
    assert (table["core"]["calls"], table["ssd"]["calls"], table["other"]["calls"]) == (4, 6, 2)
    assert table["ssd"]["top"][0]["function"].endswith("(<built-in method _heapq.heappush>)")
    assert layers.frame_cost(stats, "repro/ssd/device.py", "submit") == (6, 3.0)


def test_layer_of_paths():
    assert layers.layer_of("/ck/src/repro/engine/db.py") == "engine"
    assert layers.layer_of("/tmp/repro/ck/src/repro/net/rpc.py") == "net"
    assert layers.layer_of("/ck/src/repro/workload/epoch.py") == "other"
    assert layers.layer_of("~") is None
    assert layers.layer_of(layers.__file__) == "other"
    assert layers.layer_of(json.__file__) is None


def _run(workload: str, seed: int, trace: int) -> dict:
    """One smoke run (--seconds 1); returns its detail file."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    detail = json.loads((HERE / "out" / f"{workload}.{'layers' if trace else 'e2e'}.json")
                        .read_text())
    assert detail["quick"] is True and detail["metrics"] == result["metrics"]
    return detail


@pytest.mark.parametrize("workload", ["node_hot", "cluster_rf3"])
def test_smoke_run_reports_the_contract_and_is_deterministic(workload):
    first, again, other = _run(workload, 1, 0), _run(workload, 1, 0), _run(workload, 2, 0)
    declared = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {n: m["unit"] for n, m in first["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in first["metrics"].values())
    # same seed: the simulation repeats bit for bit; another seed: it does not
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"]["seg7"] != other["sim_digest"]["seg7"]
    simulated = [n for n in declared if n.startswith("sim_")] + ["io_amp", "vop_per_req"]
    assert all(first["metrics"][n] == again["metrics"][n] for n in simulated)

    traced = _run(workload, 1, 1)  # also checks traced digest == untraced
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == declared
    assert traced["sim_digest"] == first["sim_digest"]
    shares = [traced["metrics"][f"{layer}.self_share"]["value"] for layer in layers.LAYERS]
    assert sum(shares) == pytest.approx(1.0)
