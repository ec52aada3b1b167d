"""``BENCH_kvbench.jsonl``: the kvbench trajectory, one row per claim PR
and workload, checked for shape and for arithmetic.

Each row records alternating parent/change runs of ``python3
benchmarks/kvbench/run.py --workload W --seed N --seconds S --trace 0``:
``pairs[i]`` is ``[parent, change]`` of the row's ``metric`` (an
end-to-end metric of ``BENCHMARK.json``; ``req_per_cpu_s`` when absent)
at ``seeds[i]``, ``wins`` counts the pairs where the change is better in
the direction ``BENCHMARK.json`` declares for that metric,
and ``sim_digest[str(seed)]`` the ``[seg2, seg7]`` digest prefixes both
sides printed (a pair with different digests is not a measurement of
the same simulation, so it is not recorded).  ``claim`` marks the series
a PR's claim stands on, ``holdout`` the seeds first run once the code
was final.  ``sha`` is null only in the row a PR writes about itself.
An ablation row names in ``against`` what its first column ran instead
of the parent (the change with one part taken out).
"""

import json
import pathlib
import re
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
HISTORY = ROOT / "BENCH_kvbench.jsonl"
#: end-to-end metric -> "higher" or "lower", whichever is better
BETTER = {
    metric["name"]: metric["better"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
}
WORKLOADS = {"node_get", "node_hot", "node_put", "node_scan", "cluster_rf3"}
FIELDS = {
    "pr", "sha", "parent_sha", "workload", "claim", "holdout", "seconds", "seeds", "pairs",
    "wins", "ratio_of_medians", "sim_digest",
}
SHA = re.compile(r"[0-9a-f]{7,40}")
DIGEST = re.compile(r"[0-9a-f]{8,16}")


@pytest.fixture(scope="module")
def history():
    return [json.loads(line) for line in HISTORY.read_text().splitlines() if line.strip()]


def test_rows_have_the_schema(history):
    assert history
    for row in history:
        assert FIELDS <= set(row) <= FIELDS | {"note", "against", "metric"}, row
        assert row.get("metric", "req_per_cpu_s") in BETTER, row
        assert not (row.get("against") and row["claim"]), row
        assert isinstance(row["pr"], int) and row["workload"] in WORKLOADS
        assert row["sha"] is None or SHA.fullmatch(row["sha"])
        assert SHA.fullmatch(row["parent_sha"])
        assert isinstance(row["claim"], bool) and isinstance(row["holdout"], bool)
        assert row["seconds"] > 0
        seeds = row["seeds"]
        assert seeds and len(set(seeds)) == len(seeds)
        assert all(isinstance(seed, int) for seed in seeds)
        assert len(row["pairs"]) == len(seeds)
        assert all(len(pair) == 2 and min(pair) > 0 for pair in row["pairs"])
        assert set(row["sim_digest"]) == {str(seed) for seed in seeds}
        for seg2, seg7 in row["sim_digest"].values():
            assert DIGEST.fullmatch(seg2) and DIGEST.fullmatch(seg7)


def test_each_recorded_ratio_and_win_count_matches_its_pairs(history):
    for row in history:
        parent = statistics.median(p for p, _c in row["pairs"])
        change = statistics.median(c for _p, c in row["pairs"])
        assert row["ratio_of_medians"] == pytest.approx(change / parent, abs=5e-4), row
        higher = BETTER[row.get("metric", "req_per_cpu_s")] == "higher"
        assert row["wins"] == sum(c > p if higher else c < p for p, c in row["pairs"]), row


def test_one_claim_series_per_pr_in_pr_order(history):
    prs = [row["pr"] for row in history]
    assert prs == sorted(prs)
    for pr in set(prs):
        mine = [row for row in history if row["pr"] == pr]
        assert sum(row["claim"] for row in mine) == 1, pr
        assert len({(row["sha"], row["parent_sha"]) for row in mine}) == 1, pr
    # only the newest PR may not know its own commit yet
    assert all(row["sha"] for row in history if row["pr"] != prs[-1])
