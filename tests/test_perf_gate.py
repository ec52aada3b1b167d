"""Unit tests for the perf harness's regression gate and history log."""

import json
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_BENCH = os.path.join(_REPO, "benchmarks")
if _BENCH not in sys.path:
    sys.path.insert(0, _BENCH)

from perf.harness import append_history, check_regression  # noqa: E402


def results(kernel=500_000.0, sched=40_000.0, epoch=250_000.0, control=200_000.0):
    return {
        "kernel": {"events_per_sec": kernel},
        "scheduler": {"ops_per_sec": sched},
        "epoch": {"ops_per_sec": epoch},
        "control": {"map_changes_per_sec": control},
    }


def write_baseline(path, kernel=500_000.0, sched=40_000.0, epoch=250_000.0):
    payload = {
        "smoke": {
            "kernel.events_per_sec": kernel,
            "scheduler.ops_per_sec": sched,
            "epoch.ops_per_sec": epoch,
        }
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_headline_skips_absent_stage():
    from perf.harness import _headline

    trimmed = {"kernel": {"events_per_sec": 1.0}}
    assert _headline(trimmed) == {"kernel.events_per_sec": 1.0}


def test_gate_passes_within_tolerance(tmp_path, monkeypatch):
    monkeypatch.delenv("PERF_GATE_SKIP", raising=False)
    base = write_baseline(tmp_path / "baseline.json")
    # 19% down on one metric, up on the other: both inside the budget
    assert check_regression(results(kernel=405_000.0, sched=44_000.0), True, base) == []


def test_gate_fails_on_drop(tmp_path, monkeypatch):
    monkeypatch.delenv("PERF_GATE_SKIP", raising=False)
    base = write_baseline(tmp_path / "baseline.json")
    failures = check_regression(results(sched=30_000.0), True, base)
    assert len(failures) == 1
    assert "scheduler.ops_per_sec" in failures[0]
    assert "PERF_GATE_SKIP" in failures[0]


def test_gate_override_env_skips(tmp_path, monkeypatch):
    base = write_baseline(tmp_path / "baseline.json")
    monkeypatch.setenv("PERF_GATE_SKIP", "1")
    assert check_regression(results(sched=1.0), True, base) == []


def test_gate_skips_without_baseline_or_mode(tmp_path, monkeypatch):
    monkeypatch.delenv("PERF_GATE_SKIP", raising=False)
    missing = str(tmp_path / "nope.json")
    assert check_regression(results(sched=1.0), True, missing) == []
    base = write_baseline(tmp_path / "baseline.json")
    # baseline has no "full" entry -> skip, not fail
    assert check_regression(results(sched=1.0), False, base) == []


def test_history_appends_records(tmp_path):
    path = str(tmp_path / "history.jsonl")
    append_history(results(sched=40_000.0), smoke=True, path=path)
    append_history(results(sched=44_000.0), smoke=True, path=path)
    append_history(results(sched=10_000.0), smoke=False, path=path)
    entries = [json.loads(line) for line in open(path)]
    assert len(entries) == 3
    assert [e["smoke"] for e in entries] == [True, True, False]
    assert entries[1]["scheduler.ops_per_sec"] == 44_000.0
    assert all("timestamp" in e and "git_sha" in e for e in entries)


def test_history_records_src_lines_outside_the_speedup_report(tmp_path, capsys):
    path = str(tmp_path / "history.jsonl")
    append_history(results(), smoke=True, path=path)
    append_history(results(), smoke=True, path=path)
    entries = [json.loads(line) for line in open(path)]
    src = os.path.join(_REPO, "src")
    expected = sum(
        len(open(os.path.join(root, name), "rb").read().splitlines())
        for root, _dirs, files in os.walk(src)
        for name in files
        if name.endswith(".py")
    )
    assert [e["src_lines"] for e in entries] == [expected, expected]
    assert expected > 10_000
    assert "src_lines" not in capsys.readouterr().err
