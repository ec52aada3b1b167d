"""Ablation benches for the design choices DESIGN.md calls out.

These are not paper figures; they quantify the sensitivity of Libra's
accuracy/utilization trade-offs to its tunables:

- large-IOP chunking threshold (responsiveness vs 256K accuracy),
- DDRR round length (fairness granularity vs overhead),
- capacity floor vs mean-capacity provisioning (SLA safety).
"""

import pytest

from repro.obs.metrics import mmr
from repro.core import SchedulerConfig
from repro.core.capacity import REFERENCE_FLOORS
from repro.ssd import get_profile
from repro.workload.iobench import DeviceEnv, TenantSpec, run_raw_trial

KIB = 1024


def _fairness_with_config(config: SchedulerConfig, read_size, write_size, seed=7):
    profile = get_profile("intel320")
    env = DeviceEnv(profile, seed=seed)
    specs = [
        TenantSpec(f"r{i}", 1.0, read_size=read_size, write_size=write_size)
        for i in range(4)
    ] + [
        TenantSpec(f"w{i}", 0.0, read_size=read_size, write_size=write_size)
        for i in range(4)
    ]
    floor = REFERENCE_FLOORS["intel320"]
    trial = run_raw_trial(
        profile,
        specs,
        duration=0.5,
        warmup=0.15,
        seed=seed,
        allocations={s.name: floor / 8 for s in specs},
        scheduler_config=config,
        env=env,
    )
    return mmr(t.vops for t in trial.tenants.values())


@pytest.mark.figure
def test_ablation_chunk_size():
    """Chunking 256K ops: smaller chunks help responsiveness but cost
    VOP-allocation accuracy at the largest sizes."""

    def sweep():
        results = {}
        for chunk in (64 * KIB, 128 * KIB, 512 * KIB):
            config = SchedulerConfig(chunk_size=chunk)
            results[chunk] = _fairness_with_config(config, 256 * KIB, 256 * KIB)
        return results

    results = sweep()
    print()
    for chunk, value in sorted(results.items()):
        print(f"chunk={chunk // KIB:>4}K  VOP MMR at 256K/256K = {value:.3f}")
    # Every configuration still insulates well.
    assert all(v > 0.8 for v in results.values())


@pytest.mark.figure
def test_ablation_round_length():
    """DDRR round length: fairness holds across an order of magnitude."""

    def sweep():
        results = {}
        for seconds in (0.001, 0.005, 0.02):
            config = SchedulerConfig(round_seconds=seconds)
            results[seconds] = _fairness_with_config(config, 4 * KIB, 64 * KIB)
        return results

    results = sweep()
    print()
    for seconds, value in sorted(results.items()):
        print(f"round={seconds * 1e3:>5.1f}ms  VOP MMR at 4K/64K = {value:.3f}")
    assert all(v > 0.85 for v in results.values())


@pytest.mark.figure
def test_ablation_floor_vs_mean_provisioning():
    """Provisioning at the capacity floor never overbooks the observed
    grid; provisioning at the mean would have overbooked a large share
    of workloads (the paper's §4.2 argument for the floor)."""

    def sweep():
        from repro.experiments.fig4 import run as run_fig4

        result = run_fig4(quick=True)
        samples = sorted(result.cells.values())
        floor = min(samples)
        mean = sum(samples) / len(samples)
        overbooked_at_mean = sum(1 for s in samples if s < mean) / len(samples)
        overbooked_at_floor = sum(1 for s in samples if s < floor) / len(samples)
        return floor, mean, overbooked_at_floor, overbooked_at_mean

    floor, mean, at_floor, at_mean = sweep()
    print()
    print(
        f"floor={floor / 1e3:.1f}k mean={mean / 1e3:.1f}k  "
        f"workloads overbooked: floor={at_floor * 100:.0f}%, mean={at_mean * 100:.0f}%"
    )
    assert at_floor == 0.0
    assert at_mean > 0.25
