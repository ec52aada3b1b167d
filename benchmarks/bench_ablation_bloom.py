"""Ablation: Bloom filters vs the paper's GET amplification.

The paper's prototype runs without filters, so every eligible file
costs an index-block probe (§3.1).  This bench measures the per-GET
disk probes under a churn-heavy mixed workload with filters off
(paper-faithful) and on (LevelDB's later FilterPolicy), quantifying how
much amplification filters buy back — context for why Libra's
*tracking* of amplified cost matters even when engines mitigate it.
"""

import random

import pytest

from repro.core import LibraScheduler, make_cost_model, reference_calibration
from repro.engine import EngineConfig, LsmEngine
from repro.sim import Simulator
from repro.ssd import SimFilesystem, SsdProfile, make_device

KIB = 1024
MIB = 1024 * 1024


def run_workload(bloom_bits: int, seed: int = 23):
    sim = Simulator()
    profile = SsdProfile(
        name="bloom-ablate", channels=8, logical_capacity=128 * MIB, overprovision=1.0
    )
    device = make_device(sim, profile, seed=seed)
    scheduler = LibraScheduler(
        sim, device, make_cost_model("exact", reference_calibration("intel320"))
    )
    scheduler.register_tenant("t1", 30_000.0)
    fs = SimFilesystem(sim, scheduler, capacity=profile.logical_capacity)
    config = EngineConfig(
        memtable_bytes=256 * KIB,
        level1_bytes=1 * MIB,
        table_cache_entries=2,  # force index probes to hit disk
        bloom_bits_per_key=bloom_bits,
    )
    engine = LsmEngine(sim, fs, "t1", config)
    rng = random.Random(seed)
    n_keys = 4000
    done = {"gets": 0, "misses": 0}

    def worker():
        while sim.now < 20.0:
            key = rng.randrange(n_keys)
            if rng.random() < 0.5:
                result = yield from engine.get(key)
                done["gets"] += 1
                if result is None:
                    done["misses"] += 1
            else:
                yield from engine.put(key, 8 * KIB)

    for _ in range(8):
        sim.process(worker())
    sim.run(until=20.0)
    probes_per_get = engine.stats.index_probes / max(done["gets"], 1)
    disk_probes = engine.stats.index_probes - engine.stats.index_cache_hits
    disk_probes_per_get = disk_probes / max(done["gets"], 1)
    return {
        "gets": done["gets"],
        "probes_per_get": probes_per_get,
        "disk_probes_per_get": disk_probes_per_get,
        "bloom_skips": engine.stats.bloom_skips,
    }


@pytest.mark.figure
def test_ablation_bloom_filters(benchmark):
    def sweep():
        return {bits: run_workload(bits) for bits in (0, 10)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for bits, stats in results.items():
        print(
            f"bloom_bits={bits:>2}: {stats['gets']} GETs, "
            f"{stats['probes_per_get']:.2f} probes/GET, "
            f"{stats['disk_probes_per_get']:.2f} disk index reads/GET, "
            f"{stats['bloom_skips']} bloom skips"
        )
    without, with_bloom = results[0], results[10]
    # Filters skip real probes...
    assert with_bloom["bloom_skips"] > 0
    # ...and cut the disk index reads per GET.
    assert (
        with_bloom["disk_probes_per_get"] < without["disk_probes_per_get"] * 0.9
    )
