"""Tests for workload distributions and drivers."""

import random

import pytest

from repro.core import OpKind, Reservation
from repro.engine import EngineConfig
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.ssd import SsdProfile
from repro.workload import (
    BlockStream,
    ExponentialArrivals,
    FixedSize,
    LogNormalSize,
    TenantSpec,
    Uniform01,
    UniformKeys,
    align,
    isolated_iops,
)
from repro.workload.generator import KvLoad, KvTenantSpec, bootstrap_tenant, start_kv_load

KIB = 1024
MIB = 1024 * 1024


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

def test_align():
    assert align(1, 1024) == 1024
    assert align(1024, 1024) == 1024
    assert align(1025, 1024) == 2048
    assert align(0, 512) == 512


def test_fixed_size():
    dist = FixedSize(4096)
    rng = random.Random(1)
    assert all(dist.sample(rng) == 4096 for _ in range(10))
    with pytest.raises(ValueError):
        FixedSize(0)


def test_lognormal_mean_approx():
    dist = LogNormalSize(mean=16 * KIB, sigma=4 * KIB)
    rng = random.Random(2)
    samples = [dist.sample(rng) for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert 0.85 * 16 * KIB < mean < 1.25 * 16 * KIB


def test_lognormal_clamps_and_granularity():
    dist = LogNormalSize(mean=4 * KIB, sigma=64 * KIB, lo=1 * KIB, hi=32 * KIB)
    rng = random.Random(3)
    for _ in range(500):
        s = dist.sample(rng)
        assert 1 * KIB <= s <= 32 * KIB
        assert s % KIB == 0


def test_lognormal_zero_sigma_degenerates():
    dist = LogNormalSize(mean=8 * KIB, sigma=0)
    rng = random.Random(4)
    assert all(dist.sample(rng) == 8 * KIB for _ in range(10))


def test_lognormal_validation():
    with pytest.raises(ValueError):
        LogNormalSize(mean=0, sigma=1)
    with pytest.raises(ValueError):
        LogNormalSize(mean=1024, sigma=-1)
    with pytest.raises(ValueError):
        LogNormalSize(mean=1024, sigma=0, lo=10, hi=5)


def test_uniform_keys_in_range():
    dist = UniformKeys(100)
    rng = random.Random(5)
    samples = {dist.sample(rng) for _ in range(2000)}
    assert min(samples) >= 0 and max(samples) < 100
    assert len(samples) > 80  # covers most of the space


def test_distribution_validation():
    with pytest.raises(ValueError):
        UniformKeys(0)
    with pytest.raises(ValueError):
        ExponentialArrivals(0.0)


# ---------------------------------------------------------------------------
# Batched streams
# ---------------------------------------------------------------------------

def test_fixed_size_block():
    assert FixedSize(4096).sample_block(random.Random(1), 5) == [4096] * 5


def test_lognormal_block_matches_distribution():
    dist = LogNormalSize(mean=16 * KIB, sigma=4 * KIB)
    samples = dist.sample_block(random.Random(2), 4000)
    mean = sum(samples) / len(samples)
    assert 0.85 * 16 * KIB < mean < 1.25 * 16 * KIB
    assert all(dist.lo <= s <= dist.hi and s % KIB == 0 for s in samples)


def test_lognormal_block_zero_sigma():
    dist = LogNormalSize(mean=8 * KIB, sigma=0)
    assert dist.sample_block(random.Random(3), 4) == [8 * KIB] * 4


def test_uniform_keys_block_in_range():
    samples = UniformKeys(100).sample_block(random.Random(5), 2000)
    assert min(samples) >= 0 and max(samples) < 100
    assert len(set(samples)) > 80


def test_exponential_arrivals_mean():
    dist = ExponentialArrivals(rate=200.0)
    rng = random.Random(7)
    gaps = dist.sample_block(rng, 4000)
    assert all(g >= 0 for g in gaps)
    mean = sum(gaps) / len(gaps)
    assert 0.85 * dist.mean < mean < 1.15 * dist.mean
    assert ExponentialArrivals(200.0).sample(random.Random(8)) > 0


def test_uniform01_block_range():
    samples = Uniform01().sample_block(random.Random(9), 1000)
    assert all(0.0 <= u < 1.0 for u in samples)


def test_block_stream_matches_block_draws():
    # Pulling one-at-a-time through the stream replays exactly the
    # block draws: same seed, same block size, same values.
    a = BlockStream(LogNormalSize(16 * KIB, 4 * KIB), random.Random(11), block=64)
    streamed = [a.next() for _ in range(200)]
    rng = random.Random(11)
    dist = LogNormalSize(16 * KIB, 4 * KIB)
    direct = []
    while len(direct) < 200:
        direct.extend(dist.sample_block(rng, 64))
    assert streamed == direct[:200]
    with pytest.raises(ValueError):
        BlockStream(dist, random.Random(1), block=0)


# ---------------------------------------------------------------------------
# Raw IO trial plumbing
# ---------------------------------------------------------------------------

def test_tenant_spec_size_dist():
    spec = TenantSpec("t", 0.5, read_size=4 * KIB, write_size=8 * KIB)
    rng = random.Random(1)
    assert spec.size_dist(OpKind.READ).sample(rng) == 4 * KIB
    assert spec.size_dist(OpKind.WRITE).sample(rng) == 8 * KIB
    varied = TenantSpec("t", 0.5, read_size=4 * KIB, sigma=2 * KIB)
    assert isinstance(varied.size_dist(OpKind.READ), LogNormalSize)


def test_isolated_iops_interpolates():
    mid = isolated_iops("intel320", OpKind.READ, 3 * KIB)
    lo = isolated_iops("intel320", OpKind.READ, 2 * KIB)
    hi = isolated_iops("intel320", OpKind.READ, 4 * KIB)
    assert hi < mid < lo


# ---------------------------------------------------------------------------
# KV generator
# ---------------------------------------------------------------------------

TINY = SsdProfile(name="tiny-kv", channels=4, logical_capacity=96 * MIB, overprovision=1.0)


def make_node():
    sim = Simulator()
    node = StorageNode(
        sim,
        profile=TINY,
        config=NodeConfig(
            capacity_vops=15_000.0,
            engine=EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB),
        ),
        seed=8,
    )
    return sim, node


def test_bootstrap_tenant_serves_gets():
    sim, node = make_node()
    node.add_tenant("t1")
    bootstrap_tenant(node.engines["t1"], 500, 4 * KIB)

    def flow():
        size = yield from node.get("t1", 123)
        assert size == 4 * KIB
        # Exactly one eligible file per key (single-probe GETs).
        assert node.engines["t1"].eligible_count(123) == 1

    proc = sim.process(flow())
    sim.run(until=5.0)
    assert proc.triggered and proc.ok, proc.value


def test_bootstrap_tenant_key_base():
    sim, node = make_node()
    node.add_tenant("t1")
    bootstrap_tenant(node.engines["t1"], 100, 4 * KIB, key_base=5000)

    def flow():
        hit = yield from node.get("t1", 5050)
        miss = yield from node.get("t1", 50)
        assert hit == 4 * KIB and miss is None

    proc = sim.process(flow())
    sim.run(until=5.0)
    assert proc.triggered and proc.ok, proc.value


def test_kv_load_runs_and_samples():
    sim, node = make_node()
    spec = KvTenantSpec(
        name="t1", get_fraction=0.5, get_size=4 * KIB, put_size=4 * KIB,
        sigma=0, n_keys=400, workers=2,
        reservation=Reservation(gets=100, puts=100),
    )
    node.add_tenant("t1", spec.reservation)
    bootstrap_tenant(node.engines["t1"], 400, 4 * KIB)
    load = KvLoad(sim, node, [spec])
    start_kv_load(load, horizon=6.0, seed=3)
    sim.run(until=6.0)
    stats = node.stats("t1")
    assert stats.gets > 0 and stats.puts > 0
    assert len(load.series["get:t1"]) >= 5
    assert "scale" in load.series.names()


def test_kv_load_retarget_switches_mix():
    sim, node = make_node()
    spec = KvTenantSpec(
        name="t1", get_fraction=1.0, get_size=4 * KIB, put_size=4 * KIB,
        sigma=0, n_keys=400, workers=2,
    )
    node.add_tenant("t1")
    bootstrap_tenant(node.engines["t1"], 400, 4 * KIB)
    load = KvLoad(sim, node, [spec])
    start_kv_load(load, horizon=8.0, seed=3)
    sim.run(until=3.0)
    puts_before = node.stats("t1").puts
    assert puts_before == 0  # pure GET so far
    load.retarget(
        KvTenantSpec(
            name="t1", get_fraction=0.0, get_size=4 * KIB, put_size=4 * KIB,
            sigma=0, n_keys=400, workers=2,
        )
    )
    sim.run(until=8.0)
    assert node.stats("t1").puts > 0


def test_kv_load_open_loop_paces_requests():
    # A slow Poisson arrival stream must throttle an open-loop tenant
    # well below what the closed loop sustains.
    def run(arrival_rate):
        sim, node = make_node()
        spec = KvTenantSpec(
            name="t1", get_fraction=1.0, get_size=4 * KIB, put_size=4 * KIB,
            sigma=0, n_keys=400, workers=2, arrival_rate=arrival_rate,
        )
        node.add_tenant("t1")
        bootstrap_tenant(node.engines["t1"], 400, 4 * KIB)
        load = KvLoad(sim, node, [spec])
        start_kv_load(load, horizon=4.0, seed=3)
        sim.run(until=4.0)
        return node.stats("t1").gets

    open_loop = run(arrival_rate=20.0)
    closed_loop = run(arrival_rate=0.0)
    # 2 workers * 20 req/s * 4 s ≈ 160 arrivals; allow generous slack
    assert 0 < open_loop < 260
    assert closed_loop > 2 * open_loop


def test_kv_load_unknown_retarget_rejected():
    sim, node = make_node()
    spec = KvTenantSpec(name="t1", get_fraction=1.0, get_size=4 * KIB, put_size=4 * KIB)
    load = KvLoad(sim, node, [spec])
    with pytest.raises(KeyError):
        load.retarget(
            KvTenantSpec(name="ghost", get_fraction=1.0, get_size=4 * KIB, put_size=4 * KIB)
        )
