"""Tests for the storage node stack, cache, partition map, and cluster."""

import pytest

from repro.core import Reservation
from repro.engine import EngineConfig
from repro.node import (
    NodeConfig,
    ObjectCache,
    PartitionMap,
    StorageCluster,
    StorageNode,
)
from repro.sim import Simulator
from repro.ssd import SsdProfile

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-node", channels=4, logical_capacity=64 * MIB, overprovision=1.0)


def make_node(**config_kwargs):
    sim = Simulator()
    config = NodeConfig(
        capacity_vops=20_000.0,
        engine=EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB),
        **config_kwargs,
    )
    node = StorageNode(sim, profile=TINY, config=config, seed=4)
    return sim, node


def drive(sim, gen, until=30.0):
    proc = sim.process(gen)
    sim.run(until=until)
    assert proc.triggered, "request deadlocked"
    assert proc.ok, proc.value
    return proc.value


# ---------------------------------------------------------------------------
# ObjectCache
# ---------------------------------------------------------------------------

def test_cache_hit_miss_and_lru():
    cache = ObjectCache(10 * KIB)
    assert cache.get("t", 1) is None
    cache.put("t", 1, 4 * KIB)
    cache.put("t", 2, 4 * KIB)
    assert cache.get("t", 1) == 4 * KIB  # refresh key 1
    cache.put("t", 3, 4 * KIB)  # evicts key 2 (LRU)
    assert cache.get("t", 2) is None
    assert cache.get("t", 1) == 4 * KIB
    assert cache.bytes <= cache.capacity_bytes


def test_cache_oversized_object_not_cached():
    cache = ObjectCache(4 * KIB)
    cache.put("t", 1, 8 * KIB)
    assert cache.get("t", 1) is None


def test_cache_tenant_namespacing():
    cache = ObjectCache(64 * KIB)
    cache.put("a", 1, 1 * KIB)
    assert cache.get("b", 1) is None


def test_cache_invalidate():
    cache = ObjectCache(64 * KIB)
    cache.put("a", 1, 1 * KIB)
    cache.invalidate("a", 1)
    assert cache.get("a", 1) is None
    assert cache.bytes == 0


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        ObjectCache(0)


# ---------------------------------------------------------------------------
# StorageNode
# ---------------------------------------------------------------------------

def test_node_put_get_roundtrip():
    sim, node = make_node()
    node.add_tenant("t1", Reservation(gets=100, puts=100))

    def flow():
        yield from node.put("t1", 5, 4 * KIB)
        size = yield from node.get("t1", 5)
        assert size == 4 * KIB

    drive(sim, flow())
    stats = node.stats("t1")
    assert stats.puts == 1 and stats.gets == 1
    assert stats.put_units == pytest.approx(4.0)
    assert stats.get_units == pytest.approx(4.0)


def test_node_unknown_tenant_rejected():
    sim, node = make_node()
    with pytest.raises(KeyError):
        list(node.get("ghost", 1))


def test_node_duplicate_tenant_rejected():
    _sim, node = make_node()
    node.add_tenant("t1")
    with pytest.raises(ValueError):
        node.add_tenant("t1")


def test_node_cache_serves_repeat_gets():
    sim, node = make_node(cache_bytes=1 * MIB)
    node.add_tenant("t1")

    def flow():
        yield from node.put("t1", 9, 2 * KIB)
        yield from node.get("t1", 9)  # cache hit (write-through)
        yield from node.get("t1", 9)

    drive(sim, flow())
    assert node.stats("t1").cache_hits == 2
    assert node.engines["t1"].stats.gets == 0  # never reached the engine


def test_node_delete_invalidates_cache():
    sim, node = make_node(cache_bytes=1 * MIB)
    node.add_tenant("t1")

    def flow():
        yield from node.put("t1", 9, 2 * KIB)
        yield from node.delete("t1", 9)
        result = yield from node.get("t1", 9)
        assert result is None

    drive(sim, flow())


def test_node_policy_provisions_from_reservations():
    sim, node = make_node()
    node.add_tenant("t1", Reservation(gets=0, puts=500))
    node.add_tenant("t2", Reservation(gets=0, puts=500))

    def writers(tenant, base):
        for i in range(200):
            yield from node.put(tenant, base + i, 4 * KIB)

    sim.process(writers("t1", 0))
    sim.process(writers("t2", 10_000))
    sim.run(until=5.0)
    # After a few policy intervals both tenants have live allocations.
    assert node.scheduler.allocation("t1") > 0
    assert node.scheduler.allocation("t2") > 0


def test_node_set_reservation_updates_policy():
    sim, node = make_node()
    node.add_tenant("t1", Reservation(puts=100))
    node.set_reservation("t1", Reservation(puts=300))
    assert node.policy.reservation("t1").puts == 300
    assert node.tenants["t1"].reservation.puts == 300


def test_node_stop_quiesces():
    sim, node = make_node()
    node.add_tenant("t1")
    node.stop()
    sim.run(until=3.0)
    assert sim.queue_size == 0


# ---------------------------------------------------------------------------
# PartitionMap / Cluster
# ---------------------------------------------------------------------------

def test_partition_map_round_robin():
    pm = PartitionMap(partitions_per_tenant=4)
    pm.place_tenant("t", ["n0", "n1"])
    assert pm.partitions_on("t", "n0") == 2
    assert pm.partitions_on("t", "n1") == 2
    assert pm.node_of("t", 0) == "n0"
    assert pm.node_of("t", 1) == "n1"
    assert set(pm.nodes_of("t")) == {"n0", "n1"}


def test_partition_map_unplaced_tenant():
    pm = PartitionMap()
    with pytest.raises(KeyError):
        pm.node_of("ghost", 1)


def test_cluster_splits_reservation():
    sim = Simulator()
    cluster = StorageCluster(
        sim,
        n_nodes=2,
        profile=TINY,
        config=NodeConfig(
            capacity_vops=20_000.0,
            engine=EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB),
        ),
        partitions_per_tenant=4,
    )
    cluster.add_tenant("t1", Reservation(gets=400, puts=200))
    for node in cluster.nodes.values():
        local = node.policy.reservation("t1")
        assert local.gets == pytest.approx(200)
        assert local.puts == pytest.approx(100)


def test_cluster_routes_and_aggregates():
    sim = Simulator()
    cluster = StorageCluster(
        sim,
        n_nodes=2,
        profile=TINY,
        config=NodeConfig(
            capacity_vops=20_000.0,
            engine=EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB),
        ),
        partitions_per_tenant=4,
    )
    cluster.add_tenant("t1", Reservation(gets=100, puts=100))
    client = cluster.make_client()

    def flow():
        for key in range(8):
            yield from client.put("t1", key, 2 * KIB)
        for key in range(8):
            size = yield from client.get("t1", key)
            assert size == 2 * KIB

    proc = sim.process(flow())
    sim.run(until=30.0)
    assert proc.triggered and proc.ok, getattr(proc, "value", None)
    total = cluster.total_stats("t1")
    assert total.puts == 8 and total.gets == 8
    # Both nodes served requests (keys alternate partitions).
    per_node = [node.stats("t1").puts for node in cluster.nodes.values()]
    assert all(count > 0 for count in per_node)
