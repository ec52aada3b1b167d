"""Cross-commit golden digests for the KV node stack.

``tests/test_determinism.py`` pins same-seed identity *within* a commit;
across commits the only check of the request path node -> engine ->
filesystem -> Libra scheduler -> device was kvbench's ``sim_digest``,
which is not tier-1.  The digests below were recorded at the commit
before the device-op path was fused (three-function scheduler pump,
page-by-page FTL map updates); a change to scheduler, FTL or device that
moves any simulated number moves a digest.  Every scenario also runs
with each op forced down the device's coroutine path.  The two
executors book the same plan, so three scenarios land on one digest
either way; on the saturated ``put_heavy`` device a coroutine op's
first step is itself an event, same-instant reservations interleave
with the GC loop in another order, and that trajectory has its own
digest.  Re-record only for a deliberate model change, and say so in
the PR:

    PYTHONPATH=src python -m tests.test_node_golden
"""

import hashlib
import random

import pytest

from .helpers import force_coroutine_path
from repro.core import Reservation
from repro.engine import EngineConfig
from repro.node import NodeConfig, StorageNode
from repro.node.tenant import RequestStats
from repro.sim import Simulator
from repro.ssd import get_profile

KIB = 1024
MIB = 1024 * KIB
SMALL = get_profile("intel320").with_capacity(64 * MIB)
#: a tree small enough that FLUSH and COMPACT both fire within a second
SMALL_TREE = EngineConfig(
    memtable_bytes=256 * KIB, level1_bytes=1 * MIB, max_output_file_bytes=256 * KIB,
)
FOUR = (("t0", 4), ("t1", 2), ("t2", 1), ("t3", 1))
ONE = (("t0", 1),)

GET, PUT, SCAN = "get", "put", "scan"

#: name -> tenants (name, weight), preloaded keys per tenant, value
#: bytes, clients per tenant, (read op, read fraction), simulated
#: seconds, node config
SCENARIOS = {
    # four live DDRR queues; the small tree flushes the preload, so GETs
    # reach the device instead of ending in the memtable
    "get_heavy": (FOUR, 1000, KIB, 2, (GET, 0.95), 0.5, NodeConfig(engine=SMALL_TREE)),
    # saturated small device: WAL group commit, FLUSH, COMPACT, chunked
    # 256 KiB IO, whole-file TRIMs and FTL GC all cycle
    "put_heavy": (FOUR, 300, 4 * KIB, 2, (GET, 0.2), 1.5, NodeConfig(engine=SMALL_TREE)),
    "scan_put": (ONE, 1500, KIB, 4, (SCAN, 0.9), 0.5, NodeConfig(engine=SMALL_TREE)),
    "cached": (ONE, 3000, 4 * KIB, 4, (GET, 0.9), 0.5, NodeConfig(cache_bytes=8 * MIB)),
}

GOLDEN = {
    "get_heavy/fast": "f0a19fd2b5ae98d9",
    "get_heavy/coroutine": "f0a19fd2b5ae98d9",
    "put_heavy/fast": "d1abb54e1eb07f92",
    "put_heavy/coroutine": "958c1381412c2800",
    "scan_put/fast": "413af32f494baf64",
    "scan_put/coroutine": "413af32f494baf64",
    "cached/fast": "60879d8b5b27d0f5",
    "cached/coroutine": "60879d8b5b27d0f5",
}


def _client(node, rng, tenant, keys, value_bytes, read_op, read_frac, until):
    sim = node.sim
    while sim.now < until:
        # Squared uniform: a skew towards low keys, so the cache hits
        key = int(keys * rng.random() ** 2)
        if rng.random() >= read_frac:
            yield from node.put(tenant, key, value_bytes - 16 * (key % 8))
        elif read_op == SCAN:
            yield from node.scan(tenant, key, key + 64, limit=32)
        else:
            yield from node.get(tenant, key)


def _loader(node, tenant, keys, value_bytes, lane, lanes):
    for key in range(lane, keys, lanes):
        yield from node.put(tenant, key, value_bytes - 16 * (key % 8))


def run_scenario(name, coroutine_path=False):
    """Preload, run the closed-loop clients, return the finished node."""
    tenants, keys, value_bytes, clients, (read_op, read_frac), seconds, config = SCENARIOS[name]
    sim = Simulator()
    node = StorageNode(sim, profile=SMALL, config=config, seed=11)
    if coroutine_path:
        force_coroutine_path(node.device)
    for tenant, weight in tenants:
        node.add_tenant(tenant, Reservation(gets=1500.0 * weight, puts=500.0 * weight))
    loaders = [
        sim.process(_loader(node, tenant, keys, value_bytes, lane, 4))
        for tenant, _weight in tenants for lane in range(4)
    ]
    sim.step_while(lambda: any(proc.is_alive for proc in loaders))
    assert all(proc.ok for proc in loaders)
    until = sim.now + seconds
    for t_idx, (tenant, _weight) in enumerate(tenants):
        for c_idx in range(clients):
            rng = random.Random(f"golden:{name}:{t_idx}:{c_idx}")
            sim.process(_client(
                node, rng, tenant, keys, value_bytes, read_op, read_frac, until,
            ))
    sim.run(until=until + 0.25)
    node.stop()
    return node


def node_digest(node) -> str:
    payload = [
        sorted(node.device.stats.as_dict().items()),
        node.device.ftl.write_seq,
        node.device.ftl.emergency_gcs,
        node.scheduler.rounds,
        node.scheduler.forced_rounds,
        node.sim.now,
    ]
    for tenant in node.tenants:
        stats = node.request_stats[tenant]
        latencies = node.latencies[tenant]
        payload.append((
            tenant,
            [getattr(stats, field) for field in RequestStats.FIELDS],
            sorted(vars(node.scheduler.usage(tenant)).items()),
            sorted(vars(node.engines[tenant].stats).items()),
            [
                (kind, latencies.count(kind), latencies.mean(kind),
                 latencies.percentile(kind, 99))
                for kind in latencies.kinds()
            ],
        ))
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def run_all() -> dict:
    """Every scenario on both executors: ``{"name/executor": node}``."""
    return {
        f"{name}/{'coroutine' if coroutine_path else 'fast'}": run_scenario(name, coroutine_path)
        for name in SCENARIOS for coroutine_path in (False, True)
    }


@pytest.fixture(scope="module")
def nodes():
    return run_all()


def test_golden_digests_match_the_parent(nodes):
    digests = {key: node_digest(node) for key, node in nodes.items()}
    report = "\n".join(
        f"  {k}: {v}{'' if GOLDEN.get(k) == v else f'  != golden {GOLDEN.get(k)}'}"
        for k, v in digests.items()
    )
    assert digests == GOLDEN, f"per-scenario digests:\n{report}"


def test_put_heavy_scenario_reaches_flush_compaction_and_ftl_gc(nodes):
    """The digest only pins what the scenario exercises."""
    node = nodes["put_heavy/fast"]
    engine = [node.engines[tenant].stats for tenant in node.tenants]
    assert sum(stats.flushes for stats in engine) > 4
    assert sum(stats.compactions for stats in engine) > 0
    assert node.device.stats.gc_runs > 10
    assert node.device.stats.trims > 0


if __name__ == "__main__":
    for key, node in run_all().items():
        print(f'    "{key}": "{node_digest(node)}",')
