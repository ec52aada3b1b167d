"""Cross-commit golden digests for the KV node stack.

``tests/test_determinism.py`` pins same-seed identity *within* a commit;
across commits the only check of the request path node -> engine ->
filesystem -> Libra scheduler -> device was kvbench's ``sim_digest``,
which is not tier-1.  The digests below were recorded at the commit
before the device-op path was fused (three-function scheduler pump,
page-by-page FTL map updates); a change to scheduler, FTL or device that
moves any simulated number moves a digest.  ``put_heavy`` (and
``traced/spans`` below) was re-recorded when an op arriving while the
GC loop runs came to be timed at its submission, like any other, where
a process had timed it one event later in the same instant.

``REWIRED`` and ``CLUSTERS`` pin the paths those four healthy, untraced,
single-node scenarios never reach, recorded at the commit before the
request path above the scheduler was rewritten (per-tenant request
context, closure-free ``_execute``, shared accounting): the retry loop,
checksum re-reads and the crash wait (``faulted``), the per-attempt
budget race (``budgeted``), trace-id allocation and every span
(``traced``), cache invalidation (``deletes``), and ``apply_replica`` /
``read_replica`` under both replication modes.

``cluster/primary-backup/quorum-read`` pins the client's quorum read
(every GET to each live replica, the chain-senior reply kept), recorded
at the commit before the read fan-outs stopped starting a process per
replica.

``cluster/chaos`` pins the message path those fault-free clusters never
take, recorded at the commit before replica shipping and backup applies
became scheduled continuations: the replicated run of
``tests/test_determinism.py`` (MSG_DROP/DUP/DELAY windows, a node kill,
failover through ``repl.seq``, duplicate applies and the out-of-order
apply buffer), hashed whole.

``FAILOVER_CELL`` pins a reduced ``clusterfig`` rf=3 cell, recorded
while every action still took a heap entry: see
:func:`test_failover_cell_digest_matches_the_parent`.

Re-record only for a deliberate model change, and say so in the PR:

    PYTHONPATH=src python -m tests.test_node_golden
"""

import hashlib
import random
from typing import NamedTuple, Optional

import pytest

from .helpers import count_calls, force_policy_path
from .test_determinism import _replicated_run
from repro.core import Reservation
from repro.engine import EngineConfig
from repro.experiments import clusterfig
from repro.faults import FaultKind, FaultPlan, FaultWindow, StorageFault
from repro.net import NetConfig
from repro.node import NodeConfig, StorageCluster, StorageNode
from repro.node.tenant import RequestStats
from repro.obs import Observability, Tracer
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


class Scenario(NamedTuple):
    tenants: tuple  # (name, weight)
    keys: int  # preloaded per tenant
    value_bytes: int
    clients: int  # per tenant
    read: tuple  # (read op, read fraction)
    seconds: float  # simulated
    config: NodeConfig
    #: top slice of the non-read draws that DELETE instead of PUT
    delete_frac: float = 0.0
    #: (kind, start, end, probability), seconds after the preload
    faults: tuple = ()
    #: (tenant, crash at, restart at), seconds after the preload
    crash: Optional[tuple] = None
    traced: bool = False


SCENARIOS = {
    # four live DDRR queues; the small tree flushes the preload, so GETs
    # reach the device instead of ending in the memtable
    "get_heavy": Scenario(FOUR, 1000, KIB, 2, (GET, 0.95), 0.5, NodeConfig(engine=SMALL_TREE)),
    # saturated small device: WAL group commit, FLUSH, COMPACT, chunked
    # 256 KiB IO, whole-file TRIMs and FTL GC all cycle
    "put_heavy": Scenario(FOUR, 300, 4 * KIB, 2, (GET, 0.2), 1.5, NodeConfig(engine=SMALL_TREE)),
    "scan_put": Scenario(ONE, 1500, KIB, 4, (SCAN, 0.9), 0.5, NodeConfig(engine=SMALL_TREE)),
    "cached": Scenario(ONE, 3000, 4 * KIB, 4, (GET, 0.9), 0.5, NodeConfig(cache_bytes=8 * MIB)),
}

GOLDEN = {
    "get_heavy": "f0a19fd2b5ae98d9",
    "put_heavy": "dde550e8b6b0133b",
    "scan_put": "413af32f494baf64",
    "cached": "60879d8b5b27d0f5",
}

#: the request paths ``SCENARIOS`` does not reach
REWIRED = {
    # retry loop with backoff, checksum re-reads that clear and that
    # exhaust, and requests parked on a crashed tenant
    "faulted": Scenario(
        FOUR, 600, 2 * KIB, 2, (GET, 0.7), 0.5, NodeConfig(engine=SMALL_TREE, max_retries=3),
        faults=(
            (FaultKind.READ_ERROR, 0.02, 0.16, 0.3),
            (FaultKind.WRITE_ERROR, 0.12, 0.26, 0.3),
            (FaultKind.CORRUPT_READ, 0.22, 0.40, 0.6),
        ),
        crash=("t0", 0.30, 0.36),
    ),
    # a 1.5 ms budget on a saturated device: some attempts expire in
    # ``_bounded``'s Process/Timeout/AnyOf race and are interrupted
    "budgeted": Scenario(
        FOUR, 300, 4 * KIB, 2, (GET, 0.3), 0.4,
        NodeConfig(engine=SMALL_TREE, request_timeout=0.0015, max_retries=6),
    ),
    "traced": Scenario(
        FOUR, 600, 2 * KIB, 2, (GET, 0.7), 0.3, NodeConfig(engine=SMALL_TREE), traced=True,
    ),
    # cache on over a tree that reaches SSTables: fills, write-through
    # updates and invalidations interleave
    "deletes": Scenario(
        ONE, 1500, 4 * KIB, 4, (GET, 0.7), 0.5,
        NodeConfig(cache_bytes=2 * MIB, engine=SMALL_TREE), delete_frac=0.1,
    ),
}

#: 3 nodes, rf=3: every acknowledged write is an ``apply_replica`` on
#: two backups; leaderless quorum reads are ``read_replica`` calls, and
#: a primary-backup ``read_quorum`` above 1 sends each GET to every
#: live replica (the client's quorum read)
CLUSTERS = {
    "primary-backup": NetConfig(rf=3),
    "primary-backup/quorum-read": NetConfig(rf=3, read_quorum=2),
    "leaderless": NetConfig(
        rf=3, replication_mode="leaderless", read_quorum=2, write_quorum=2,
    ),
}

GOLDEN_REWIRED = {
    "faulted": "e909ed9302b551eb",
    "budgeted": "74661a137a999d43",
    "traced": "1cbc58eb32594b19",
    "deletes": "59cfe5e9a3a03c32",
    "traced/spans": "32331:a05de9238da0aa9b",
    "cluster/primary-backup": "b34928c1d2eff905-337ff96cd1d2ad26-f446093362fdb16e",
    "cluster/leaderless": "d7dc979e4ad63d69-18d39da02021d714-e239fc495368ce66",
    "cluster/primary-backup/quorum-read": "4a6202f8efe3a828-01735186a5cf745b-d4d581e2f7f48f12",
    "cluster/chaos": "00fcbe3a68c86519",
}

#: ``clusterfig``'s rf=3 cell cut to 5 simulated seconds: two tenants,
#: ``node0`` killed at 2 s, the detector's failover with its four
#: promotions, and the read-back of every acknowledged write
#: (re-recorded when ``post_kill_rate`` stopped counting the acks that
#: land after the horizon, during the read-back: mx0 188 -> 185/s and
#: wh0 134 -> 130/s are the only difference from fedb8f18011168e3)
FAILOVER_CELL = (3, clusterfig.ClusterTimeline(kill_at=2.0, horizon=5.0), "intel320", 17)
GOLDEN_FAILOVER = "b3ce1edab4742f37"


def _value_size(sc, key):
    return sc.value_bytes - 16 * (key % 8)


def _client(target, rng, tenant, sc, until):
    """Closed loop against a node or a cluster client (same verbs)."""
    sim = target.sim
    read_op, read_frac = sc.read
    while sim.now < until:
        # Squared uniform: a skew towards low keys, so the cache hits
        key = int(sc.keys * rng.random() ** 2)
        draw = rng.random()
        try:
            if draw >= 1.0 - sc.delete_frac:
                yield from target.delete(tenant, key)
            elif draw >= read_frac:
                yield from target.put(tenant, key, _value_size(sc, key))
            elif read_op == SCAN:
                yield from target.scan(tenant, key, key + 64, limit=32)
            else:
                yield from target.get(tenant, key)
        except StorageFault:
            pass  # surfaced after the retries; RequestStats.errors has it


def _loader(target, tenant, sc, lane, lanes):
    for key in range(lane, sc.keys, lanes):
        yield from target.put(tenant, key, _value_size(sc, key))


def _preload(sim, sc, target):
    loaders = [
        sim.process(_loader(target, tenant, sc, lane, 4))
        for tenant, _weight in sc.tenants for lane in range(4)
    ]
    sim.step_while(lambda: any(proc.is_alive for proc in loaders))
    assert all(proc.ok for proc in loaders)


def _crash_and_restart(node, tenant, crash_at, restart_at):
    yield node.sim.timeout(crash_at)
    node.crash(tenant)
    yield node.sim.timeout(restart_at - crash_at)
    yield from node.restart(tenant)


def run_scenario(name, policy_path=False):
    """Preload, run the closed-loop clients, return the finished node."""
    sc = SCENARIOS[name] if name in SCENARIOS else REWIRED[name]
    sim = Simulator()
    # The windows open relative to the end of the preload, so the plan
    # starts empty and is filled once that instant is known.
    plan = FaultPlan(seed=5) if sc.faults else None
    obs = Observability(tracer=Tracer()) if sc.traced else None
    node = StorageNode(sim, profile=SMALL, config=sc.config, seed=11, fault_plan=plan, obs=obs)
    for tenant, weight in sc.tenants:
        node.add_tenant(tenant, Reservation(gets=1500.0 * weight, puts=500.0 * weight))
    if policy_path:
        force_policy_path(node)
    _preload(sim, sc, node)
    for kind, start, end, probability in sc.faults:
        plan.add(FaultWindow(kind, sim.now + start, sim.now + end, probability=probability))
    if sc.crash is not None:
        sim.process(_crash_and_restart(node, *sc.crash))
    until = sim.now + sc.seconds
    for t_idx, (tenant, _weight) in enumerate(sc.tenants):
        for c_idx in range(sc.clients):
            rng = random.Random(f"golden:{name}:{t_idx}:{c_idx}")
            sim.process(_client(node, rng, tenant, sc, until))
    sim.run(until=until + 0.25)
    node.stop()
    return node


#: the cluster runs' workload: half GETs, 45% PUTs, 5% DELETEs, cache on
CLUSTER_LOAD = Scenario(
    (("t0", 2), ("t1", 1)), 400, 4 * KIB, 3, (GET, 0.5), 0.4,
    NodeConfig(cache_bytes=1 * MIB, engine=SMALL_TREE), delete_frac=0.05,
)


def run_cluster(mode):
    """Preload through a client, run closed-loop clients, return the cluster."""
    sc = CLUSTER_LOAD
    sim = Simulator()
    cluster = StorageCluster(
        sim, n_nodes=3, profile=SMALL, config=sc.config, partitions_per_tenant=6,
        seed=11, net=CLUSTERS[mode],
    )
    for tenant, weight in sc.tenants:
        cluster.add_tenant(tenant, Reservation(gets=1500.0 * weight, puts=500.0 * weight))
    _preload(sim, sc, cluster.make_client("preload"))
    until = sim.now + sc.seconds
    for t_idx, (tenant, _weight) in enumerate(sc.tenants):
        for c_idx in range(sc.clients):
            rng = random.Random(f"golden:{mode}:{t_idx}:{c_idx}")
            sim.process(_client(cluster.make_client(), rng, tenant, sc, until))
    sim.run(until=until + 0.25)
    cluster.stop()
    return cluster


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


def span_digest(tracer) -> str:
    """Span count plus every span's name, layer, track, tenant,
    interval and trace id, in recording order."""
    spans = [span[:7] for span in tracer.spans]
    return f"{len(spans)}:{hashlib.sha256(repr(spans).encode()).hexdigest()[:16]}"


def run_all() -> dict:
    """Every scenario: ``{name: node}``."""
    return {name: run_scenario(name) for name in SCENARIOS}


def rewired_digests(nodes, clusters) -> dict:
    digests = {name: node_digest(node) for name, node in nodes.items()}
    digests["traced/spans"] = span_digest(nodes["traced"].tracer)
    for mode, cluster in clusters.items():
        digests[f"cluster/{mode}"] = "-".join(
            node_digest(node) for node in cluster.nodes.values()
        )
    digests["cluster/chaos"] = hashlib.sha256(
        repr(_replicated_run(seed=9)).encode()
    ).hexdigest()[:16]
    return digests


@pytest.fixture(scope="module")
def nodes():
    return run_all()


@pytest.fixture(scope="module")
def rewired():
    return {name: run_scenario(name) for name in REWIRED}


@pytest.fixture(scope="module")
def clusters():
    return {mode: run_cluster(mode) for mode in CLUSTERS}


def _assert_golden(digests, golden):
    report = "\n".join(
        f"  {k}: {v}{'' if golden.get(k) == v else f'  != golden {golden.get(k)}'}"
        for k, v in digests.items()
    )
    assert digests == golden, f"per-scenario digests:\n{report}"


def test_golden_digests_match_the_parent(nodes):
    _assert_golden({key: node_digest(node) for key, node in nodes.items()}, GOLDEN)


def test_rewired_path_digests_match_the_parent(rewired, clusters):
    _assert_golden(rewired_digests(rewired, clusters), GOLDEN_REWIRED)


#: rerun with every attempt sent through the failure-policy generators
POLICY_PATH = ("get_heavy", "faulted", "deletes")


def test_policy_path_gives_the_inline_path_digests():
    """A request makes its first attempt in ``StorageNode``'s and
    ``LsmEngine.get``'s own frames and enters ``_execute`` or
    ``_read_verified`` only after a fault (or while its tenant is down,
    under a budget, or traced).  Routing every attempt through them
    instead lands on the same digests: healthy GETs and PUTs, retries,
    re-reads and crash waits, and cache fills."""
    golden = {**GOLDEN_REWIRED, "get_heavy": GOLDEN["get_heavy"]}
    _assert_golden(
        {name: node_digest(run_scenario(name, policy_path=True)) for name in POLICY_PATH},
        {name: golden[name] for name in POLICY_PATH},
    )


def test_only_a_fault_enters_the_policy_generators():
    """Both paths stay exercised: healthy runs never enter the policy
    generators, the faulted one does, and so does a forced run."""

    def entered(name, **kwargs):
        return count_calls(
            lambda: run_scenario(name, **kwargs),
            ("/repro/node/server.py", "/repro/engine/db.py"),
            functions=("_execute", "_read_verified"),
        )

    assert entered("get_heavy") == entered("deletes") == 0
    assert entered("faulted") > 100
    assert entered("get_heavy", policy_path=True) > 1000


def failover_digest() -> str:
    return hashlib.sha256(repr(clusterfig._run_cell(FAILOVER_CELL)).encode()).hexdigest()[:16]


def test_failover_cell_digest_matches_the_parent():
    """The whole cell (acks, losses, latency percentiles, SLO, detection
    time, promotions, write amplification, RPC round trips) hashed.

    This seed's run twice delivers a ``repl.apply`` at the instant a
    multi-extent file IO's join is queued.  The kernel runs an
    instant's heap actions before what is queued during it; a kernel
    that ran its FIFO first would let the apply's continuation overtake
    the join, and this digest would move."""
    assert failover_digest() == GOLDEN_FAILOVER


def test_put_heavy_scenario_reaches_flush_compaction_and_ftl_gc(nodes):
    """The digest only pins what the scenario exercises."""
    node = nodes["put_heavy"]
    engine = [node.engines[tenant].stats for tenant in node.tenants]
    assert sum(stats.flushes for stats in engine) > 4
    assert sum(stats.compactions for stats in engine) > 0
    assert node.device.stats.gc_runs > 10
    assert node.device.stats.trims > 0


def _total(node, field):
    return sum(getattr(node.request_stats[tenant], field) for tenant in node.tenants)


def test_rewired_scenarios_reach_the_paths_they_pin(rewired, clusters):
    faulted = rewired["faulted"]
    engine = [faulted.engines[tenant].stats for tenant in faulted.tenants]
    assert _total(faulted, "retries") > 20
    assert _total(faulted, "errors") > 0  # some requests exhaust their retries
    assert faulted.request_stats["t0"].crashes == 1
    assert faulted.request_stats["t0"].crash_waits > 0
    assert sum(stats.read_retries for stats in engine) > 10  # re-reads that cleared
    assert sum(stats.recoveries for stats in engine) == 1
    assert faulted.device.stats.write_faults > 0

    budgeted = rewired["budgeted"]
    assert _total(budgeted, "timeouts") > 10
    assert _total(budgeted, "puts") > 100  # and most requests still complete

    traced = rewired["traced"]
    names = {span[0] for span in traced.tracer.spans}
    assert {"get", "put", "sst.value", "wal.commit"} <= names, names

    deletes = rewired["deletes"]
    assert _total(deletes, "deletes") > 50
    assert 0 < _total(deletes, "cache_hits") < _total(deletes, "gets")
    assert sum(deletes.engines[t].stats.flushes for t in deletes.tenants) > 0

    for mode, cluster in clusters.items():
        for node in cluster.nodes.values():
            assert _total(node, "repl_applies") > 100, mode
            assert (_total(node, "repl_reads") > 50) == (mode == "leaderless"), mode


if __name__ == "__main__":
    for key, node in run_all().items():
        print(f'    "{key}": "{node_digest(node)}",')
    print("GOLDEN_REWIRED")
    for key, value in rewired_digests(
        {name: run_scenario(name) for name in REWIRED},
        {mode: run_cluster(mode) for mode in CLUSTERS},
    ).items():
        print(f'    "{key}": "{value}",')
    print(f'GOLDEN_FAILOVER = "{failover_digest()}"')
