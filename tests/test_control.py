"""Tests for the elastic control plane (repro.control): consistent-hash
ring placement, range partition maps, live catch-up-then-cutover
resharding under traffic, map-version monotonicity with concurrent
failover, the load-aware planner, and the tenant churn driver's golden
digests."""

import dataclasses
import hashlib

import pytest

from repro.control.churn import ChurnConfig, _ChurnRunner, run_churn_trial
from repro.control.ring import HashRing
from repro.core import Reservation, reference_calibration
from repro.faults import FaultKind, FaultPlan, FaultWindow, StorageFault
from repro.net import NetConfig
from repro.node import NodeConfig, StorageCluster
from repro.node.router import PartitionMap
from repro.obs import Observability, VopAudit
from repro.sim import Simulator
from repro.ssd import SsdProfile

from .helpers import queue_state

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-ctl", channels=4, logical_capacity=64 * MIB, overprovision=1.0)
KEY_SPACE = 4096
TENANT = "t1"


def make_cluster(sim, n_nodes=4, rf=2, partitions=4, seed=11, obs=None,
                 capacity_vops=20_000.0, **net_kwargs):
    net_kwargs.setdefault("replication_mode", "primary-backup")
    net_kwargs.setdefault("rf", rf)
    net_kwargs.setdefault("write_quorum", rf)
    cluster = StorageCluster(
        sim,
        n_nodes=n_nodes,
        profile=TINY,
        config=NodeConfig(capacity_vops=capacity_vops, cache_bytes=0),
        partitions_per_tenant=partitions,
        seed=seed,
        net=NetConfig(**net_kwargs),
        obs=obs,
    )
    cluster.enable_control(key_space=KEY_SPACE, vnodes=16)
    cluster.add_ranged_tenant(TENANT, Reservation(gets=2000, puts=2000))
    return cluster


def drive(sim, gen, until=120.0):
    out = {}

    def wrapper():
        out["value"] = yield from gen

    proc = sim.process(wrapper())
    sim.run(until=sim.now + until)
    if proc.triggered and not proc.ok:
        raise proc.value
    return out.get("value")


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------


def test_ring_placement_deterministic_and_replicas_distinct():
    nodes = [f"n{i}" for i in range(6)]
    pids = [f"t/{i}" for i in range(32)]
    a = HashRing(nodes, vnodes=32).placement(pids, rf=3)
    b = HashRing(nodes, vnodes=32).placement(pids, rf=3)
    assert a == b  # blake2b points, not process-seeded hash()
    for replicas in a.values():
        assert len(replicas) == 3 and len(set(replicas)) == 3


def test_ring_replica_count_clamped_to_nodes():
    ring = HashRing(["a", "b"], vnodes=16)
    assert len(ring.successors("k", 5)) == 2


def test_ring_errors():
    with pytest.raises(ValueError):
        HashRing([]).successors("k", 1)  # empty ring cannot place
    ring = HashRing(["a"])
    with pytest.raises(ValueError):
        ring.add_node("a")
    with pytest.raises(KeyError):
        ring.remove_node("missing")
    assert "a" in ring and len(ring) == 1


def test_ring_add_node_moves_minimal_fraction():
    nodes = [f"n{i}" for i in range(10)]
    pids = [f"t/{i}" for i in range(256)]
    ring = HashRing(nodes, vnodes=64)
    before = ring.placement(pids, rf=2)
    ring.add_node("n10")
    after = ring.placement(pids, rf=2)
    deltas = HashRing.delta(before, after)
    # Consistent hashing: ~pids/n partitions gain the new node; the
    # rest keep their placement untouched.  Allow generous slack over
    # the 1/11 expectation, but far below full reshuffle.
    assert 0 < len(deltas) < len(pids) // 3
    for delta in deltas:
        assert "n10" in delta.new


def test_ring_remove_node_only_touches_its_partitions():
    nodes = [f"n{i}" for i in range(8)]
    pids = [f"t/{i}" for i in range(128)]
    ring = HashRing(nodes, vnodes=64)
    before = ring.placement(pids, rf=2)
    ring.remove_node("n3")
    after = ring.placement(pids, rf=2)
    for delta in HashRing.delta(before, after):
        assert "n3" in delta.old and "n3" not in delta.new
    for pid, replicas in before.items():
        if "n3" not in replicas:
            assert after[pid] == replicas


# ---------------------------------------------------------------------------
# PartitionMap: range partitions, split, promote edges
# ---------------------------------------------------------------------------


def _ranged_map(n=4, rf=2, nodes=("a", "b", "c", "d")):
    pm = PartitionMap(n)
    ring = HashRing(list(nodes), vnodes=16)
    replica_sets = [ring.successors(f"{TENANT}/{i}", rf) for i in range(n)]
    pm.place_tenant_ranges(TENANT, replica_sets, KEY_SPACE, ring=list(nodes))
    return pm


def test_ranged_partition_of_routes_by_range():
    pm = _ranged_map()
    widths = [p.width for p in pm.partitions(TENANT)]
    assert sum(widths) == KEY_SPACE
    for p in pm.partitions(TENANT):
        assert pm.partition_of(TENANT, p.lo).index == p.index
        assert pm.partition_of(TENANT, p.hi - 1).index == p.index
    with pytest.raises(KeyError):
        pm.partition_of(TENANT, KEY_SPACE)
    with pytest.raises(KeyError):
        pm.partition_of(TENANT, -1)


def test_split_is_one_version_bump_with_stable_ids():
    pm = _ranged_map()
    target = pm.partitions(TENANT)[1]
    v0 = pm.version
    at = (target.lo + target.hi) // 2
    upper = pm.split(TENANT, target.index, at, ("c", "d"))
    assert pm.version == v0 + 1  # atomic: no intermediate map
    lower = pm.get_partition(TENANT, target.index)
    assert (lower.lo, lower.hi) == (target.lo, at)
    assert lower.replicas == target.replicas  # data did not move
    assert (upper.lo, upper.hi) == (at, target.hi)
    assert upper.index == 4  # fresh stable id, not positional
    assert pm.partition_of(TENANT, at).index == upper.index
    assert pm.partition_of(TENANT, at - 1).index == target.index
    with pytest.raises(ValueError):
        pm.split(TENANT, target.index, target.lo, ("a",))  # empty lower


def test_split_point_bounds_and_modhash_rejected():
    pm = _ranged_map()
    p = pm.partitions(TENANT)[0]
    with pytest.raises(ValueError):
        pm.split(TENANT, p.index, p.hi + 1, ("a",))
    mod = PartitionMap(4)
    mod.place_tenant("m", ["a", "b"], rf=2)
    with pytest.raises(ValueError):
        mod.split("m", 0, 1, ("a",))


def test_promote_by_stable_id_preserves_range_after_split():
    pm = _ranged_map()
    target = pm.partitions(TENANT)[2]
    at = (target.lo + target.hi) // 2
    pm.split(TENANT, target.index, at, ("a", "b"))
    # After the split, list position != stable id; promote must still
    # find the right partition and keep its [lo, hi) intact.
    backup = pm.get_partition(TENANT, target.index).replicas[1]
    v0 = pm.version
    pm.promote(TENANT, target.index, backup)
    p = pm.get_partition(TENANT, target.index)
    assert p.node == backup
    assert (p.lo, p.hi) == (target.lo, at)
    assert pm.version == v0 + 1


def test_promote_of_non_replica_raises():
    pm = _ranged_map()
    index = pm.partitions(TENANT)[0].index
    outsider = next(
        n for n in "abcd" if n not in pm.get_partition(TENANT, index).replicas
    )
    v0 = pm.version
    with pytest.raises(ValueError):
        pm.promote(TENANT, index, outsider)
    assert pm.version == v0  # failed promote must not bump the map


def test_promote_and_hints_on_single_node_ring():
    pm = PartitionMap(2)
    pm.place_tenant(TENANT, ["only"], rf=1)
    pm.promote(TENANT, 0, "only")  # self-promote: legal no-op reorder
    assert pm.get_partition(TENANT, 0).node == "only"
    assert pm.hint_candidates(TENANT, 0) == []  # nowhere to spill


def test_hint_candidates_empty_when_rf_covers_cluster():
    pm = PartitionMap(2)
    pm.place_tenant(TENANT, ["a", "b", "c"], rf=3)
    for p in pm.partitions(TENANT):
        assert pm.hint_candidates(TENANT, p.index) == []
    ranged = _ranged_map(n=2, rf=4)
    for p in ranged.partitions(TENANT):
        assert ranged.hint_candidates(TENANT, p.index) == []


def test_set_replicas_is_atomic_cutover():
    pm = _ranged_map()
    target = pm.partitions(TENANT)[0]
    v0 = pm.version
    pm.set_replicas(TENANT, target.index, ("d", "a"))
    assert pm.version == v0 + 1
    p = pm.get_partition(TENANT, target.index)
    assert p.replicas == ("d", "a")
    assert (p.lo, p.hi) == (target.lo, target.hi)


# ---------------------------------------------------------------------------
# Live resharding under traffic
# ---------------------------------------------------------------------------


def test_a_leaderless_cluster_refuses_the_control_plane():
    """Leaderless coordinators neither fence nor tail-capture writes, and
    a migration's applies would bypass the destination's version store:
    ring placement, and with it grow, drain and split, is refused."""
    with pytest.raises(ValueError, match="primary-backup"):
        make_cluster(Simulator(), rf=2, replication_mode="leaderless")


def test_migration_under_writes_loses_nothing_and_audits_clean():
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=4, rf=2, obs=Observability(audit=True)
    )
    client = cluster.make_client()
    expected = {}
    state = {"stop": False, "errors": 0}

    def writer():
        op = 0
        while not state["stop"]:
            op += 1
            key = (op * 97) % KEY_SPACE
            try:
                yield from client.put(TENANT, key, 2 * KIB)
                expected[key] = 2 * KIB
            except StorageFault:
                state["errors"] += 1
            yield sim.timeout(0.004)

    def control():
        yield sim.timeout(0.3)
        target = cluster.partition_map.partitions(TENANT)[0]
        spare = [
            n for n in sorted(cluster.nodes) if n not in target.replicas
        ]
        report = yield from cluster.reshard.migrate(
            TENANT, target.index, (spare[0], target.replicas[0])
        )
        yield sim.timeout(0.3)
        split_report = yield from cluster.split_partition(TENANT, target.index)
        state["stop"] = True
        return report, split_report

    sim.process(writer(), name="writer")
    report, split_report = drive(sim, control(), until=60.0)
    assert report.kind == "move" and split_report.kind == "split"
    moved = cluster.partition_map.get_partition(TENANT, report.index)
    assert moved.replicas[0] == report.new_replicas[0]
    # Every acknowledged write reads back through the post-cutover map.
    missing = []

    def verify():
        check = cluster.make_client()
        for key in sorted(expected):
            got = yield from check.get(TENANT, key)
            if got != expected[key]:
                missing.append(key)

    drive(sim, verify(), until=60.0)
    assert missing == []
    # Migration traffic is charged work: the audit still reconciles.
    for name, node in sorted(cluster.nodes.items()):
        summary = node.audit.summary()
        assert summary["ok"], (name, summary["flags"])
        assert summary["reconciliation"] == pytest.approx(1.0, rel=1e-6)
    cluster.stop()


def test_the_fence_waits_for_a_write_in_flight():
    """A write admitted before the fence but not yet committed holds the
    cutover: the fence waits for it, it rides the final tail (the
    catch-up rounds never saw it), the destination applies it inside
    the fence window, and it reads back from there after the cutover."""
    sim = Simulator()
    # A generous RPC timeout: the held write must not be retried.
    cluster = make_cluster(sim, n_nodes=4, rf=2, rpc_timeout=2.0)
    partition = cluster.partition_map.partitions(TENANT)[0]
    spare = next(n for n in sorted(cluster.nodes) if n not in partition.replicas)
    key = partition.lo + 7
    gate = sim.event()
    seen = {}
    source, dest = cluster.nodes[partition.node], cluster.nodes[spare]
    put, apply_replica = source.put, dest.apply_replica

    def held_put(tenant, k, size, trace=None):
        # Admitted (counted in flight) but held before its engine commit.
        if k == key:
            seen["admitted"] = sim.now
            yield gate
        yield from put(tenant, k, size, trace=trace)

    def logged_apply(tenant, k, size, op="put", trace=None):
        yield from apply_replica(tenant, k, size, op=op, trace=trace)
        seen.setdefault("applied", []).append((k, sim.now))

    source.put, dest.apply_replica = held_put, logged_apply
    client = cluster.make_client()

    def writer():
        yield from client.put(TENANT, key, 3 * KIB)
        seen["acked"] = sim.now

    def release():
        yield sim.timeout(0.3)
        seen["released"] = sim.now
        gate.succeed()

    def control():
        yield sim.timeout(0.05)
        assert "admitted" in seen
        return (yield from cluster.reshard.migrate(
            TENANT, partition.index, (spare, partition.replicas[1])
        ))

    sim.process(writer(), name="writer")
    sim.process(release(), name="release")
    report = drive(sim, control(), until=10.0)
    fence_start = report.cutover_at - report.fence_seconds
    # The fence began while the write was held, and waited for it.
    assert fence_start < seen["released"] <= report.cutover_at
    assert seen["released"] <= seen["acked"]
    # Not in the snapshot, not in a catch-up round: the final tail.
    assert (report.snapshot_records, report.tail_rounds, report.tail_records) == (0, 0, 1)
    [(applied_key, applied_at)] = seen["applied"]
    assert applied_key == key
    assert seen["released"] <= applied_at <= report.cutover_at
    assert cluster.partition_map.get_partition(TENANT, partition.index).node == spare

    def read_back():
        return (yield from cluster.make_client().get(TENANT, key))

    assert drive(sim, read_back(), until=10.0) == 3 * KIB
    cluster.stop()


#: :func:`drain_digest` of the grow-then-drain run below, recorded before
#: the transfer protocol moved behind one module; re-record only for a
#: deliberate model change
GOLDEN_DRAIN = "72d4d6066314704a"


def drain_digest() -> str:
    """Grow a 3-node cluster by one node, then drain ``node0``, with four
    writers in flight throughout (enough to need tail rounds); hash
    every migration report, the final placement, each node's local
    reservation and charged VOPs, and what the writers saw and read
    back."""
    sim = Simulator()
    cluster = make_cluster(sim, n_nodes=3, rf=2, obs=Observability(audit=True))
    client = cluster.make_client()
    expected = {}
    state = {"stop": False, "errors": 0}

    def writer(w):
        op = 0
        while not state["stop"]:
            op += 1
            key = (op * 389 + w * 1031) % KEY_SPACE
            try:
                yield from client.put(TENANT, key, KIB + (op % 7) * 512)
                expected[key] = KIB + (op % 7) * 512
            except StorageFault:
                state["errors"] += 1
            yield sim.timeout(0.001)

    def control():
        yield sim.timeout(1.0)
        grown = yield from cluster.grow("node3")
        drained = yield from cluster.drain_node("node0")
        state["stop"] = True
        return grown, drained

    def read_back():
        check = cluster.make_client()
        sizes = []
        for key in sorted(expected):
            sizes.append((yield from check.get(TENANT, key)))
        return sizes

    for w in range(4):
        sim.process(writer(w), name=f"writer{w}")
    grown, drained = drive(sim, control(), until=60.0)
    sizes = drive(sim, read_back(), until=60.0)
    payload = (
        grown, drained, cluster.partition_map.version,
        [(p.index, p.lo, p.hi, p.replicas) for p in cluster.partition_map.partitions(TENANT)],
        {
            name: (
                node.policy.reservation(TENANT),
                round(node.scheduler.usage(TENANT).vops, 6),
                node.audit.summary()["ok"],
            )
            for name, node in sorted(cluster.nodes.items())
        },
        len(expected), state["errors"],
        sizes == [expected[key] for key in sorted(expected)],
    )
    cluster.stop()
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def test_grow_then_drain_matches_its_golden_digest():
    assert drain_digest() == GOLDEN_DRAIN


def test_grow_and_drain_roundtrip_keeps_data():
    sim = Simulator()
    cluster = make_cluster(sim, n_nodes=3, rf=2)
    client = cluster.make_client()

    def work():
        for key in range(0, KEY_SPACE, 256):
            yield from client.put(TENANT, key, KIB)
        yield from cluster.grow("node3")
        yield from cluster.drain_node("node0")
        sizes = []
        for key in range(0, KEY_SPACE, 256):
            sizes.append((yield from client.get(TENANT, key)))
        return sizes

    sizes = drive(sim, work())
    assert sizes == [KIB] * (KEY_SPACE // 256)
    for p in cluster.partition_map.partitions(TENANT):
        assert "node0" not in p.replicas  # fully drained
    assert "node3" in cluster.nodes and cluster.membership.is_live("node3")
    assert not cluster.membership.is_live("node0")
    cluster.stop()


def test_a_partial_failover_keeps_its_record_and_resplits():
    """node1 leads partitions 1 (backup node0) and 3 (backup node2), and
    node2 is cut off while the detector asks for applied sequences:
    partition 1 is promoted, partition 3 keeps its dead primary until a
    later sweep.  The first record is kept with its one promotion, and
    the promoted node's reservation follows its new primary share at
    once rather than after the retry."""
    sim = Simulator()
    plan = FaultPlan(seed=1).add(
        FaultWindow(FaultKind.NET_PARTITION, 1.3, 1.75, groups=(("node2",),))
    )
    cluster = make_cluster(
        sim, n_nodes=3, rf=2, heartbeat_interval=0.05, suspicion_timeout=0.5,
        rpc_timeout=0.05, rpc_retries=1, fault_plan=plan,
    )
    pm = cluster.partition_map
    assert [(p.index, p.replicas) for p in pm.partitions(TENANT) if p.node == "node1"] == [
        (1, ("node1", "node0")), (3, ("node1", "node2")),
    ]
    before = cluster.nodes["node0"].policy.reservation(TENANT)

    def killer():
        yield sim.timeout(1.0)
        cluster.kill_node("node1")

    sim.process(killer(), name="killer")
    sim.run(until=1.75)
    [record] = cluster.detector.failovers
    assert record.node == "node1"
    assert [(t, pid, node) for t, pid, node, _seq in record.promotions] == [(TENANT, 1, "node0")]
    assert pm.get_partition(TENANT, 3).node == "node1"
    after = cluster.nodes["node0"].policy.reservation(TENANT)
    assert after == Reservation(
        gets=2000 * pm.primary_weight(TENANT, "node0"),
        puts=2000 * pm.replica_weight(TENANT, "node0"),
    )
    assert after.gets > before.gets
    # After the heal the retry promotes the rest in a record of its own.
    sim.run(until=2.5)
    assert [rec.promotions[0][:3] for rec in cluster.detector.failovers] == [
        (TENANT, 1, "node0"), (TENANT, 3, "node2"),
    ]
    cluster.stop()


def test_map_version_monotonic_under_concurrent_failover_and_reshard():
    sim = Simulator()
    cluster = make_cluster(sim, n_nodes=6, rf=2, seed=13)
    pm = cluster.partition_map
    client = cluster.make_client()
    # Victim: the primary of the last partition; migrate a partition
    # the victim has nothing to do with, so both control actions are
    # genuinely concurrent on one map.
    victim = pm.partitions(TENANT)[-1].node
    source = next(
        p for p in pm.partitions(TENANT) if victim not in p.replicas
    )
    targets = tuple(
        n for n in sorted(cluster.nodes)
        if n not in source.replicas and n != victim
    )[:2]
    versions = []
    state = {"errors": 0}

    def writer():
        op = 0
        while sim.now < 6.0:
            op += 1
            try:
                yield from client.put(TENANT, (op * 131) % KEY_SPACE, KIB)
            except StorageFault:
                state["errors"] += 1
            yield sim.timeout(0.01)

    def sampler():
        while sim.now < 8.0:
            versions.append(pm.version)
            yield sim.timeout(0.02)

    def migrate():
        yield sim.timeout(0.5)
        return (yield from cluster.reshard.migrate(TENANT, source.index, targets))

    def killer():
        # Land inside the migration's catch-up window so the failover
        # bump and the cutover bump genuinely interleave.
        yield sim.timeout(0.51)
        cluster.kill_node(victim)

    sim.process(writer(), name="writer")
    sim.process(sampler(), name="sampler")
    sim.process(killer(), name="killer")
    report = drive(sim, migrate(), until=30.0)
    sim.run(until=sim.now + 5.0)
    assert report is not None and report.map_version > 0
    # The failover promoted a survivor away from the dead primary...
    assert pm.partitions(TENANT)[-1].node != victim
    # ...the cutover installed the new placement...
    assert pm.get_partition(TENANT, source.index).replicas == targets
    # ...and the interleaved bumps never went backwards.
    assert versions == sorted(versions)
    assert versions[-1] > versions[0]
    cluster.stop()


# ---------------------------------------------------------------------------
# Churn: the tenant lifecycle on event-driven nodes
# ---------------------------------------------------------------------------

CHURN = ChurnConfig(
    n_nodes=6, n_tenants=80, horizon=60.0, arrival_rate=3.0,
    mean_lifetime=30.0, rebalance_interval=12.0, seed=19,
)

#: 4 nodes at ~60 % utilisation with 70 % writes: GC runs on every node
#: while tens of thousands of tasks go through the schedulers
CHURN_LOADED = ChurnConfig(
    n_nodes=4, n_tenants=60, horizon=30.0, base_rate=900.0,
    read_fraction=0.3, rebalance_interval=5.0,
)

#: :func:`churn_digest` of each config's run: any change to the arrival
#: replay, placement, rebalancing or scheduling moves it
GOLDEN = {"churn": "cd074aaba7db00bb", "churn_loaded": "1650dc69e00e933a"}


def churn_digest(result) -> str:
    payload = (
        result.agreement_key(), result.total_vops,
        [dataclasses.astuple(a) for a in result.actions],
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def churn():
    return run_churn_trial(CHURN)


@pytest.fixture(scope="module")
def churn_loaded():
    """The loaded run and its runner, whose nodes the checks inspect."""
    runner = _ChurnRunner(CHURN_LOADED)
    return runner, runner.finish()


def test_churn_matches_its_golden_digest_across_map_changes(churn):
    assert churn.map_version > 0  # rebalances actually happened
    assert churn_digest(churn) == GOLDEN["churn"]


def test_loaded_churn_matches_its_golden_digest_through_multi_node_gc(churn_loaded):
    runner, result = churn_loaded
    assert churn_digest(result) == GOLDEN["churn_loaded"]
    assert result.total_tasks > 5_000 and result.map_version == 5
    gc_runs = {name: node.device.stats.gc_runs for name, node in runner.nodes.items()}
    assert all(gc_runs.values()), gc_runs
    # drained before the schedulers stopped: nothing queued or in flight
    assert not runner._busy()


def test_churn_deterministic_and_seed_sensitive(churn):
    assert run_churn_trial(CHURN).agreement_key() == churn.agreement_key()
    c = run_churn_trial(dataclasses.replace(CHURN, seed=20))
    assert c.agreement_key() != churn.agreement_key()


def test_churn_population_accounting(churn):
    assert 0 < churn.admitted <= CHURN.n_tenants
    assert 0 <= churn.departed <= churn.admitted
    assert churn.total_tasks == sum(tasks for tasks, _ops, _bytes in churn.usage.values())
    assert churn.total_bytes > 0
    kinds = {a.kind for a in churn.actions}
    assert {"arrive", "depart", "rebalance"} <= kinds


def test_churn_drain_waits_for_commands_parked_in_nvme_sqs():
    """Commands parked for a command tag hold their SQ slot, so the end
    of run drain keeps stepping until they complete even with every
    scheduler queue empty."""
    runner = _ChurnRunner(dataclasses.replace(CHURN, n_nodes=1, profile="nvme"))
    device = runner.nodes["n0"].device
    for i in range(160):  # 8 submitters, over the 64 command tags
        device.submit(True, i * 4 * KIB, 4 * KIB, (None, f"x{i % 8}"), lambda *_: None, None)
    assert sum(queue_state(device)["tag_wait"]) > 0
    assert runner.nodes["n0"].backlog == 0
    assert runner._busy()
    runner.sim.step_while(runner._busy)
    assert sum(queue_state(device)["tag_wait"]) == 0 and device.in_flight == 0


def test_churn_runs_on_a_custom_profile():
    """A custom :class:`SsdProfile` is calibrated on first use, as
    ``reference_calibration`` documents, not looked up by its name."""
    runner = _ChurnRunner(dataclasses.replace(CHURN, n_nodes=2, horizon=20.0, profile=TINY))
    calibration = reference_calibration(TINY)
    for node in runner.nodes.values():
        assert node.cost_model.calibration is calibration
        assert node.device.profile is TINY
    result = runner.finish()
    assert result.admitted > 0 and result.total_tasks > 0


#: small churn scenarios, each at a different corner of the driver: one
#: node (no peer to rebalance to), no scheduled rebalances, read-only
#: tenants (nothing written, so a move ships no bytes), multi-chunk
#: writes, and three partitions per tenant on NVMe devices
SHAPE = ChurnConfig(
    n_nodes=3, n_tenants=30, horizon=20.0, arrival_rate=3.0,
    mean_lifetime=10.0, rebalance_interval=4.0, seed=5,
)
SHAPES = {
    "one-node": dataclasses.replace(SHAPE, n_nodes=1),
    "no-rebalance": dataclasses.replace(SHAPE, rebalance_interval=0.0),
    "read-only": dataclasses.replace(SHAPE, read_fraction=1.0),
    "multichunk-writes": dataclasses.replace(
        SHAPE, read_fraction=0.5, read_size=16 * KIB, write_size=300 * KIB,
    ),
    "nvme-three-partitions": dataclasses.replace(
        SHAPE, partitions_per_tenant=3, profile="nvme",
    ),
}


@pytest.fixture(scope="module", params=list(SHAPES))
def shape_run(request):
    """``(config, runner, result, audits)`` for one :data:`SHAPES` run,
    with a :class:`VopAudit` on every node's scheduler and device."""
    config = SHAPES[request.param]
    runner = _ChurnRunner(config)
    audits = {}
    for name, node in runner.nodes.items():
        audits[name] = VopAudit(node.cost_model)
        audits[name].attach(node, node.device)
    submitted = []

    def logged(submit, kind, node):
        def call(offset, size, tag=None, done=None):
            submitted.append((runner.sim.now, tag.tenant, kind, node))
            return submit(offset, size, tag=tag, done=done)

        return call

    for name, node in runner.nodes.items():
        for kind in ("read", "write"):
            setattr(node, kind, logged(getattr(node, kind), kind, name))
    result = runner.finish()
    runner.submitted = submitted
    return config, runner, result, audits


def test_churn_shape_accounting_balances(shape_run):
    """Totals are the per-(node, tenant) sums; each tenant's tasks split
    into whole reads and writes of the configured sizes; the action log
    is in time order and counts what the result reports; the drain left
    nothing queued or in flight."""
    config, runner, result, _audits = shape_run
    usage = result.usage.values()
    assert result.total_tasks == sum(tasks for tasks, _o, _b in usage) > 0
    assert result.total_ops == sum(ops for _t, ops, _b in usage)
    assert result.total_bytes == sum(nbytes for _t, _o, nbytes in usage)
    chunk = runner.nodes["n0"].config.chunk_size
    read_chunks = -(-config.read_size // chunk)
    write_chunks = -(-config.write_size // chunk)
    for (node, tenant), (tasks, ops, nbytes) in result.usage.items():
        counters = runner.nodes[node].usage(tenant)
        reads, rest = divmod(counters.read_ops, read_chunks)
        writes, rest2 = divmod(counters.write_ops, write_chunks)
        assert rest == rest2 == 0 and reads + writes == tasks
        assert ops == reads * read_chunks + writes * write_chunks
        assert nbytes == reads * config.read_size + writes * config.write_size
    times = [a.at for a in result.actions]
    assert times == sorted(times)
    kinds = [a.kind for a in result.actions]
    assert kinds.count("arrive") == result.admitted
    assert kinds.count("depart") == result.departed
    assert kinds.count("rebalance") == result.rebalances == result.moved_partitions
    assert result.map_version == result.rebalances
    assert not runner._busy()


def test_churn_shape_charges_reconcile_with_the_audit(shape_run):
    """Every chunk a node's scheduler charged was dispatched, completed
    and seen by its device at the model's price."""
    _config, _runner, result, audits = shape_run
    for name, audit in audits.items():
        summary = audit.summary()
        assert summary["ok"], (name, summary["flags"])
        assert summary["reconciliation"] == pytest.approx(1.0, abs=1e-9)
    charged = sum(audit.charged for audit in audits.values())
    assert charged == pytest.approx(result.total_vops, rel=1e-12)


def test_churn_shape_submits_each_op_in_order_inside_its_tenants_life(shape_run):
    """Ops reach the schedulers in global time order, only between a
    tenant's arrival and its departure (or the horizon), and only on a
    node the tenant is registered with."""
    config, runner, result, _audits = shape_run
    submitted = runner.submitted
    assert len(submitted) == result.total_tasks
    times = [at for at, _t, _k, _n in submitted]
    assert times == sorted(times)
    lives = {t.name: (t.arrive_at, min(t.depart_at, config.horizon)) for t in runner.tenants}
    for at, tenant, kind, node in submitted:
        arrive, end = lives[tenant]
        assert arrive < at < end
        assert tenant in runner.registered[node]
    if config.read_fraction == 1.0:
        assert {kind for _a, _t, kind, _n in submitted} == {"read"}


def test_churn_shape_replays_identically(shape_run):
    config, _runner, result, _audits = shape_run
    assert churn_digest(run_churn_trial(config)) == churn_digest(result)


def test_churn_rebalances_only_when_scheduled_and_there_is_a_peer():
    for name in ("one-node", "no-rebalance"):
        result = run_churn_trial(SHAPES[name])
        assert result.admitted > 0
        assert result.rebalances == result.map_version == result.moved_bytes == 0
        assert all(a.kind != "rebalance" for a in result.actions)
    assert run_churn_trial(SHAPE).rebalances > 0


def test_read_only_churn_moves_ownership_but_ships_no_bytes():
    result = run_churn_trial(SHAPES["read-only"])
    assert result.rebalances > 0
    assert result.moved_bytes == 0


@pytest.mark.parametrize("nparts", [1, 2, 3, 5])
def test_place_maps_one_draw_to_a_slot_and_an_in_range_page(nparts):
    """``_place`` splits one U[0,1) draw into the partition slot and a
    page-aligned offset that keeps the op inside the device, and books
    written bytes to the slot (reads book nothing)."""
    runner = _ChurnRunner(dataclasses.replace(SHAPE, partitions_per_tenant=nparts))
    tenant = runner.tenants[0]
    tenant.owners = [f"n{j % SHAPE.n_nodes}" for j in range(nparts)]
    size = 16 * KIB
    draws = [k / 997 for k in range(997)] + [1.0 - 1e-12]
    for u in draws:
        slot = min(int(u * nparts), nparts - 1)
        for is_read in (True, False):
            node, offset = runner._place(tenant, is_read, size, u)
            assert node is runner.nodes[tenant.owners[slot]]
            assert offset % runner.page == 0
            assert 0 <= offset and offset + size <= runner.capacity
    assert sorted(runner.part_bytes) == [(tenant.tid, j) for j in range(nparts)]
    assert sum(runner.part_bytes.values()) == len(draws) * size


# ---------------------------------------------------------------------------
# scalefig determinism
# ---------------------------------------------------------------------------


#: the whole grow cell below hashed, recorded at the commit before the
#: experiments' verifiers became a shared helper; re-record only for a
#: deliberate model change
GOLDEN_GROW_CELL = "2746a0a68f0e72a8"


def test_scalefig_grow_cell_deterministic_and_lossless():
    from repro.experiments import scalefig

    args = ("intel320", scalefig.SMOKE, 4242)
    a = scalefig._run_grow(args)
    b = scalefig._run_grow(args)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert a.lost == 0 and a.verified and a.audit_ok
    assert a.migrations > 0 and a.map_version > 0
    assert hashlib.sha256(repr(a).encode()).hexdigest()[:16] == GOLDEN_GROW_CELL


def test_in_place_split_scans_nothing_and_keeps_racing_writes():
    """An in-place split (the upper half stays on the same replicas)
    ships nothing: it reports 0 snapshot records and charges the source
    no scan (counted as a GET there), while writes racing it through the
    fence all read back."""
    sim = Simulator()
    cluster = make_cluster(sim, n_nodes=4, rf=2)
    client = cluster.make_client()
    expected = {}
    state = {"stop": False}
    target = cluster.partition_map.partitions(TENANT)[0]
    source = cluster.nodes[target.node]

    def writer():
        op = 0
        while not state["stop"]:
            op += 1
            key = target.lo + (op * 7) % (target.hi - target.lo)
            try:
                yield from client.put(TENANT, key, 2 * KIB)
                expected[key] = 2 * KIB
            except StorageFault:
                pass
            yield sim.timeout(0.002)

    def control():
        yield sim.timeout(0.2)
        gets = source.request_stats[TENANT].gets
        report = yield from cluster.reshard.split(TENANT, target.index)
        state["stop"] = True
        return report, source.request_stats[TENANT].gets - gets

    sim.process(writer(), name="writer")
    report, scans = drive(sim, control(), until=60.0)
    assert report.kind == "split" and report.snapshot_records == 0
    assert scans == 0
    assert expected
    missing = []

    def verify():
        check = cluster.make_client()
        for key in sorted(expected):
            got = yield from check.get(TENANT, key)
            if got != expected[key]:
                missing.append(key)

    drive(sim, verify(), until=60.0)
    assert missing == []
    cluster.stop()
