"""Tests for the elastic control plane (repro.control): consistent-hash
ring placement, range partition maps, live catch-up-then-cutover
resharding under traffic, map-version monotonicity with concurrent
failover, the load-aware planner, and FF-vs-DES exact agreement in the
tenant churn driver."""

import dataclasses

import pytest

from repro.control.churn import ChurnConfig, run_churn_trial
from repro.control.ring import HashRing
from repro.core import Reservation
from repro.faults import StorageFault
from repro.net import NetConfig
from repro.node import NodeConfig, StorageCluster
from repro.node.router import PartitionMap
from repro.obs import Observability
from repro.sim import Simulator
from repro.ssd import SsdProfile

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
# Churn: fast-forward vs event-by-event
# ---------------------------------------------------------------------------

CHURN = ChurnConfig(
    n_nodes=6, n_tenants=80, horizon=60.0, arrival_rate=3.0,
    mean_lifetime=30.0, rebalance_interval=12.0, seed=19,
)


def test_churn_ff_matches_des_exactly_across_map_changes():
    ff = run_churn_trial(CHURN, fast_forward=True)
    des = run_churn_trial(CHURN, fast_forward=False)
    assert ff.map_version > 0  # rebalances actually happened
    assert ff.agreement_key() == des.agreement_key()
    assert ff.ff_seconds > 0.9 * CHURN.horizon  # mostly analytic
    assert des.ff_seconds == 0.0


def test_churn_deterministic_and_seed_sensitive():
    a = run_churn_trial(CHURN)
    b = run_churn_trial(CHURN)
    assert a.agreement_key() == b.agreement_key()
    c = run_churn_trial(dataclasses.replace(CHURN, seed=20))
    assert c.agreement_key() != a.agreement_key()


def test_churn_population_accounting():
    result = run_churn_trial(CHURN)
    assert 0 < result.admitted <= CHURN.n_tenants
    assert 0 <= result.departed <= result.admitted
    assert result.total_tasks == result.ff_tasks + result.des_tasks
    assert result.total_bytes > 0
    kinds = {a.kind for a in result.actions}
    assert {"arrive", "depart", "rebalance"} <= kinds


# ---------------------------------------------------------------------------
# scalefig determinism
# ---------------------------------------------------------------------------


def test_scalefig_grow_cell_deterministic_and_lossless():
    from repro.experiments import scalefig

    args = ("intel320", scalefig.SMOKE, 4242)
    a = scalefig._run_grow(args)
    b = scalefig._run_grow(args)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert a.lost == 0 and a.verified and a.audit_ok
    assert a.migrations > 0 and a.map_version > 0
