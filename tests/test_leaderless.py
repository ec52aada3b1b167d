"""Tests for the leaderless replication mode: vector-clock laws
(property-based), sloppy quorums with hinted handoff, read repair,
anti-entropy convergence, the client staleness fix, retry-jitter
determinism, and VOP-audit reconciliation under repair traffic."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Reservation
from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.net import NetConfig, VectorClock, Version, VersionStore, reconcile
from repro.net.versioning import AFTER, BEFORE, CONCURRENT, EQUAL
from repro.node import NodeConfig, PartitionMap, StorageCluster
from repro.obs import Observability, Tracer
from repro.sim import Simulator
from repro.ssd import SsdProfile

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-ll", channels=4, logical_capacity=64 * MIB, overprovision=1.0)

NODES = st.sampled_from(["a", "b", "c", "d"])
CLOCKS = st.builds(
    VectorClock,
    st.lists(st.tuples(NODES, st.integers(min_value=0, max_value=5)), max_size=8),
)


def make_cluster(sim, n_nodes=3, partitions=4, seed=11, reservation=None, obs=None,
                 **net_kwargs):
    net_kwargs.setdefault("replication_mode", "leaderless")
    net_kwargs.setdefault("rf", min(3, n_nodes))
    cluster = StorageCluster(
        sim,
        n_nodes=n_nodes,
        profile=TINY,
        config=NodeConfig(capacity_vops=20_000.0),
        partitions_per_tenant=partitions,
        seed=seed,
        net=NetConfig(**net_kwargs),
        obs=obs,
    )
    cluster.add_tenant("t1", reservation or Reservation(gets=2000, puts=2000))
    return cluster


# ---------------------------------------------------------------------------
# Vector-clock laws (property-based)
# ---------------------------------------------------------------------------


@given(CLOCKS, CLOCKS)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(CLOCKS, CLOCKS, CLOCKS)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(CLOCKS)
def test_merge_idempotent(a):
    assert a.merge(a) == a


@given(CLOCKS, CLOCKS)
def test_merge_descends_both_inputs(a, b):
    merged = a.merge(b)
    assert merged.descends(a) and merged.descends(b)


@given(CLOCKS)
def test_compare_reflexive(a):
    assert a.compare(a) == EQUAL
    assert a.descends(a)


@given(CLOCKS, CLOCKS)
def test_compare_antisymmetric(a, b):
    """The relation flips under argument swap; CONCURRENT and EQUAL
    are symmetric — together: compare() encodes a partial order."""
    flipped = {AFTER: BEFORE, BEFORE: AFTER, EQUAL: EQUAL, CONCURRENT: CONCURRENT}
    assert b.compare(a) == flipped[a.compare(b)]
    if a.descends(b) and b.descends(a):
        assert a == b


@given(CLOCKS, CLOCKS, CLOCKS)
def test_descends_transitive(a, b, c):
    if a.descends(b) and b.descends(c):
        assert a.descends(c)


@given(CLOCKS, NODES)
def test_bump_strictly_after(a, node):
    bumped = a.bump(node)
    assert bumped.compare(a) == AFTER
    assert not a.descends(bumped)


@given(CLOCKS, CLOCKS)
def test_concurrent_is_symmetric(a, b):
    if a.compare(b) == CONCURRENT:
        assert b.compare(a) == CONCURRENT


# ---------------------------------------------------------------------------
# reconcile / VersionStore
# ---------------------------------------------------------------------------


def _v(clock_items, size=KIB, op="put", stamp=(1.0, "a", 1)):
    return Version(clock=VectorClock(clock_items), size=size, op=op, stamp=stamp)


def _store(node):
    """A version store over a four-partition mod-hash map of ``t1``."""
    pm = PartitionMap(4)
    pm.place_tenant("t1", ["a"])
    return VersionStore(node, pm)


def test_reconcile_drops_dominated():
    old = _v([("a", 1)], size=1, stamp=(1.0, "a", 1))
    new = _v([("a", 2)], size=2, stamp=(2.0, "a", 2))
    winner, survivors = reconcile([old, new])
    assert winner is new and survivors == [new]
    # order independence
    winner2, survivors2 = reconcile([new, old])
    assert (winner2, survivors2) == (winner, survivors)


def test_reconcile_keeps_concurrent_siblings_and_lww_winner():
    left = _v([("a", 1)], size=1, stamp=(1.0, "a", 1))
    right = _v([("b", 1)], size=2, stamp=(2.0, "b", 1))
    winner, survivors = reconcile([left, right])
    assert len(survivors) == 2  # nothing silently discarded
    assert winner is right  # explicit last-writer-wins tiebreak


def test_reconcile_empty():
    assert reconcile([]) == (None, [])


def test_store_insert_rejects_dominated():
    store = _store("a")
    newer = _v([("a", 2)], stamp=(2.0, "a", 2))
    assert store.insert("t1", 7, newer)
    assert not store.insert("t1", 7, _v([("a", 1)], stamp=(1.0, "a", 1)))
    assert store.stale_inserts == 1
    assert store.get("t1", 7) == (newer,)


def test_next_clock_supersedes_all_siblings():
    store = _store("c")
    store.insert("t1", 3, _v([("a", 1)]))
    store.insert("t1", 3, _v([("b", 1)], stamp=(2.0, "b", 1)))
    assert len(store.get("t1", 3)) == 2
    fresh = store.next_clock("t1", 3)
    for sibling in store.get("t1", 3):
        assert fresh.compare(sibling.clock) == AFTER
    # folding the superseding write back in collapses the conflict set
    store.insert("t1", 3, _v(fresh.items(), stamp=(3.0, "c", 1)))
    winner, siblings = store.resolve("t1", 3)
    assert siblings == 1 and winner.stamp == (3.0, "c", 1)


def test_digest_identical_stores_match_and_divergence_narrows():
    left, right = _store("a"), _store("b")
    for key in range(0, 64, 4):  # all in partition 0 of 4
        version = _v([("a", key + 1)], stamp=(float(key), "a", key))
        left.insert("t1", key, version)
        right.insert("t1", key, version)
    assert left.digest("t1", 0, 8) == right.digest("t1", 0, 8)
    right.insert("t1", 12, _v([("b", 1)], stamp=(99.0, "b", 1)))
    root_l, buckets_l = left.digest("t1", 0, 8)
    root_r, buckets_r = right.digest("t1", 0, 8)
    assert root_l != root_r
    divergent = [i for i, (x, y) in enumerate(zip(buckets_l, buckets_r)) if x != y]
    assert divergent == [12 % 8]


def test_tombstone_resolution():
    store = _store("a")
    store.insert("t1", 5, _v([("a", 1)], size=KIB, stamp=(1.0, "a", 1)))
    store.insert("t1", 5, _v([("a", 2)], size=0, op="delete", stamp=(2.0, "a", 2)))
    winner, _siblings = store.resolve("t1", 5)
    assert winner.tombstone


KEY_SPACE = 256


@settings(max_examples=60, deadline=None)
@given(
    keys=st.sets(st.integers(min_value=0, max_value=KEY_SPACE - 1), max_size=48),
    partitions=st.integers(min_value=1, max_value=6),
    ranged=st.booleans(),
    split=st.integers(min_value=0, max_value=KEY_SPACE),
)
def test_store_partitions_follow_the_partition_map(keys, partitions, ranged, split):
    # The store's per-partition listing, digest and fingerprint hold
    # exactly the keys PartitionMap.partition_of sends to that
    # partition: mod-hash, or key ranges after a split.
    pm = PartitionMap(partitions)
    if ranged:
        pm.place_tenant_ranges("t1", [("a",)] * partitions, KEY_SPACE)
        first = pm.partitions("t1")[0]
        if first.hi - first.lo > 1:
            pm.split("t1", first.index, first.lo + 1 + split % (first.hi - first.lo - 1),
                     ("b",))
    else:
        pm.place_tenant("t1", ["a", "b"])
    pm.place_tenant("t2", ["a"])
    store = VersionStore("a", pm)
    for key in keys:
        store.insert("t1", key, _v([("a", key + 1)], stamp=(float(key), "a", key)))
        store.insert("t2", key % 8, _v([("a", key + 1)], stamp=(float(key), "a", key)))
    grouped = {p.index: [] for p in pm.partitions("t1")}
    for key in sorted(keys):
        grouped[pm.partition_of("t1", key).index].append(key)
    for pid, expected in grouped.items():
        assert store.keys_in("t1", pid) == expected
        assert store.fingerprint("t1", pid) == tuple(
            (key, tuple(v.key() for v in store.get("t1", key))) for key in expected
        )
        # the same keys alone, all in one partition, digest the same
        alone = PartitionMap(1)
        alone.place_tenant("t1", ["a"])
        reference = VersionStore("a", alone)
        for key in expected:
            for version in store.get("t1", key):
                reference.insert("t1", key, version)
        assert store.digest("t1", pid, 8) == reference.digest("t1", 0, 8)


# ---------------------------------------------------------------------------
# Leaderless end-to-end: quorums, handoff, repair, anti-entropy
# ---------------------------------------------------------------------------


def drive(sim, gen, until=120.0):
    out = {}

    def wrapper():
        out["value"] = yield from gen

    proc = sim.process(wrapper())
    sim.run(until=sim.now + until)
    if proc.triggered and not proc.ok:
        raise proc.value
    return out.get("value")


def test_leaderless_put_get_roundtrip_counts_replica_traffic():
    sim = Simulator()
    cluster = make_cluster(sim, write_quorum=2, read_quorum=2)

    def work():
        client = cluster.make_client()
        for key in range(12):
            yield from client.put("t1", key, 2 * KIB)
        sizes = []
        for key in range(12):
            sizes.append((yield from client.get("t1", key)))
        return sizes

    sizes = drive(sim, work())
    assert sizes == [2 * KIB] * 12
    total = cluster.total_stats("t1")
    assert total.puts == 12
    assert total.repl_applies >= 12  # remote quorum members applied
    assert total.repl_reads > 0  # quorum reads consulted replicas
    assert cluster.converged("t1")


def _isolation_plan(node, start, end):
    return FaultPlan(seed=5).add(
        FaultWindow(FaultKind.NET_PARTITION, start, end, groups=((node,),))
    )


def test_sloppy_quorum_survives_isolated_replica_with_hints():
    """A severed home replica never blocks W=2 writes: acks spill to a
    hint holder, and every acked version is conserved — held on enough
    replicas or parked in a hint queue — until handoff drains it."""
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=4, write_quorum=2, read_quorum=1, seed=13,
        heartbeat_interval=0.1, suspicion_timeout=0.4,
        rpc_timeout=0.1, rpc_retries=1, rpc_backoff=0.05,
        hint_interval=0.3, anti_entropy_interval=1e6,
        fault_plan=_isolation_plan("node0", 0.0, 6.0),
    )
    acked = {}

    def writer():
        client = cluster.make_client()
        for key in range(24):
            acked[key] = yield from client.put("t1", key, 2 * KIB)
            # conservation: the version is on replicas or in hint
            # queues, in total at least the acked quorum
            holders = sum(
                1 for s in cluster.services.values()
                if s.holds_version("t1", key, acked[key])
            )
            hinted = sum(
                1
                for s in cluster.services.values()
                for target in cluster.nodes
                if s.hinted_for(target, "t1", key, acked[key])
            )
            assert holders + hinted >= 2, (key, holders, hinted)

    sim.process(writer())
    sim.run(until=6.0)
    assert len(acked) == 24  # the cut never stalled the writer
    assert sum(s.hints_stored for s in cluster.services.values()) > 0

    sim.run(until=20.0)  # heal + handoff
    assert not any(s.hints for s in cluster.services.values())
    assert sum(s.handoffs_received for s in cluster.services.values()) > 0
    for key, version in acked.items():
        holders = sum(
            1 for s in cluster.services.values()
            if s.holds_version("t1", key, version)
        )
        assert holders >= 2, (key, holders)


@settings(max_examples=8, deadline=None)
@given(
    cut=st.sampled_from(["node0", "node1", "node2"]),
    keys=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=10),
)
def test_hinted_handoff_conservation_property(cut, keys):
    """For any isolated node and write sequence, every acked W=2 write
    is conserved across live replicas plus hint queues at ack time."""
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, write_quorum=2, read_quorum=1, seed=29,
        rpc_timeout=0.1, rpc_retries=1, rpc_backoff=0.05,
        hint_interval=1e6, anti_entropy_interval=1e6,
        fault_plan=_isolation_plan(cut, 0.0, 1e6),
    )
    violations = []

    def writer():
        client = cluster.make_client()
        for index, key in enumerate(keys):
            version = yield from client.put("t1", key, KIB + index * 256)
            holders = sum(
                1 for s in cluster.services.values()
                if s.holds_version("t1", key, version)
            )
            hinted = sum(
                1
                for s in cluster.services.values()
                for target in cluster.nodes
                if s.hinted_for(target, "t1", key, version)
            )
            if holders + hinted < 2:
                violations.append((key, holders, hinted))

    sim.process(writer())
    sim.run(until=60.0)
    assert not violations


def test_read_repair_patches_stale_replica():
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, write_quorum=1, read_quorum=3, seed=17,
        rpc_timeout=0.1, rpc_retries=1, rpc_backoff=0.05,
        hint_interval=1e6, anti_entropy_interval=1e6,  # repair only
        fault_plan=_isolation_plan("node2", 0.0, 2.0),
    )
    acked = {}

    def writer():
        client = cluster.make_client()
        for key in range(8):
            acked[key] = yield from client.put("t1", key, 2 * KIB)

    sim.process(writer())
    sim.run(until=2.5)  # writes landed while node2 was severed
    stale = [
        key for key, version in acked.items()
        if not cluster.services["node2"].holds_version("t1", key, version)
    ]
    assert stale  # node2 missed versions while cut

    def reader():
        client = cluster.make_client()
        for key in sorted(acked):
            size = yield from client.get("t1", key)
            assert size == 2 * KIB

    sim.process(reader())
    sim.run(until=10.0)
    assert sum(s.read_repairs_sent for s in cluster.services.values()) > 0
    assert cluster.services["node2"].repairs_received > 0
    sim.run(until=12.0)  # let in-flight pushes land
    for key, version in acked.items():
        assert cluster.services["node2"].holds_version("t1", key, version)


def test_anti_entropy_converges_cold_divergence():
    """With handoff and read repair disabled, background digest
    exchange alone drains the divergence an isolation window creates."""
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, write_quorum=1, read_quorum=1, seed=23,
        rpc_timeout=0.1, rpc_retries=1, rpc_backoff=0.05,
        hint_interval=1e6, anti_entropy_interval=0.5,
        fault_plan=_isolation_plan("node1", 0.0, 2.0),
    )

    def writer():
        client = cluster.make_client()
        for key in range(10):
            yield from client.put("t1", key, 2 * KIB)

    sim.process(writer())
    sim.run(until=2.0)
    assert cluster.divergent_partitions("t1")  # the cut left gaps

    sim.run(until=30.0)
    assert cluster.converged("t1")
    services = list(cluster.services.values())
    assert sum(s.ae_rounds for s in services) > 0
    assert sum(s.ae_pushed for s in services) > 0
    assert sum(s.ae_received for s in services) > 0
    assert sum(s.ae_mismatches for s in services) > 0


def test_failover_detector_revives_instead_of_promoting():
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, write_quorum=2, read_quorum=1, seed=31,
        heartbeat_interval=0.1, suspicion_timeout=0.3,
        fault_plan=_isolation_plan("node0", 1.0, 3.0),
    )
    map_version = cluster.partition_map.version
    sim.run(until=2.0)
    assert not cluster.membership.is_live("node0")  # suspected
    assert not cluster.detector.failovers  # but never promoted around
    sim.run(until=6.0)
    assert cluster.membership.is_live("node0")  # revived after heal
    assert cluster.membership.revivals >= 1
    assert cluster.partition_map.version == map_version  # map untouched


def test_leaderless_reservation_split_weights_quorums():
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, partitions=6, rf=3, write_quorum=2, read_quorum=2,
        reservation=Reservation(gets=900, puts=900),
    )
    for node in cluster.nodes.values():
        local = node.policy.reservation("t1")
        # every node replicates every partition (rf == n); a get fans
        # to R of rf replicas, a put writes all rf.
        assert local.gets == pytest.approx(900.0 * 2 / 3)
        assert local.puts == pytest.approx(900.0)


# ---------------------------------------------------------------------------
# Satellites: retry jitter determinism, client staleness fix, audit
# ---------------------------------------------------------------------------


def _jitter_run(seed):
    plan = FaultPlan(seed=7).add(
        FaultWindow(FaultKind.MSG_DROP, 0.0, 4.0, probability=0.25)
    )
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, write_quorum=2, read_quorum=2, seed=seed,
        rpc_timeout=0.1, rpc_retries=3, rpc_backoff=0.05, rpc_jitter=0.25,
        fault_plan=plan,
    )
    outcomes = []

    def work():
        client = cluster.make_client()
        for key in range(20):
            try:
                yield from client.put("t1", key, 2 * KIB)
                outcomes.append((key, round(sim.now, 9)))
            except Exception as exc:  # noqa: BLE001 - fingerprint failures too
                outcomes.append((key, type(exc).__name__))

    sim.process(work())
    sim.run(until=30.0)
    stats = [
        (name, s.rpc.stats.calls, s.rpc.stats.retries, s.rpc.stats.timeouts)
        for name, s in sorted(cluster.services.items())
    ]
    return tuple(outcomes), tuple(stats)


def test_retry_jitter_same_seed_byte_identical():
    """Backoff jitter is drawn from per-endpoint seeded RNGs: reruns
    with the same seed replay the exact same retry schedule."""
    assert _jitter_run(101) == _jitter_run(101)
    # and jitter is actually live: some retries happened under drops
    _outcomes, stats = _jitter_run(101)
    assert sum(retries for _n, _c, retries, _t in stats) > 0


def test_stale_client_reresolves_instead_of_burning_budget():
    """A client whose map still targets a failed primary must abandon
    the dead endpoint as soon as the detector/map says so, not sit out
    its whole multi-second retry budget."""
    sim = Simulator()
    cluster = StorageCluster(
        sim,
        n_nodes=3,
        profile=TINY,
        config=NodeConfig(capacity_vops=20_000.0),
        partitions_per_tenant=4,
        seed=11,
        net=NetConfig(
            rf=2, replication_mode="primary-backup",
            heartbeat_interval=0.05, suspicion_timeout=0.25,
            # worst-case serial budget >> the asserted completion time
            rpc_timeout=0.4, rpc_retries=8, rpc_backoff=0.4,
        ),
    )
    cluster.add_tenant("t1", Reservation(gets=2000, puts=2000))
    client = cluster.make_client()
    primary = cluster.partition_map.partitions("t1")[0].node
    key = 0  # partition 0
    done = {}

    def work():
        yield sim.timeout(0.2)
        cluster.kill_node(primary)
        yield from client.put("t1", key, 2 * KIB)
        done["at"] = sim.now

    sim.process(work())
    sim.run(until=30.0)
    assert done, "put never completed"
    # give_up fires on death detection / map bump: well under the
    # ~7s+ a full per-endpoint retry ladder would burn.
    assert done["at"] < 3.0, done["at"]


def test_vop_audit_reconciles_under_leaderless_repair_traffic():
    obs = Observability(tracer=Tracer(), audit=True)
    sim = Simulator()
    cluster = make_cluster(
        sim, n_nodes=3, write_quorum=2, read_quorum=2, seed=37, obs=obs,
        rpc_timeout=0.1, rpc_retries=1, rpc_backoff=0.05,
        hint_interval=0.3, anti_entropy_interval=1.0,
        fault_plan=_isolation_plan("node1", 0.5, 2.0),
    )

    def work():
        client = cluster.make_client()
        for key in range(16):
            yield from client.put("t1", key, 2 * KIB)
            if key % 3 == 0:
                yield from client.get("t1", key)
            yield sim.timeout(0.1)

    sim.process(work())
    sim.run(until=20.0)
    assert cluster.converged("t1")
    audited = 0
    for name, node in sorted(cluster.nodes.items()):
        if node.audit is None:
            continue
        summary = node.audit.summary(sim.now)
        assert summary["ok"], (name, summary["flags"])
        assert summary["reconciliation"] == pytest.approx(1.0, rel=1e-6)
        audited += 1
    assert audited == 3


# ---------------------------------------------------------------------------
# partitionfig determinism
# ---------------------------------------------------------------------------


#: the whole cell below hashed, re-recorded when failed read-your-writes
#: probes moved from ``errors`` to ``probe_errors`` (the one difference
#: from the earlier digest, 7be7f48906ef17f1); re-record only for a
#: deliberate model change
GOLDEN_PARTITION_CELL = "9b35e4c429056dcf"


def test_partitionfig_cell_deterministic():
    from repro.experiments import partitionfig

    args = ("leaderless", "quorum", 2, 2, True, "intel320", 4242)
    a = partitionfig._run_cell(args)
    b = partitionfig._run_cell(args)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert a.total_lost == 0 and a.verified
    # Write errors and failed probe reads are counted apart: 2+3
    # surfaced errors, one of them a minority-side probe.
    assert (a.errors, a.probe_errors) == ({"min": 1, "maj": 3}, {"min": 1, "maj": 0})
    assert hashlib.sha256(repr(a).encode()).hexdigest()[:16] == GOLDEN_PARTITION_CELL


# ---------------------------------------------------------------------------
# Concurrent siblings at the read edge
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op, size, expected", [
    ("put", 3 * KIB, 3 * KIB),
    ("delete", 0, None),
])
def test_quorum_read_resolves_concurrent_siblings_last_writer_wins(op, size, expected):
    """Two writes that never saw each other (e.g. accepted on opposite
    sides of a partition) stay siblings: the quorum read answers the
    later stamp, a tombstone included, and read repair installs the
    whole conflict set on every home replica."""
    sim = Simulator()
    cluster = make_cluster(sim, write_quorum=2, read_quorum=3)
    key = 0
    partition = cluster.partition_map.partition_of("t1", key)
    a, b = partition.replicas[0], partition.replicas[1]
    va = Version(clock=VectorClock([(a, 1)]), size=2 * KIB, op="put",
                 stamp=(1.0, a, 1))
    vb = Version(clock=VectorClock([(b, 1)]), size=size, op=op,
                 stamp=(2.0, b, 1))

    def seed_conflict():
        yield from cluster.services[a].apply_version("t1", key, va)
        yield from cluster.services[b].apply_version("t1", key, vb)

    drive(sim, seed_conflict())
    client = cluster.make_client()

    def read():
        return (yield from client.get("t1", key))

    assert drive(sim, read()) == expected
    assert sum(s.sibling_reads for s in cluster.services.values()) == 1
    sim.run(until=sim.now + 5.0)  # drain the repair fan-out
    for name in partition.replicas:
        winner, siblings = cluster.services[name].versions.resolve("t1", key)
        assert siblings == 2 and winner == vb
    cluster.stop()
