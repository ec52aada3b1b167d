"""Tests for repro.net: fabric, RPC, replication, failover — plus the
PartitionMap edge cases, the client's route cache and the cluster
wiring that ride on them."""

import dataclasses

import pytest

from repro.core import Reservation
from repro.core.scheduler import TenantUsage
from repro.engine import EngineConfig
from repro.engine.db import EngineStats
from repro.faults import (
    FaultKind,
    FaultPlan,
    FaultWindow,
    NodeUnreachable,
    RetriesExhausted,
    RpcTimeout,
    StorageFault,
)
from repro.net import (
    ClusterClient, Membership, NetConfig, NetworkFabric, RpcEndpoint, RpcError,
)
from repro.net.fabric import MESSAGE_OVERHEAD, Link
from repro.node import NodeConfig, PartitionMap, RequestStats, StorageCluster
from repro.sim import Simulator
from repro.ssd import SsdProfile
from repro.ssd.stats import SsdStats

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-net", channels=4, logical_capacity=64 * MIB, overprovision=1.0)


def drive(sim, gen):
    """Run one generator to completion; return its value or re-raise."""
    out = {}

    def wrapper():
        out["value"] = yield from gen

    proc = sim.process(wrapper())
    sim.run(until=sim.now + 120.0)
    if proc.triggered and not proc.ok:
        raise proc.value
    return out.get("value")


def make_cluster(sim, rf=2, n_nodes=3, partitions=4, seed=11, net_kwargs=None,
                 reservation=None):
    net = NetConfig(rf=rf, **(net_kwargs or {}))
    cluster = StorageCluster(
        sim,
        n_nodes=n_nodes,
        profile=TINY,
        config=NodeConfig(capacity_vops=20_000.0),
        partitions_per_tenant=partitions,
        seed=seed,
        net=net,
    )
    cluster.add_tenant("t1", reservation or Reservation(gets=2000, puts=2000))
    return cluster


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------


def cast_pair(sim, fabric, receive):
    """Endpoints ``a`` and ``b``, with ``b`` handing the payload of each
    ``m`` cast it receives to ``receive``; returns ``a``."""
    RpcEndpoint(sim, fabric, "b").register_cast("m", receive)
    return RpcEndpoint(sim, fabric, "a")


def test_nic_serialization_queues_fifo():
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(nic_bandwidth=1e6, link_latency=0.001))
    got = []
    a = cast_pair(sim, fabric, lambda m: got.append((sim.now, m)))
    # Two back-to-back 10 KB messages: the second queues behind the
    # first's serialization, so arrivals are spaced by the service time.
    wire = 10_000 + MESSAGE_OVERHEAD
    a.cast("b", "m", "m1", 10_000)
    a.cast("b", "m", "m2", 10_000)
    sim.run(until=1.0)
    assert [m for _t, m in got] == ["m1", "m2"]
    service = wire / 1e6
    assert got[0][0] == pytest.approx(service + 0.001)
    assert got[1][0] == pytest.approx(2 * service + 0.001)
    stats = fabric.link_stats[("a", "b")]
    assert stats.messages == 2
    assert stats.queue_wait == pytest.approx(service)


def test_fabric_down_endpoints_eat_messages():
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig())
    got = []
    a = cast_pair(sim, fabric, got.append)
    a.cast("b", "m", "pre", 100)
    fabric.set_down("b")
    a.cast("b", "m", "post", 100)  # dead letter at delivery
    sim.run(until=1.0)
    assert got == []  # "pre" was in flight when b died
    assert fabric.link_stats[("a", "b")].dead_letters == 2
    fabric.set_down("a")
    a.cast("b", "m", "from-dead", 100)  # silently dropped at source
    sim.run(until=2.0)
    assert fabric.link_stats[("a", "b")].messages == 2


def test_nic_totals_are_link_sums_and_a_kill_counts_its_dead_letters(monkeypatch):
    """An endpoint's sent messages and bytes are its outbound links'
    sums in ``fabric.link_stats``; both match a log of every send the
    fabric accepted, and every message that reached the killed node
    after its death is one dead letter, severing none."""
    sim = Simulator()
    cluster = make_cluster(
        sim, rf=3, net_kwargs={"heartbeat_interval": 0.05, "suspicion_timeout": 0.25},
    )
    fabric = cluster.fabric
    client = cluster.make_client()
    sent = {}
    kill = {}
    send = Link.send

    def logged(link, nbytes, message, deliver):
        if link.src not in kill:  # a dead source sends nothing
            messages, total = sent.get(link.src, (0, 0))
            sent[link.src] = (messages + 1, total + nbytes + MESSAGE_OVERHEAD)
        send(link, nbytes, message, deliver)

    monkeypatch.setattr(Link, "send", logged)
    # Peers resolve node0's typed handlers on their first message; none
    # has yet.  A message node0 handles arrived while it was alive.
    handled = []
    node0 = cluster.services["node0"].rpc
    for kind in ("_on_request", "_on_response", "_on_cast"):
        handler = getattr(node0, kind)

        def counted(message, handler=handler):
            if not node0.nic.down:
                handled.append(message)
            handler(message)

        setattr(node0, kind, counted)

    def writer():
        for key in range(150):
            try:
                yield from client.put("t1", key, KIB)
            except StorageFault:
                pass
            yield sim.timeout(0.01)

    def killer():
        yield sim.timeout(0.5)
        kill["node0"] = sim.now
        cluster.kill_node("node0")

    sim.process(writer())
    sim.process(killer())
    sim.run(until=3.0)
    cluster.stop()
    sim.run(until=30.0)  # every message in flight lands
    links = fabric.link_stats
    # 3 nodes, the detector's endpoint and the client all sent something
    assert set(sent) == set(fabric.nics) and len(sent) == 5
    for name in fabric.nics:
        outbound = [s for (src, _dst), s in links.items() if src == name]
        assert sum(s.messages for s in outbound) == sent[name][0]
        assert sum(s.bytes for s in outbound) == sent[name][1]
    to_dead = sum(s.messages for (_src, dst), s in links.items() if dst == "node0")
    dead_letters = sum(s.dead_letters for s in links.values())
    assert dead_letters == to_dead - len(handled) > 0
    assert all(s.dead_letters == 0 for (_src, dst), s in links.items() if dst != "node0")
    # a kill is no partition: no NET_PARTITION window severed a message
    assert sum(s.partitioned for s in links.values()) == 0
    assert set(fabric._down) == {"node0"}


def test_message_fault_windows_drop_delay_duplicate():
    plan = (
        FaultPlan(seed=3)
        .add(FaultWindow(FaultKind.MSG_DROP, 0.0, 10.0, probability=0.3))
        .add(FaultWindow(FaultKind.MSG_DUP, 0.0, 10.0, probability=0.3))
        .add(FaultWindow(FaultKind.MSG_DELAY, 0.0, 10.0, extra_latency=0.005))
    )
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(fault_plan=plan, link_latency=0.0001))
    got = []
    a = cast_pair(sim, fabric, got.append)

    def sender():
        for i in range(200):
            a.cast("b", "m", i, 100)
            yield sim.timeout(0.01)

    sim.process(sender())
    sim.run(until=20.0)
    stats = fabric.link_stats[("a", "b")]
    assert stats.dropped > 0
    assert stats.duplicated > 0
    assert fabric.injector.delayed_messages > 0
    # Every surviving message arrives once, duplicates arrive twice.
    assert len(got) == 200 - stats.dropped + stats.duplicated


# ---------------------------------------------------------------------------
# RPC
# ---------------------------------------------------------------------------


def _echo_server(sim, fabric, name="srv"):
    server = RpcEndpoint(sim, fabric, name)

    def echo(request):
        yield sim.timeout(0.001)
        return {"echo": request.payload}, 64

    server.register("echo", echo)
    return server


def test_rpc_round_trip_and_stats():
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig())
    server = _echo_server(sim, fabric)
    client = RpcEndpoint(sim, fabric, "cli")
    reply = drive(sim, client.call("srv", "echo", 42, 128))
    assert reply == {"echo": 42}
    assert client.stats.round_trips == 1
    assert server.stats.served == 1
    assert client.stats.retries == 0


def test_call_to_a_membership_dead_target_spends_one_attempt():
    """The endpoint reads no membership: a call to a killed target the
    membership already declared dead sends its first attempt, and only
    the caller's ``give_up``, consulted once that attempt timed out,
    abandons the budget — exactly one ``rpc_timeout`` after the call
    began."""
    sim = Simulator()
    config = NetConfig(rpc_timeout=0.05, rpc_retries=5)
    fabric = NetworkFabric(sim, config)
    _echo_server(sim, fabric)
    client = RpcEndpoint(sim, fabric, "cli")
    membership = Membership(["srv", "cli"])
    fabric.set_down("srv")
    membership.mark_dead("srv")
    seen = []

    def caller():
        yield sim.timeout(0.0137)
        started = sim.now
        try:
            yield from client.call(
                "srv", "echo", 1, 64, give_up=membership.is_dead
            )
        except RetriesExhausted as exc:
            seen.append((sim.now == started + config.rpc_timeout, type(exc.__cause__)))

    sim.process(caller())
    sim.run(until=1.0)
    assert seen == [(True, NodeUnreachable)]
    stats = client.stats
    assert (stats.calls, stats.timeouts, stats.retries, stats.failures) == (1, 1, 1, 1)
    assert fabric.link_stats[("cli", "srv")].dead_letters == 1


def test_rpc_unknown_method_and_handler_error_travel_back():
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(rpc_retries=0))
    server = RpcEndpoint(sim, fabric, "srv")

    def boom(request):
        raise RuntimeError("kaput")
        yield  # pragma: no cover

    server.register("boom", boom)
    client = RpcEndpoint(sim, fabric, "cli")
    with pytest.raises(RetriesExhausted) as err:
        drive(sim, client.call("srv", "nope", None, 16))
    assert "no method" in str(err.value.__cause__)
    with pytest.raises(RetriesExhausted) as err:
        drive(sim, client.call("srv", "boom", None, 16))
    assert isinstance(err.value.__cause__, RpcError)
    assert "kaput" in str(err.value.__cause__)
    assert (client.stats.calls, client.stats.timeouts) == (2, 0)


@pytest.mark.parametrize("payload", [("t1", 0, KIB, "put"), ("t1",)], ids=["backup", "malformed"])
def test_a_write_handler_error_travels_back_at_once(payload):
    """``kv.put`` answers for itself: a write to a backup, or a payload
    it cannot unpack, comes back as an :class:`RpcError` one round trip
    after the call, not as a timeout."""
    sim = Simulator()
    cluster = make_cluster(sim, rf=3, net_kwargs={"rpc_retries": 0})
    backup = cluster.partition_map.partition_of("t1", 0).replicas[1]
    probe = RpcEndpoint(sim, cluster.fabric, "probe")
    call = sim.process(probe.call(backup, "kv.put", payload, KIB))
    sim.step_while(lambda: call.is_alive)
    assert isinstance(call.value, RetriesExhausted)
    assert isinstance(call.value.__cause__, RpcError)
    assert probe.stats.timeouts == 0 and sim.now < cluster.net.rpc_timeout
    cluster.stop()
    assert cluster.total_stats("t1").puts == 0


def test_rpc_timeout_then_retry_succeeds_through_drop_window():
    # Drop every message for the first 50 ms; retries land afterwards.
    plan = FaultPlan(seed=1).add(
        FaultWindow(FaultKind.MSG_DROP, 0.0, 0.05, probability=1.0)
    )
    sim = Simulator()
    fabric = NetworkFabric(
        sim, NetConfig(fault_plan=plan, rpc_timeout=0.02, rpc_backoff=0.01)
    )
    _echo_server(sim, fabric)
    client = RpcEndpoint(sim, fabric, "cli")
    reply = drive(sim, client.call("srv", "echo", "x", 64))
    assert reply == {"echo": "x"}
    assert client.stats.timeouts > 0
    assert client.stats.retries > 0


def test_rpc_budget_exhausts_against_dead_target():
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(rpc_timeout=0.01, rpc_retries=2,
                                          rpc_backoff=0.001))
    _echo_server(sim, fabric)
    fabric.set_down("srv")
    client = RpcEndpoint(sim, fabric, "cli")
    with pytest.raises(RetriesExhausted) as err:
        drive(sim, client.call("srv", "echo", 1, 64))
    assert isinstance(err.value.__cause__, RpcTimeout)
    assert client.stats.failures == 1


def test_rpc_duplicated_response_is_ignored():
    plan = FaultPlan(seed=7).add(
        FaultWindow(FaultKind.MSG_DUP, 0.0, 10.0, probability=1.0)
    )
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(fault_plan=plan))
    _echo_server(sim, fabric)
    client = RpcEndpoint(sim, fabric, "cli")
    # Request and response both duplicate: the server serves twice, the
    # client consumes the first response and drops the second.
    reply = drive(sim, client.call("srv", "echo", "dup", 64))
    assert reply == {"echo": "dup"}
    assert client.stats.round_trips == 1


# ---------------------------------------------------------------------------
# PartitionMap / client route cache edge cases
# ---------------------------------------------------------------------------


def make_resolver(pm):
    """A client on an empty fabric: enough to exercise its route cache."""
    sim = Simulator()
    return ClusterClient(sim, NetworkFabric(sim), pm, Membership(["a", "b"]))


def test_unplaced_tenant_raises_keyerror():
    pm = PartitionMap(4)
    with pytest.raises(KeyError):
        pm.partition_of("ghost", 0)
    with pytest.raises(KeyError):
        pm.partitions("ghost")
    with pytest.raises(KeyError):
        pm.promote("ghost", 0, "node0")
    with pytest.raises(KeyError):
        make_resolver(pm).resolve("ghost", 0)


def test_single_node_cluster_owns_everything():
    pm = PartitionMap(4)
    pm.place_tenant("t", ["only"], rf=3)  # rf clamps to the node count
    for key in range(16):
        assert pm.node_of("t", key) == "only"
        assert pm.replicas_of("t", key) == ("only",)
    assert pm.nodes_of("t") == ["only"]


def test_more_nodes_than_partitions_leaves_spares():
    pm = PartitionMap(2)
    nodes = [f"n{i}" for i in range(5)]
    pm.place_tenant("t", nodes, rf=2)
    # Partition 0 -> (n0, n1), partition 1 -> (n1, n2): n3/n4 host nothing.
    hosting = pm.nodes_of("t")
    assert hosting == ["n0", "n1", "n2"]
    spares = [n for n in nodes if n not in hosting]
    assert spares == ["n3", "n4"]
    for name in spares:
        assert pm.replica_weight("t", name) == 0


def test_placement_is_stable_across_replacement():
    pm = PartitionMap(8)
    nodes = ["a", "b", "c"]
    pm.place_tenant("t", nodes, rf=2)
    first = pm.partitions("t")
    version = pm.version
    pm.place_tenant("t", nodes, rf=2)
    assert pm.partitions("t") == first
    assert pm.version == version + 1  # re-placement still bumps


def test_promote_reorders_chain_and_bumps_version():
    pm = PartitionMap(2)
    pm.place_tenant("t", ["a", "b", "c"], rf=3)
    before = pm.version
    assert pm.partition_of("t", 0).replicas == ("a", "b", "c")
    pm.promote("t", 0, "c")
    assert pm.partition_of("t", 0).replicas == ("c", "a", "b")
    assert pm.version == before + 1
    with pytest.raises(ValueError):
        pm.promote("t", 0, "not-a-replica")


def test_client_route_cache_invalidated_by_version_bump():
    pm = PartitionMap(2)
    pm.place_tenant("t", ["a", "b"], rf=2)
    client = make_resolver(pm)
    assert client.resolve("t", 0) == "a"
    pm.promote("t", 0, "b")
    assert client.resolve("t", 0) == "b"


# ---------------------------------------------------------------------------
# RequestStats: a Counters book
# ---------------------------------------------------------------------------


def test_request_stats_merge_is_explicit_and_total():
    a = RequestStats(gets=1, put_units=2.5, retries=3)
    b = RequestStats(gets=2, put_units=0.5, crashes=1, repl_applies=4)
    out = a.merge(b)
    assert out is a
    assert (a.gets, a.put_units, a.retries, a.crashes, a.repl_applies) == (
        3, 3.0, 3, 1, 4,
    )
    # FIELDS is every dataclass counter in declaration order: kvbench's
    # digest lists a book's columns from it, so a field missing there
    # would drop out of the digest unseen.
    assert RequestStats.FIELDS == tuple(f.name for f in dataclasses.fields(RequestStats))
    assert tuple(vars(RequestStats())) == RequestStats.FIELDS


def test_request_stats_snapshot_delta_and_merge_cover_every_field():
    """Each field gets its own value, so a field the ``Counters`` ops
    skipped would come back 0 (or unchanged) here."""
    earlier = RequestStats(**{f: i + 1 for i, f in enumerate(RequestStats.FIELDS)})
    later = RequestStats(**{f: 10 * (i + 1) for i, f in enumerate(RequestStats.FIELDS)})
    snap = later.snapshot()
    assert snap == later and snap is not later
    later.gets += 1
    assert snap.gets == 10  # a copy, not a view
    later.gets -= 1
    delta = later.delta(earlier)
    assert type(delta) is RequestStats
    assert vars(delta) == {f: 9 * (i + 1) for i, f in enumerate(RequestStats.FIELDS)}
    total = RequestStats().merge(earlier).merge(later)
    assert vars(total) == {f: 11 * (i + 1) for i, f in enumerate(RequestStats.FIELDS)}
    assert vars(earlier) == {f: i + 1 for i, f in enumerate(RequestStats.FIELDS)}


@pytest.mark.parametrize(
    "book", [RequestStats, SsdStats, EngineStats, TenantUsage], ids=lambda b: b.__name__
)
def test_every_counters_book_diffs_and_merges_each_field(book):
    """``Counters`` is the one snapshot/delta/merge of every stats book;
    each field gets its own value, so one the mixin skipped shows."""
    names = [f.name for f in dataclasses.fields(book)]
    assert tuple(vars(book())) == tuple(names)  # no state besides counters
    earlier = book(**{f: i + 1 for i, f in enumerate(names)})
    later = book(**{f: 10 * (i + 1) for i, f in enumerate(names)})
    assert later.snapshot() == later and later.snapshot() is not later
    assert vars(later.delta(earlier)) == {f: 9 * (i + 1) for i, f in enumerate(names)}
    total = book().merge(earlier)
    assert total.merge(later) is total
    assert vars(total) == {f: 11 * (i + 1) for i, f in enumerate(names)}


# ---------------------------------------------------------------------------
# Replication + failover (end to end on a small cluster)
# ---------------------------------------------------------------------------


def test_replicated_put_applies_on_backups():
    sim = Simulator()
    cluster = make_cluster(sim, rf=2)

    def writes():
        client = cluster.make_client()
        for key in range(20):
            yield from client.put("t1", key, 2 * KIB)

    sim.process(writes())
    sim.run(until=30.0)
    total = cluster.total_stats("t1")
    assert total.puts == 20  # each client write counted once
    assert total.repl_applies == 20  # and applied once on a backup
    amp = sum(cluster.durable_record_counts("t1").values())
    assert amp >= 40  # every record durable on >= 2 nodes


def test_rf1_has_no_replication_traffic():
    sim = Simulator()
    cluster = make_cluster(sim, rf=1)

    def writes():
        client = cluster.make_client()
        for key in range(10):
            yield from client.put("t1", key, KIB)

    sim.process(writes())
    sim.run(until=30.0)
    total = cluster.total_stats("t1")
    assert total.puts == 10 and total.repl_applies == 0
    assert all(s.quorum_acks >= 0 for s in cluster.services.values())
    assert sum(s.rpc.stats.calls for s in cluster.services.values()) == 0


def test_cluster_without_a_net_config_runs_one_replica_per_partition():
    # ``net`` defaults to ``NetConfig()``: requests still go through the
    # client and the fabric, and every partition has a single replica.
    sim = Simulator()
    cluster = StorageCluster(
        sim, n_nodes=2, profile=TINY, config=NodeConfig(capacity_vops=20_000.0),
        partitions_per_tenant=4, seed=11,
    )
    cluster.add_tenant("t1", Reservation(gets=2000, puts=2000))
    assert cluster.net == NetConfig() and cluster.net.rf == 1
    partitions = cluster.partition_map.partitions("t1")
    assert len(partitions) == 4
    assert all(len(p.replicas) == 1 for p in partitions)
    client = cluster.make_client()

    def round_trip():
        for key in range(8):
            yield from client.put("t1", key, KIB)
        sizes = []
        for key in range(8):
            sizes.append((yield from client.get("t1", key)))
        return sizes

    assert drive(sim, round_trip()) == [KIB] * 8
    total = cluster.total_stats("t1")
    assert (total.puts, total.gets, total.repl_applies) == (8, 8, 0)


def test_put_reservation_split_weights_replicas():
    sim = Simulator()
    cluster = make_cluster(
        sim, rf=2, n_nodes=2, partitions=8,
        reservation=Reservation(gets=1000, puts=1000),
    )
    for node in cluster.nodes.values():
        local = node.policy.reservation("t1")
        # Primary share is half the partitions; every partition has a
        # replica on both nodes, so PUT reservations carry full weight.
        assert local.gets == pytest.approx(500.0)
        assert local.puts == pytest.approx(1000.0)


def test_kill_node_fails_over_and_loses_no_acked_write():
    sim = Simulator()
    cluster = make_cluster(
        sim, rf=2,
        net_kwargs={"heartbeat_interval": 0.05, "suspicion_timeout": 0.25},
    )
    client = cluster.make_client()
    acked = {}
    surfaced = []

    def writer():
        key = 0
        while sim.now < 4.0:
            size = KIB + (key % 3) * KIB
            try:
                yield from client.put("t1", key, size)
                acked[key] = size
            except StorageFault:
                surfaced.append(key)
            key += 1
            yield sim.timeout(0.01)

    def killer():
        yield sim.timeout(1.0)
        cluster.kill_node("node0")

    sim.process(writer())
    sim.process(killer())
    sim.run(until=5.0)

    # The detector noticed, promoted backups, and bumped the map.
    assert cluster.detector.failovers
    record = cluster.detector.failovers[0]
    assert record.node == "node0"
    assert record.promotions
    assert not cluster.membership.is_live("node0")
    for tenant, pid, new_primary, _seq in record.promotions:
        assert cluster.partition_map.partitions(tenant)[pid].node == new_primary
        assert new_primary != "node0"
    # Writes kept flowing after the failover.
    assert any(k in acked for k in range(len(acked) + len(surfaced) - 10,
                                         len(acked) + len(surfaced)))

    # Zero acknowledged writes lost: every acked key reads back.
    lost = []

    def verifier():
        for key, size in sorted(acked.items()):
            try:
                got = yield from client.get("t1", key)
            except StorageFault:
                got = None
            if got != size:
                lost.append(key)

    sim.process(verifier())
    sim.run(until=60.0)
    cluster.stop()
    assert acked and lost == []


def test_failover_resplits_reservations_onto_survivors():
    sim = Simulator()
    cluster = make_cluster(
        sim, rf=2,
        net_kwargs={"heartbeat_interval": 0.05, "suspicion_timeout": 0.25},
        reservation=Reservation(gets=1200, puts=1200),
    )
    before = {
        name: node.policy.reservation("t1").gets
        for name, node in cluster.nodes.items()
    }
    cluster.kill_node("node0")
    sim.run(until=2.0)
    cluster.stop()
    survivors = [n for n in cluster.nodes.values() if not n.failed]
    after = sum(n.policy.reservation("t1").gets for n in survivors)
    # The dead node's GET share moved onto the promoted survivors.
    assert after == pytest.approx(sum(before.values()))


def test_quorum_reads_survive_primary_loss_window():
    sim = Simulator()
    cluster = make_cluster(
        sim, rf=3,
        net_kwargs={
            "read_quorum": 2,
            "heartbeat_interval": 0.05,
            "suspicion_timeout": 0.25,
        },
    )
    client = cluster.make_client()
    sizes = {}

    def scenario():
        for key in range(12):
            sizes[key] = KIB + (key % 3) * KIB
            yield from client.put("t1", key, sizes[key])
        cluster.kill_node("node0")
        yield sim.timeout(1.0)  # let the detector promote
        for key in range(12):
            got = yield from client.get("t1", key)
            assert got == sizes[key], key

    sim.process(scenario())
    sim.run(until=30.0)
    cluster.stop()
    assert len(sizes) == 12


def test_quorum_error_when_all_backups_dead():
    sim = Simulator()
    # write_quorum=2 but both backups dead -> quorum clamps to live
    # replicas (primary alone), so writes still ack; with an explicit
    # membership that still lists a dead backup the quorum fails.
    cluster = make_cluster(
        sim, rf=2, n_nodes=2,
        net_kwargs={"rpc_timeout": 0.02, "rpc_retries": 1, "rpc_backoff": 0.002},
    )
    # Kill node1's network only — membership still believes it is live,
    # so the primary must try, fail, and surface a quorum error.
    cluster.fabric.set_down("node1")
    client = cluster.make_client()

    def attempt():
        with pytest.raises(StorageFault):
            yield from client.put("t1", 0, KIB)

    sim.process(attempt())
    sim.run(until=60.0)
    primary = "node0" if cluster.partition_map.node_of("t1", 0) == "node0" else "node1"
    assert cluster.services[primary].quorum_failures > 0


def test_failover_waits_for_a_replica_that_answers_repl_seq():
    """node0 dies at 1.0 and every message is dropped over [1.2, 1.6),
    so no backup answers ``repl.seq`` while its failover first runs.
    A replica with an unknown applied prefix may lack acked writes: the
    detector must leave those partitions alone, retry on a later sweep,
    and keep sweeping.  (It used to promote ``None``; the ValueError
    killed the unawaited sweep process, so node0's partitions kept a
    dead primary and node1's kill at 3.0 was never noticed.)"""
    from repro.ssd import get_profile

    sim = Simulator()
    plan = FaultPlan(seed=1).add(FaultWindow(FaultKind.MSG_DROP, 1.2, 1.6, probability=1.0))
    net = NetConfig(
        rf=2, heartbeat_interval=0.05, suspicion_timeout=0.25, rpc_timeout=0.05,
        rpc_retries=2, fault_plan=plan,
    )
    cluster = StorageCluster(
        sim, n_nodes=3, profile=get_profile("intel320").with_capacity(64 * MIB), seed=1,
        net=net,
    )
    cluster.add_tenant("t", Reservation(gets=1000, puts=1000))
    led = [p.index for p in cluster.partition_map.partitions("t") if p.node == "node0"]
    promoted = []
    promote = cluster.partition_map.promote

    def spy(tenant, pid, node):
        promoted.append((sim.now, pid, node))
        return promote(tenant, pid, node)

    cluster.partition_map.promote = spy

    def killer():
        yield sim.timeout(1.0)
        cluster.kill_node("node0")
        yield sim.timeout(2.0)
        cluster.kill_node("node1")

    sim.process(killer())
    sim.run(until=6.0)
    cluster.stop()
    node0_promotions = [(at, pid, node) for at, pid, node in promoted if pid in led and at < 3.0]
    assert sorted(pid for _at, pid, _node in node0_promotions) == sorted(led)
    assert all(at >= 1.6 and node in ("node1", "node2") for at, _pid, node in node0_promotions)
    assert all(p.node != "node0" for p in cluster.partition_map.partitions("t"))
    assert not cluster.membership.is_live("node1") and cluster.membership.is_live("node2")
    assert [rec.node for rec in cluster.detector.failovers if rec.at >= 3.0] == ["node1"]


PRIMARY_BACKUP_METHODS = {"kv.get", "kv.put", "kv.delete", "repl.apply", "repl.seq", "mig.apply"}
LEADERLESS_METHODS = {
    "lkv.get", "lkv.put", "repl.store", "repl.read", "hint.store", "ae.digest", "ae.bucket",
}


@pytest.mark.parametrize("mode, own, foreign", [
    ("primary-backup", PRIMARY_BACKUP_METHODS, LEADERLESS_METHODS),
    ("leaderless", LEADERLESS_METHODS, PRIMARY_BACKUP_METHODS),
], ids=["primary-backup", "leaderless"])
def test_each_replica_service_answers_only_its_own_protocol(mode, own, foreign):
    """A node serves its cluster's protocol and no other: a foreign
    request (a ``kv.put`` to a leaderless node, which once wrote without
    a version; an ``lkv.get`` to a primary-backup node) comes back as
    the RPC layer's unknown-method error and writes nothing."""
    sim = Simulator()
    cluster = make_cluster(
        sim, rf=3, net_kwargs={"replication_mode": mode, "rpc_retries": 0}
    )
    for service in cluster.services.values():
        assert set(service.rpc._methods) == own
    probe = RpcEndpoint(sim, cluster.fabric, "probe")
    payload = {"tenant": "t1", "key": 0, "size": KIB, "op": "put", "pid": 0, "seq": 1}
    for method in sorted(foreign):
        call = sim.process(probe.call("node0", method, payload, KIB))
        sim.step_while(lambda: call.is_alive)
        assert isinstance(call.value, RetriesExhausted), method
        assert f"no method {method!r}" in str(call.value.__cause__), method
    cluster.stop()
    stats = cluster.total_stats("t1")
    assert (stats.puts, stats.deletes, stats.repl_applies) == (0, 0, 0)


# ---------------------------------------------------------------------------
# WAL commit hook (the replication shipping point)
# ---------------------------------------------------------------------------


def test_wal_commit_listener_fires_per_durable_batch_and_survives_rotation():
    from repro.engine import LsmEngine
    from repro.node import StorageNode

    sim = Simulator()
    node = StorageNode(
        sim, profile=TINY, config=NodeConfig(capacity_vops=20_000.0), seed=2
    )
    node.add_tenant(
        "t1", Reservation(gets=100, puts=100),
        engine_config=EngineConfig(memtable_bytes=64 * KIB),
    )
    engine: LsmEngine = node.engines["t1"]
    seen = []
    engine.subscribe_wal(seen.extend)
    first_wal = engine.wal

    def writes():
        for key in range(64):
            yield from node.put("t1", key, 4 * KIB)

    sim.process(writes())
    sim.run(until=30.0)
    node.stop()
    # Every durable record passed through the hook, in commit order...
    assert sorted(k for k, _size in seen) == sorted(range(64))
    # ...across at least one memtable rotation (fresh WAL, same hook).
    assert engine.wal is not first_wal


def test_unplaced_node_skipped_by_placement_and_redistribution():
    sim = Simulator()
    # 5 nodes, 2 partitions, rf=1: three nodes host nothing.
    cluster = StorageCluster(
        sim, n_nodes=5, profile=TINY,
        config=NodeConfig(capacity_vops=20_000.0), partitions_per_tenant=2,
    )
    cluster.add_tenant("t1", Reservation(gets=1000, puts=1000))
    hosting = set(cluster.partition_map.nodes_of("t1"))
    assert hosting == {"node0", "node1"}
    for name, node in cluster.nodes.items():
        assert ("t1" in node.tenants) == (name in hosting)

    # Overload a hosting node (cold-start profile charges 1 VOP per
    # normalized request, so demand = reservation rates), then
    # redistribute: the shaved reservation goes to the other hosting
    # node, and a node that holds no replica never receives the tenant.
    node0 = cluster.nodes["node0"]
    node0.set_reservation("t1", Reservation(gets=40_000, puts=40_000))
    moves = cluster.redistribute_reservations()
    assert moves > 0
    assert cluster.nodes["node1"].policy.reservation("t1").gets > 500
    for name, node in cluster.nodes.items():
        assert ("t1" in node.tenants) == (name in hosting)


def test_link_and_rpc_stats_stay_plain_dataclasses():
    """kvbench's ``harness.snapshot`` and ``test_determinism`` hash
    ``vars()`` of every ``LinkStats`` and ``RpcStats``: a ``__slots__``
    or an extra attribute would silently move every cluster digest."""
    from repro.net import LinkStats, RpcStats

    for cls in (LinkStats, RpcStats):
        assert dataclasses.is_dataclass(cls) and "__slots__" not in vars(cls)
        fields = [field.name for field in dataclasses.fields(cls)]
        assert list(vars(cls())) == fields
