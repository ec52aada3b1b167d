"""A network partition that splits the failure detector from a primary.

The scenario is data (``partitioned_failover.json``): three nodes, rf=3
primary-backup at W=2, a ``NET_PARTITION`` window that puts ``node0``
and ``node1`` beside the writing client ``cw`` and the controller
beside ``node2``.  ``cw`` writes fresh keys to the two partitions
``node0`` leads, one at a time with a pause between, until the writer's
end; a fresh client then reads every acked key back.

Two bugs show in it:

- *bug A, lost acked writes*: the detector fails ``node0`` over while
  ``node1``'s ``repl.seq`` answer is severed, so partition 0 is promoted
  to ``node2``, which lacks the writes ``node0`` and ``node1`` acked
  inside the window;
- *bug B, a wedged promoted partition*: partition 3 is promoted to
  ``node1``, its backup ``node2`` applies only the next sequence in
  order and nothing re-ships what it missed, so after the heal no write
  to partition 3 reaches its quorum again.
"""

import json
from pathlib import Path

import pytest

from repro.core import Reservation
from repro.faults import FaultKind, FaultPlan, FaultWindow, StorageFault
from repro.net import NetConfig
from repro.node import StorageCluster
from repro.sim import Simulator

SCENARIO = json.loads((Path(__file__).parent / "partitioned_failover.json").read_text())


def replay(scenario):
    """Run the scenario; returns ``(cluster, acked, lost)``: each acked
    key's ``(start, acked at)`` and the acked keys the read-back misses."""
    window = scenario["partition_window"]
    plan = FaultPlan(seed=scenario["seed"]).add(FaultWindow(
        FaultKind.NET_PARTITION, window["start"], window["end"],
        groups=tuple(tuple(group) for group in window["groups"]),
    ))
    sim = Simulator()
    cluster = StorageCluster(
        sim, n_nodes=scenario["nodes"], partitions_per_tenant=scenario["partitions_per_tenant"],
        seed=scenario["seed"], net=NetConfig(fault_plan=plan, **scenario["net"]),
    )
    tenant = scenario["tenant"]
    cluster.add_tenant(tenant, Reservation(**scenario["reservation"]))
    spec = scenario["writer"]
    writer = cluster.make_client(spec["client"])
    width = scenario["partitions_per_tenant"]
    acked = {}

    def write():
        key = 0
        while sim.now < spec["until"]:
            while key % width not in spec["partitions"]:
                key += 1
            started = sim.now
            try:
                yield from writer.put(tenant, key, spec["value_bytes"])
                acked[key] = (started, sim.now)
            except StorageFault:
                pass  # surfaced to the writer after its resolution rounds
            key += 1
            yield sim.timeout(spec["pause"])

    reader = cluster.make_client(scenario["reader"])
    lost = []

    def read_back():
        for key in sorted(acked):
            if (yield from reader.get(tenant, key)) is None:
                lost.append(key)

    for step in (write, read_back):
        proc = sim.process(step())
        sim.step_while(lambda: proc.is_alive)
        assert proc.ok, proc.value
    cluster.stop()
    return cluster, acked, lost


@pytest.fixture(scope="module")
def replayed():
    return replay(SCENARIO)


def test_the_window_cuts_the_detector_off_from_a_writing_primary(replayed):
    """What makes the scenario bite, and holds with or without the bugs:
    writes are acked before the window opens, and the detector fails
    ``node0`` over from the other side of it."""
    cluster, acked, _lost = replayed
    opens = SCENARIO["partition_window"]["start"]
    assert any(at < opens for _started, at in acked.values())
    assert any(record.node == "node0" for record in cluster.detector.failovers)


@pytest.mark.xfail(strict=True, reason=(
    "bug A: failover promotes partition 0 to node2 while node1, which holds "
    "a longer acked prefix, is live but severed, losing acked writes; bug B: "
    "partition 3's promoted primary never re-ships the prefix its backup missed, "
    "so no write on it reaches W=2 after the heal"
))
def test_no_acked_write_is_lost_and_every_quorate_partition_acks_after_the_heal(replayed):
    cluster, acked, lost = replayed
    assert lost == []
    heal = SCENARIO["partition_window"]["end"]
    width = SCENARIO["partitions_per_tenant"]
    write_quorum = cluster.net.effective_write_quorum
    for partition in cluster.partition_map.partitions(SCENARIO["tenant"]):
        if partition.index not in SCENARIO["writer"]["partitions"]:
            continue
        live = [name for name in partition.replicas if cluster.membership.is_live(name)]
        if len(live) < write_quorum:
            continue
        after_heal = [key for key, (_s, at) in acked.items()
                      if key % width == partition.index and at >= heal]
        assert after_heal, f"partition {partition.index} acked nothing after the heal"
