"""The message path of a replicated cluster: its call budget, and its
queued actions as a count.

A replicated PUT runs client -> fabric -> ``RpcEndpoint`` -> the
primary's ``PrimaryBackupService`` -> local write -> one shipment per backup ->
``repl.apply`` on each backup -> acks -> quorum -> reply; a GET is one
round trip to the primary.  ``tests/test_request_path.py`` pins the calls
below ``StorageNode``; this file pins the ones in ``repro/net`` and
``repro/sim``, counted the same way (``sys.setprofile`` ``call`` events,
generator resumes included — what kvbench reports as
``net.calls_per_req`` and ``sim.calls_per_req``).

Shipments and backup acks relay a continuation queued where the
coroutine they replaced would have queued its own (a process start, an
event dispatch); that equality is what keeps every trajectory identical.
Every message delivery is a future action on the kernel's heap; every
continuation it queues for the same instant (a waiter's wake-up, a
serve process's or a ``repl.apply`` handler's start, the backup's drain
start) goes to the kernel's FIFO of actions due now.
"""

import sys

import pytest

from .helpers import count_calls, count_opcodes, queue_counter, silent_part_bookings
from repro.core import Reservation
from repro.net import NetConfig
from repro.node import StorageCluster
from repro.sim import Simulator
from repro.ssd import get_profile

KIB = 1024
MIB = 1024 * KIB
SMALL = get_profile("intel320").with_capacity(64 * MIB)
REQUESTS = 400


def drive(sim, gen):
    """Run one request to its end; returns its value or raises its error."""
    proc = sim.process(gen)
    sim.step_while(lambda: proc.is_alive)
    if not proc.ok:
        raise proc.value
    return proc.value


def idle_cluster():
    """3 nodes, rf=3 primary-backup, majority quorum, one client."""
    sim = Simulator()
    cluster = StorageCluster(
        sim, n_nodes=3, profile=SMALL, partitions_per_tenant=6, seed=1, net=NetConfig(rf=3),
    )
    cluster.add_tenant("t0", Reservation(gets=1500.0, puts=500.0))
    return sim, cluster, cluster.make_client()


def per_request(layer, counter=count_calls):
    """Per request of each kind — ``REQUESTS`` PUTs of 4 KiB one at a
    time, then a GET of each key — the calls under ``layer``, and the
    queued actions split as ``(heap pushes, same-instant enqueues)``
    beside the WAL write parts booked on a join without one."""
    sim, cluster, client = idle_cluster()

    def puts():
        for key in range(REQUESTS):
            yield from client.put("t0", key, 4 * KIB)

    def gets():
        for key in range(REQUESTS):
            assert (yield from client.get("t0", key)) == 4 * KIB

    calls, pushes = {}, {}
    for kind, requests in (("put", puts), ("get", gets)):
        queued = queue_counter(sim)
        with silent_part_bookings() as silent:
            calls[kind] = counter(lambda: drive(sim, requests()), (layer,)) / REQUESTS
        pushes[kind] = (queued(), silent[0])
    assert sum(service.quorum_acks for service in cluster.services.values()) == REQUESTS
    cluster.stop()
    return calls, pushes


@pytest.fixture(scope="module")
def counted():
    net, pushes = per_request("/repro/net/")
    sim, pushes_again = per_request("/repro/sim/")
    assert pushes == pushes_again  # the profiler perturbs nothing
    return net, sim, pushes


def test_queued_actions_per_request_are_the_parents(counted):
    """37.4525 queued actions per replicated PUT and 4.0325 per GET, as
    before deliveries ran their continuations in place: each action is
    queued once again, either pushed onto the heap (a delivery, a
    device finish, a timer) or appended to the FIFO of actions due now
    (a wake-up, a process start, a relayed continuation).  The WAL write
    parts booked on their join without an action stay as they were."""
    _net, _sim, pushes = counted
    (put, put_silent), (get, get_silent) = pushes["put"], pushes["get"]
    assert (put, get) == ((4983, 9998), (812, 801))
    assert (sum(put), sum(get)) == (14981, 1613)
    assert (put_silent, get_silent) == (1197, 0)


def test_calls_per_request_stay_within_budget(counted):
    """Calls per request on the idle cluster (CPython 3.11; 3.12 inlines
    comprehensions and counts fewer), and on 3.11 the bytecodes per
    request, exactly; the queued actions must not move:

    ==============  ======================  ======================
    request         ``repro/net`` calls     ``repro/sim`` calls
                    parent / now (budget)   parent / now (budget)
    ==============  ======================  ======================
    replicated PUT  77.38 / 51.46 (51.5)    104.09 / 100.085 (100.1)
    GET             21.00 / 13.00 (13)      14.17 / 13.17 (13.2)
    ==============  ======================  ======================

    Bytecodes per request, parent / now: ``repro/net`` 2,847.98 /
    1,964.94 per PUT and 769 / 522 per GET; ``repro/sim`` 3,171.42 /
    3,142.42 and 426.25 / 418.25.  Since then ``repro/net`` is 1,962.59
    per PUT: a shipment's ``done`` takes the reply, not its payload, and
    a heartbeat is the node's name, not a dict.  Each message is one ``Link.send``
    naming the receiver's typed handler, so no ``deliver`` closure or
    ``_on_message`` dispatch runs; messages are tuples built without
    a constructor frame; ``kv.*`` handlers reply themselves, started
    by ``Process`` directly (no ``_serve`` frame, no
    ``Simulator.process``); a primary's shipments are queued by
    ``fan_out`` (no ``_ship``); ``Quorum`` is the event a write waits
    on (no ``Simulator.event``); and both call drivers count an ok
    reply inline.
    """
    net, sim, _pushes = counted
    assert net["put"] <= 51.5 and net["get"] <= 13, net
    assert sim["put"] <= 100.1 and sim["get"] <= 13.2, sim
    if sys.version_info[:2] != (3, 11):
        pytest.skip("bytecode counts are pinned for CPython 3.11: another version "
                    "compiles the same source to other bytecode")
    net_ops, pushes = per_request("/repro/net/", count_opcodes)
    sim_ops, pushes_again = per_request("/repro/sim/", count_opcodes)
    assert pushes == pushes_again == _pushes
    assert {kind: ops * REQUESTS for kind, ops in net_ops.items()} == {
        "put": 785_036, "get": 208_800,
    }
    assert {kind: ops * REQUESTS for kind, ops in sim_ops.items()} == {
        "put": 1_256_969, "get": 167_298,
    }
