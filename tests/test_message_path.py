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

import pytest

from .helpers import count_calls, queue_counter, silent_part_bookings
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


def per_request(layer):
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
            calls[kind] = count_calls(lambda: drive(sim, requests()), (layer,)) / REQUESTS
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
    comprehensions and counts fewer):

    ==============  ==========================  ==========================
    request         ``repro/net`` parent / now  ``repro/sim`` parent / now
                    (budget)                    (budget)
    ==============  ==========================  ==========================
    replicated PUT  77.38 / 77.38 (77.4)        85.06 / 104.09 (104.1)
    GET             21.00 / 21.00 (21)          12.17 / 14.17 (14.2)
    ==============  ==========================  ==========================

    ``repro/sim`` per replicated PUT, parent to now:

    - +15.02 ``call_at`` calls: each of the six messages and the six
      device writes queues its delivery or finish through
      ``Simulator.call_at`` rather than pushing onto the kernel's heap
      itself, and so does each node's two-extent WAL commit's join
      (6.04 + 5.99 + 2.99);
    - +8 ``is_alive`` calls: each of the eight continuations a delivery
      used to run in place (the primary's serve start; per backup the
      ``repl.apply`` handler, the drain start and the ack's
      classification; the client's wake-up) is an action of its own
      again, and the test's ``step_while`` drive asks its predicate
      before each action;
    - −4 calls: those continuations are queued by ``Event.succeed``,
      ``Simulator.process`` and ``call_at`` directly, without the
      parent's wrapper around each.

    A GET: +2 ``call_at`` (its two messages), +2 ``is_alive`` and −2.
    Earlier, each message was handed to its handler by ``_deliver``'s
    lookup, and a live cached route went through ``_call_primary``'s
    round loop, a generator frame resumed twice per request (78.38 and
    22.00 ``repro/net`` calls).
    """
    net, sim, _pushes = counted
    assert net["put"] <= 77.4 and net["get"] <= 21, net
    assert sim["put"] <= 104.1 and sim["get"] <= 14.2, sim
