"""The message path of a replicated cluster: its call budget, and the
same-slot rule as a count.

A replicated PUT runs client -> fabric -> ``RpcEndpoint`` -> the
primary's ``PrimaryBackupService`` -> local write -> one shipment per backup ->
``repl.apply`` on each backup -> acks -> quorum -> reply; a GET is one
round trip to the primary.  ``tests/test_request_path.py`` pins the calls
below ``StorageNode``; this file pins the ones in ``repro/net`` and
``repro/sim``, counted the same way (``sys.setprofile`` ``call`` events,
generator resumes included — what kvbench reports as
``net.calls_per_req`` and ``sim.calls_per_req``).

Shipments and backup applies relay a continuation in the heap slot the
coroutine they replaced would have taken (a process start, an event
dispatch), so they move no heap push; that equality is what keeps every
trajectory identical.  The only pushes gone are the dispatches of the
two-extent WAL commits' writes booked on their join without one.
"""

import pytest

from .helpers import count_calls, silent_part_bookings
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
    time, then a GET of each key — the calls under ``layer`` and the
    heap pushes (``Simulator._seq`` counts one per ``heappush``)."""
    sim, cluster, client = idle_cluster()

    def puts():
        for key in range(REQUESTS):
            yield from client.put("t0", key, 4 * KIB)

    def gets():
        for key in range(REQUESTS):
            assert (yield from client.get("t0", key)) == 4 * KIB

    calls, pushes = {}, {}
    for kind, requests in (("put", puts), ("get", gets)):
        seq0 = sim._seq
        with silent_part_bookings() as silent:
            calls[kind] = count_calls(lambda: drive(sim, requests()), (layer,)) / REQUESTS
        pushes[kind] = (sim._seq - seq0, silent[0])
    assert sum(service.quorum_acks for service in cluster.services.values()) == REQUESTS
    cluster.stop()
    return calls, pushes


@pytest.fixture(scope="module")
def counted():
    net, pushes = per_request("/repro/net/")
    sim, pushes_again = per_request("/repro/sim/")
    assert pushes == pushes_again  # the profiler perturbs nothing
    return net, sim, pushes


def test_heap_pushes_per_request_equal_the_parents(counted):
    """The same-slot rule as a count: 40.445 heap pushes per replicated
    PUT and 4.0325 per GET at the parent; a PUT's drop to 37.4525 is
    exactly the WAL write parts booked without a dispatch."""
    _net, _sim, pushes = counted
    (put, put_silent), (get, get_silent) = pushes["put"], pushes["get"]
    assert (put, get) == (16178 - put_silent, 1613 - get_silent) == (14981, 1613)


def test_calls_per_request_stay_within_budget(counted):
    """Calls per request on the idle cluster (CPython 3.11; 3.12 inlines
    comprehensions and counts fewer):

    ==============  ==========================  ==========================
    request         ``repro/net`` parent / now  ``repro/sim`` parent / now
                    (budget)                    (budget)
    ==============  ==========================  ==========================
    replicated PUT  90.38 / 78.38 (79)          211.93 / 187.93 (188)
    GET             27.00 / 22.00 (22)          14.17 / 14.17 (14.2)
    ==============  ==========================  ==========================

    The parent shipped each record from a process (``_ship_one`` driving
    ``call`` driving ``call_once``), served each ``repl.apply`` from a
    process parked on a per-record event, sent every message through
    a NIC method and built each client request through
    ``_new_trace``/``_payload``/``_note``.  Run against the parent,
    this is the test that fails.
    """
    net, sim, _pushes = counted
    assert net["put"] <= 79 and net["get"] <= 22, net
    assert sim["put"] <= 188 and sim["get"] <= 14.2, sim
