"""The message path of a replicated cluster: its call budget, and the
same-slot and tail rules as a count.

A replicated PUT runs client -> fabric -> ``RpcEndpoint`` -> the
primary's ``PrimaryBackupService`` -> local write -> one shipment per backup ->
``repl.apply`` on each backup -> acks -> quorum -> reply; a GET is one
round trip to the primary.  ``tests/test_request_path.py`` pins the calls
below ``StorageNode``; this file pins the ones in ``repro/net`` and
``repro/sim``, counted the same way (``sys.setprofile`` ``call`` events,
generator resumes included — what kvbench reports as
``net.calls_per_req`` and ``sim.calls_per_req``).

Shipments and backup acks relay a continuation in the heap slot the
coroutine they replaced would have taken (a process start, an event
dispatch); that equality is what keeps every trajectory identical.  A
delivery's own continuation — a waiter's wake-up, a serve process's or
a ``repl.apply`` handler's start, the backup's drain start — is the
delivery's tail, so it goes through ``Simulator.call_soon``: run in the
delivery's frame when nothing else is due at that instant (on this idle
cluster, always), queued in the slot ``call_at(now)`` would take when
something is.
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


def test_heap_pushes_per_request_are_the_parents_less_the_tails(counted):
    """The tail rule as a count: 37.4525 heap pushes per replicated PUT
    and 4.0325 per GET at the parent, 29.4525 and 2.0325 now.  A PUT
    drops exactly its eight tails — the primary's serve start, and per
    backup the ``repl.apply`` handler, the drain start and the ack's
    classification, and the client's wake-up — and a GET its two: the
    serve start and the wake-up.  The WAL write parts booked on their
    join without a dispatch stay as they were."""
    _net, _sim, pushes = counted
    (put, put_silent), (get, get_silent) = pushes["put"], pushes["get"]
    assert (put, get) == (14981 - 8 * REQUESTS, 1613 - 2 * REQUESTS) == (11781, 813)
    assert (put_silent, get_silent) == (1197, 0)


def test_calls_per_request_stay_within_budget(counted):
    """Calls per request on the idle cluster (CPython 3.11; 3.12 inlines
    comprehensions and counts fewer):

    ==============  ==========================  ==========================
    request         ``repro/net`` parent / now  ``repro/sim`` parent / now
                    (budget)                    (budget)
    ==============  ==========================  ==========================
    replicated PUT  78.38 / 77.38 (77.4)        95.10 / 85.06 (85.1)
    GET             22.00 / 21.00 (21)          14.17 / 12.17 (12.2)
    ==============  ==========================  ==========================

    At the parent every delivery's continuation took a heap slot of its
    own, which the test's ``step_while`` drive paid one predicate call
    for (a tail now pays one ``call_soon`` call instead); each message
    was pushed through ``call_at`` and handed to its handler by
    ``_deliver``'s lookup; and a live cached route went through
    ``_call_primary``'s round loop, a generator frame resumed twice per
    request.  Run against the parent, this is the test that fails.
    """
    net, sim, _pushes = counted
    assert net["put"] <= 77.4 and net["get"] <= 21, net
    assert sim["put"] <= 85.1 and sim["get"] <= 12.2, sim
