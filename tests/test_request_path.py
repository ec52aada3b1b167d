"""The request path above the scheduler: its call budget, and the
behaviour a rewrite of it could drop without any digest noticing.

One request runs ``StorageNode.get/put/scan -> LsmEngine.get/put/scan
-> SimFile.read/append`` before it becomes a device op; the failure
policy's generators (``StorageNode._execute``, ``LsmEngine._read_verified``)
are entered only after a fault, while the tenant is down, under a budget,
or — for block reads — with a tracer installed (a scan always verifies
through ``_read_verified``).  ``tests/test_device_op_path.py`` pins the calls *below*
``LibraScheduler.read/write``; this file pins the ones above it, counted
the same way (``sys.setprofile`` ``call`` events, generator resumes
included — what kvbench reports as ``node.calls_per_req`` and
``engine.calls_per_req``).
"""

import pytest

from .helpers import count_calls
from repro.core import IoTag, RequestClass, Reservation
from repro.engine import EngineConfig
from repro.faults import (
    DeviceReadError, FaultKind, FaultPlan, FaultWindow, RetriesExhausted,
)
from repro.node import NodeConfig, StorageNode
from repro.obs import Observability, Tracer
from repro.sim import Simulator
from repro.ssd import get_profile

KIB = 1024
MIB = 1024 * KIB
SMALL = get_profile("intel320").with_capacity(64 * MIB)
#: one rotation per 256 one-KiB objects
ENGINE = EngineConfig(memtable_bytes=256 * KIB)
FLUSHED = 256  # keys [0, 256) end up in the one SSTable ...
LOADED = 300  # ... and [256, 300) stay in the memtable


class TagLog:
    """An IO backend that records every tag on its way to the scheduler."""

    def __init__(self, backend):
        self.backend = backend
        self.tags = []

    def read(self, offset, size, tag=None, done=None):
        self.tags.append(tag)
        return self.backend.read(offset, size, tag, done)

    def write(self, offset, size, tag=None, done=None):
        self.tags.append(tag)
        return self.backend.write(offset, size, tag, done)

    def trim_extents(self, extents):
        self.backend.trim_extents(extents)


def drive(sim, gen):
    """Run one process to its end; returns its value or raises its error."""
    proc = sim.process(gen)
    sim.step_while(lambda: proc.is_alive)
    if not proc.ok:
        raise proc.value
    return proc.value


def loaded_node(**kwargs):
    """A one-tenant node holding ``LOADED`` one-KiB objects: the first
    ``FLUSHED`` in one L0 table with its index resident, the rest in the
    memtable.  ``node.fs.backend`` is a :class:`TagLog`."""
    sim = Simulator()
    config = kwargs.pop("config", None) or NodeConfig(engine=ENGINE)
    node = StorageNode(sim, profile=SMALL, config=config, seed=3, **kwargs)
    node.add_tenant("t1", Reservation(gets=2000.0, puts=2000.0))

    def load():
        for key in range(LOADED):
            yield from node.put("t1", key, KIB)
        yield sim.timeout(0.5)  # the FLUSH lands
        yield from node.get("t1", 0)  # pays the table's index-block read

    drive(sim, load())
    engine = node.engines["t1"]
    assert engine.stats.flushes == 1 and engine.immutable is None
    assert engine.version.file_count == 1 and len(engine.memtable) == LOADED - FLUSHED
    node.fs.backend = TagLog(node.fs.backend)
    return sim, node


# ---------------------------------------------------------------------------
# the call budget
# ---------------------------------------------------------------------------

COUNTED = ("/repro/node/", "/repro/engine/", "/repro/ssd/filesystem.py")


def test_calls_per_request_stay_within_budget():
    """An idle one-tenant node serving 1000 requests of a kind, one at a
    time.

    Interpreted calls per request under ``repro/node``, ``repro/engine``
    and ``repro/ssd/filesystem.py`` (CPython 3.11; 3.12 inlines
    comprehensions and counts fewer):

    ==========================  ======  ======  ======
    request                     parent  change  budget
    ==========================  ======  ======  ======
    GET, object-cache hit         3.00    3.00       3
    GET, memtable hit             4.00    4.00       4
    GET, SSTable, index cached   11.00   11.00      11
    PUT, no rotation             16.27   16.02    16.1
    scan(k, k + 64, limit=32)    13.48   13.32    13.4
    ==========================  ======  ======  ======

    The parent joined a file IO split over several device ops through
    ``_join`` and one ``_member_done`` per op; now the ops book straight
    into the ``_Join`` (a quarter of the PUTs' WAL commits and the scans'
    straddling reads).  Before it, a parent drove every request through
    ``StorageNode._execute`` and
    every GET block read through ``LsmEngine._read_verified`` — two
    generator frames a healthy request parked in and resumed through —
    called ``_ref``, ``_index_cache_hit``, ``_hit_or_miss`` and
    ``LatencyRecorder.record`` as functions, ran a PUT as a ``put``
    generator around ``_write`` and read ``Memtable.full`` as a property
    twice per PUT.  The first attempt now runs in the request's own
    frames, those bodies sit in their callers, ``LsmEngine.put`` checks
    its arguments and returns ``_write``'s generator, and ``full`` is an
    attribute.  A cache hit is still the request, the LRU lookup and the
    one booking function.  Earlier
    rewrites had already taken one tenant lookup per request, a frozen
    ``IoTag`` and a closure per request, an idle ``_bounded`` frame, a
    generator-driven table walk and a scan that bisected each table
    twice out of these lanes.  The counts repeat exactly, so the
    budget fails at the parent and catches any of that creeping back.
    The SSTable lane also checks there is no per-request tag: with
    tracing off, all 1000 GETs' device reads carry one tag object.
    """
    sim, node = loaded_node()
    _sim, cached = loaded_node(config=NodeConfig(engine=ENGINE, cache_bytes=8 * MIB))
    assert len(cached.cache) == LOADED  # every loaded key is resident
    hits_before = cached.stats("t1").cache_hits

    def serve(target, request, count=1000):
        def one_at_a_time():
            for i in range(count):
                yield from request(target, i)

        return count_calls(lambda: drive(target.sim, one_at_a_time()), COUNTED) / count

    memtable_keys = LOADED - FLUSHED
    per_request = {
        "cache_hit": serve(cached, lambda n, i: n.get("t1", i % LOADED)),
        "memtable": serve(node, lambda n, i: n.get("t1", FLUSHED + i % memtable_keys)),
        "sstable": serve(node, lambda n, i: n.get("t1", i * 37 % FLUSHED)),
        # overwrites of memtable keys at their size: it never fills
        "put": serve(node, lambda n, i: n.put("t1", FLUSHED + i % memtable_keys, KIB)),
        "scan": serve(node, lambda n, i: n.scan("t1", i % 200, i % 200 + 64, limit=32)),
    }
    stats = node.engines["t1"].stats
    assert stats.flushes == 1 and stats.index_probes == stats.index_cache_hits + 1
    assert cached.stats("t1").cache_hits - hits_before == 1000
    assert per_request["cache_hit"] <= 3, per_request
    assert per_request["memtable"] <= 4, per_request
    assert per_request["sstable"] <= 11, per_request
    assert per_request["put"] <= 16.1, per_request
    assert per_request["scan"] <= 13.4, per_request
    get_tags = [tag for tag in node.fs.backend.tags if tag.request is RequestClass.GET]
    assert len(get_tags) > 2000 and len({id(tag) for tag in get_tags}) == 1


# ---------------------------------------------------------------------------
# behaviour the digests do not reach
# ---------------------------------------------------------------------------


def test_unknown_tenant_raises_the_same_keyerror_from_every_request_method():
    _sim, node = loaded_node()
    message = "unknown tenant 'nobody' on node0; have ['t1']"
    for request in (
        node.get("nobody", 1),
        node.put("nobody", 1, KIB),
        node.scan("nobody", 1, 9),
        node.delete("nobody", 1),
        node.apply_replica("nobody", 1, KIB),
        node.read_replica("nobody", 1),
    ):
        with pytest.raises(KeyError) as caught:
            next(request)
        assert caught.value.args == (message,)
    for call in (node.crash, lambda name: next(node.restart(name))):
        with pytest.raises(KeyError) as caught:
            call("nobody")
        assert caught.value.args == (message,)


def test_negative_scan_limit_raises_before_any_io():
    """``limit=-1`` used to return all rows but the last."""
    sim, node = loaded_node()
    assert len(drive(sim, node.scan("t1", 0, 9))) == 10
    reads = len(node.fs.backend.tags)
    with pytest.raises(ValueError, match="limit"):
        drive(sim, node.scan("t1", 0, 9, limit=-1))
    assert len(node.fs.backend.tags) == reads
    assert drive(sim, node.scan("t1", 0, 9, limit=0)) == []
    assert node.stats("t1").errors == 0


def test_untraced_requests_share_a_tag_value_and_traced_ones_carry_their_own_id():
    sim, node = loaded_node()
    drive(sim, node.get("t1", 5))
    drive(sim, node.put("t1", 5, KIB))
    drive(sim, node.delete("t1", 6))
    assert set(node.fs.backend.tags) == {
        IoTag("t1", RequestClass.GET), IoTag("t1", RequestClass.PUT),
        IoTag("t1", RequestClass.DELETE),
    }
    assert all(tag.trace is None for tag in node.fs.backend.tags)

    tracer = Tracer()
    sim, node = loaded_node(obs=Observability(tracer=tracer))
    first = tracer._next_trace
    # Two GETs in flight at once, then a PUT and a forwarded GET that
    # arrives with its client's id.
    readers = [sim.process(node.get("t1", key)) for key in (10, 20)]
    sim.step_while(lambda: any(proc.is_alive for proc in readers))
    drive(sim, node.put("t1", 5, KIB))
    drive(sim, node.get("t1", 30, trace=4242))
    by_trace = {}
    for tag in node.fs.backend.tags:
        by_trace.setdefault(tag.trace, set()).add(tag.request)
    assert by_trace == {
        first + 1: {RequestClass.GET}, first + 2: {RequestClass.GET},
        first + 3: {RequestClass.PUT}, 4242: {RequestClass.GET},
    }
    # ... and each request's node span carries the id its IO carried
    spans = {(span[0], span[6]) for span in tracer.select(cat="node")}
    assert {("get", first + 1), ("get", first + 2), ("put", first + 3), ("get", 4242)} <= spans


def test_execute_reinvokes_the_op_with_the_same_arguments():
    """Device reads fail for 5 ms, then succeed: the retry loop makes a
    fresh attempt per try, for the same key under the same tag."""
    plan = FaultPlan(seed=1)
    sim, node = loaded_node(fault_plan=plan)
    plan.add(FaultWindow(FaultKind.READ_ERROR, sim.now, sim.now + 0.005, probability=1.0))
    key = 77
    assert drive(sim, node.get("t1", key)) == KIB
    stats = node.stats("t1")
    # default backoff 2 ms, doubling: attempts at +0, +2 and +6 ms
    assert (stats.retries, stats.errors, stats.gets) == (2, 0, 2)
    reads = node.fs.backend.tags
    assert len(reads) == 3 and set(reads) == {IoTag("t1", RequestClass.GET)}
    assert node.engines["t1"].stats.gets == 1 + 3  # the load's GET, then one per attempt

    plan.add(FaultWindow(FaultKind.READ_ERROR, sim.now, sim.now + 10.0, probability=1.0))
    with pytest.raises(RetriesExhausted) as caught:
        drive(sim, node.get("t1", key))
    assert isinstance(caught.value.__cause__, DeviceReadError)
    assert (stats.retries, stats.errors, stats.gets) == (2 + 5, 1, 2)


def test_get_issued_while_crashed_waits_for_the_restart():
    sim, node = loaded_node()
    node.crash("t1")
    reader = sim.process(node.get("t1", FLUSHED + 1))  # lives in the WAL
    sim.run(until=sim.now + 1.0)
    stats = node.stats("t1")
    assert not reader.triggered and stats.crash_waits == 1
    replayed = drive(sim, node.restart("t1"))
    sim.step_while(lambda: reader.is_alive)
    assert replayed == LOADED - FLUSHED
    assert reader.ok and reader.value == KIB
    assert (stats.crashes, stats.crash_waits, stats.retries) == (1, 1, 0)
