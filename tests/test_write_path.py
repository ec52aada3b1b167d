"""The durable write path: its call budget, its queued actions as a
count, and the crash races the old commit process lost.

One PUT's durable work is a WAL group commit (``Wal.append`` arms
``_commit_next``; ``_step`` issues ``SimFile.append -> _extend ->`` one
backend write per segment, joined by a counter) plus its share of FLUSH,
COMPACT, WAL retirement and FTL GC.  ``tests/test_request_path.py`` pins a
whole request above the scheduler and ``tests/test_device_op_path.py``
one device op; this file pins the commit and one GC victim, counted the
same way (``sys.setprofile`` ``call`` events, generator resumes
included), and the commit's bytecodes too (``sys.settrace`` ``opcode``
events, on CPython 3.11).  ``tests/test_bulk_rewrites.py`` holds the oracles for the
bulk rewrites.

The commit used to be a ``Process``; it is now a continuation queued
where that process's actions were (its start, and the dispatch of each
group write it waited on).  The two writes of a two-extent commit have
no Event each: only the last one's dispatch is kept, so the kernel's
queued actions per PUT drop by exactly the other writes' dispatches.
"""

import hashlib
import sys

import pytest

from .helpers import count_calls, count_opcodes, queue_counter, silent_part_bookings
from repro.core import (
    IoTag, LibraScheduler, RequestClass, Reservation, make_cost_model, reference_calibration,
)
from repro.engine import EngineConfig, Wal
from repro.faults import CrashError, DeviceWriteError
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.sim import core as sim_core
from repro.ssd import RawBackend, SimFilesystem, SsdDevice, SsdProfile, get_profile
from repro.ssd.ftl import Ftl

KIB = 1024
MIB = 1024 * KIB
TAG = IoTag("t1", RequestClass.PUT)
TINY = SsdProfile(name="tiny-wal", channels=4, logical_capacity=64 * MIB, overprovision=1.0)


def raw_wal():
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=3, precondition=False)
    fs = SimFilesystem(sim, RawBackend(device), capacity=TINY.logical_capacity)
    return sim, Wal(sim, fs, "wal")


# ---------------------------------------------------------------------------
# crash races: an append in the same instant as crash()
# ---------------------------------------------------------------------------


def test_append_after_a_crash_with_a_commit_in_flight_keeps_one_commit():
    """The old loop's ``finally`` ran after the post-crash append had
    started a new loop and cleared its flag: the log read idle while that
    append's write was in flight, so ``quiesced()`` fired and ``retire()``
    passed, and a further append started a second concurrent commit."""
    sim, wal = raw_wal()
    a = wal.append(512, TAG, record=(1, 512))
    sim.step_while(lambda: wal.batches == 0)  # A's group write is in flight
    assert not a.triggered
    assert wal.crash() == 1
    b = wal.append(512, TAG, record=(2, 512))
    sim.run(until=sim.now)  # everything left in the crash's instant
    assert wal.batches == 2 and not b.triggered  # B's write is in flight
    assert wal.busy
    drained = wal.quiesced()
    with pytest.raises(RuntimeError):
        wal.retire()
    c = wal.append(512, TAG, record=(3, 512))
    sim.run(until=sim.now)
    assert wal.batches == 2  # C waits for B's commit instead of racing it
    sim.run(until=sim.now + 1.0)
    assert isinstance(a.value, CrashError)
    assert b.ok and c.ok and drained.ok
    assert wal.batches == 3 and wal.entries == [(2, 512), (3, 512)]
    assert not wal.busy


def test_append_after_a_crash_with_a_commit_armed_is_committed():
    """The old loop, armed but not yet started at the crash, woke up,
    took the post-crash append's batch and was then killed by the pending
    interrupt: that append's event never fired."""
    sim, wal = raw_wal()
    a = wal.append(512, TAG, record=(1, 512))
    assert wal.crash() == 1
    b = wal.append(512, TAG, record=(2, 512))
    sim.run(until=sim.now + 1.0)
    assert isinstance(a.value, CrashError)
    assert b.triggered and b.ok
    c = wal.append(512, TAG, record=(3, 512))
    sim.run(until=sim.now + 1.0)
    assert c.ok and wal.entries == [(2, 512), (3, 512)]


# ---------------------------------------------------------------------------
# a two-extent commit's failures, against the per-part-Event join
# ---------------------------------------------------------------------------


class FailingWrites:
    """A fault injector that is never quiescent, so ``submit`` hands every
    op to ``SsdDevice._run``, and fails the device writes it numbers in
    ``failing`` (from 1, in admission order)."""

    def __init__(self, failing):
        self.failing = failing
        self.writes = 0

    def quiescent(self, now):
        return False

    def stall_until(self, now):
        return now

    def service_scale(self, now):
        return 1.0

    def extra_latency(self, now):
        return 0.0

    def draw_read_fault(self, now, offset, size):
        return None

    def draw_write_fault(self, now, offset, size):
        self.writes += 1
        return DeviceWriteError(f"write {self.writes}") if self.writes in self.failing else None


def two_extent_commit(backend, fault, injected):
    """Commit 1000 bytes, then 4000 (the tail's 3096 bytes and 904 in a
    new extent: two device writes), then 500 more.  ``fault`` fails the
    4000-byte commit's first or second write, or crashes the log once
    its first write has landed.  Returns the waiters' outcomes, the
    device-op log and the model counters."""
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=3, precondition=False)
    ops = []
    device.op_observer = lambda kind, size: ops.append((sim.now, kind, size))
    scheduler = None
    if backend == "scheduler":
        model = make_cost_model("exact", reference_calibration("intel320"))
        scheduler = io = LibraScheduler(sim, device, model)
        scheduler.register_tenant("t1", 1000.0)
    else:
        io = RawBackend(device)
    wal = Wal(sim, SimFilesystem(sim, io, capacity=TINY.logical_capacity), "wal")
    outcomes = []

    def append(name, nbytes):
        done = wal.append(nbytes, TAG, record=(name, nbytes))
        done.callbacks.append(
            lambda ev: outcomes.append((name, sim.now, ev.ok, type(ev.value).__name__))
        )

    append("a", 1000)
    sim.run(until=0.01)
    if injected:
        device.faults = FailingWrites({"first": {1}, "second": {2}}.get(fault, ()))
    append("b", 4000)
    if fault == "crash":
        sim.step_while(lambda: len(ops) < 2)  # b's first write has landed
        assert len(wal.file.extents) == 2 and len(outcomes) == 1
        wal.crash()
    sim.run(until=0.02)
    append("c", 500)
    sim.run(until=0.03)
    counters = {
        "wal": (wal.records, wal.batches, wal.failed_batches, wal.torn_records,
                wal.torn_bytes, wal.entries, wal.size),
        "device": sorted(vars(device.stats).items()),
        "usage": sorted(vars(scheduler.usage("t1")).items()) if scheduler else None,
        "backlog": scheduler.backlog if scheduler else None,
    }
    if scheduler is not None:
        scheduler.stop()
    return outcomes, ops, counters


#: sha256 of ``repr`` of what ``two_extent_commit`` returns, recorded
#: with one completion Event per device write joined by ``_member_done``
#: callbacks; the same with the injector installed or not
COMMIT_DIGESTS = {
    ("scheduler", "first"): "45ef75c8735ed6e5",
    ("scheduler", "second"): "e53cff759fadab8b",
    ("scheduler", "crash"): "77100e9f6c75d379",
    ("scheduler", None): "782fa207b16172e2",
    ("raw", "first"): "6c753fd4de846314",
    ("raw", "second"): "2a9f17cb8ab9c1ce",
    ("raw", "crash"): "037d7561d156fb2a",
    ("raw", None): "36e5000178bd8f16",
}


@pytest.mark.parametrize("backend", ["scheduler", "raw"])
@pytest.mark.parametrize("fault, injected", [
    ("first", True), ("second", True), ("crash", True), ("crash", False),
    (None, True), (None, False),
])
def test_a_two_extent_commit_settles_as_the_per_write_events_did(backend, fault, injected):
    """The scheduler books each write on the join where it triggered the
    write's Event; the raw backend hands the join to the device, whose
    finish action books the write on it."""
    outcomes, ops, counters = two_extent_commit(backend, fault, injected)
    b = {"first": (False, "DeviceWriteError"), "second": (False, "DeviceWriteError"),
         "crash": (False, "CrashError"), None: (True, "NoneType")}[fault]
    assert [(name, ok, err) for name, _at, ok, err in outcomes] == [
        ("a", True, "NoneType"), ("b", *b), ("c", True, "NoneType"),
    ]
    assert [size for _at, _kind, size in ops] == [1000, 3096, 904, 500]
    digest = hashlib.sha256(repr((outcomes, ops, counters)).encode()).hexdigest()[:16]
    assert digest == COMMIT_DIGESTS[backend, fault]


# ---------------------------------------------------------------------------
# the call budget
# ---------------------------------------------------------------------------

COUNTED = ("/repro/engine/", "/repro/ssd/filesystem.py", "/repro/sim/")
#: the WAL's tail page keeps this much slack before the counted commit
SLACK = 2000


def commit(sizes):
    """A WAL with ``SLACK`` bytes left in its tail page, and a callable
    running one group commit of same-instant appends of ``sizes`` to its
    end (the waiters' acknowledgements included)."""
    sim, wal = raw_wal()
    wal.append(4096 - SLACK, TAG, record=(0, 4096 - SLACK))
    sim.run()

    def run():
        events = [wal.append(n, TAG, record=(k, n)) for k, n in enumerate(sizes, 1)]
        sim.run()
        assert wal.batches == 2 and all(event.ok for event in events)

    return wal, run


#: (waiters' sizes, extents the group write spans)
COMMITS = {
    "one waiter, one extent": ([1000], 1),
    "eight waiters, one extent": ([200] * 8, 1),
    "one waiter, two extents": ([3000], 2),
}


def test_group_commit_calls_stay_within_budget():
    """Calls under ``repro/engine``, ``repro/ssd/filesystem.py`` and
    ``repro/sim`` for one group commit on an idle raw device (CPython
    3.11; 3.12 inlines comprehensions and counts fewer), and, on 3.11,
    its bytecodes there, exactly:

    =========================  =====  ======  =========  =========
    group commit               calls  budget  bytecodes  bytecodes
                                              (parent)   (change)
    =========================  =====  ======  =========  =========
    one waiter, one extent        18      20        595        595
    eight waiters, one extent     53      55      1 519      1 519
    one waiter, two extents       24      24        906        939
    =========================  =====  ======  =========  =========

    The counts include the device's own events and the run loop.  Each
    device write queues its finish through ``Simulator.call_at``, and a
    two-extent commit's ``_Join`` queues its trigger the same way.  Both
    writes of a two-extent commit book straight into the ``_Join`` and
    only the last queues an action.  Each waiter costs its append, its
    event and its acknowledgement.  The two-extent commit cuts its new
    extent from the volume's one big hole, so it also updates the
    filesystem's big-hole index.
    """
    per_commit = {}
    for name, (sizes, extents) in COMMITS.items():
        wal, run = commit(sizes)
        per_commit[name] = count_calls(run, COUNTED)
        assert len(wal.file.extents) == extents, name
    assert per_commit["one waiter, one extent"] <= 20, per_commit
    assert per_commit["eight waiters, one extent"] <= 55, per_commit
    assert per_commit["one waiter, two extents"] <= 24, per_commit
    if sys.version_info[:2] != (3, 11):
        pytest.skip("bytecode counts are pinned for CPython 3.11: another version "
                    "compiles the same source to other bytecode")
    opcodes = {}
    for name, (sizes, _extents) in COMMITS.items():
        _wal, run = commit(sizes)
        opcodes[name] = count_opcodes(run, COUNTED)
    assert opcodes == {
        "one waiter, one extent": 595, "eight waiters, one extent": 1519,
        "one waiter, two extents": 939,
    }


def test_group_commit_spawns_no_process_and_builds_no_allof(monkeypatch):
    built = []
    for cls in (sim_core.Process, sim_core.AllOf):
        init = cls.__init__

        def counting(self, *args, _init=init, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    for sizes, _extents in COMMITS.values():
        _wal, run = commit(sizes)
        run()
    assert built == []


def victim_with(live):
    """An FTL whose one closed block holds ``live`` live pages, with an
    open GC block on every channel that has room for all of them."""
    ftl = Ftl(SsdProfile(name="tiny-gc", channels=4, logical_capacity=16 * MIB,
                         overprovision=0.5), seed=1)
    per_block = ftl.pages_per_block
    for page in range(per_block + 1):  # the last page closes the block
        ftl._append_page(page, 0)
    for page in range(live, per_block):
        ftl.trim(page * ftl.page_size, ftl.page_size)
    for chan in range(ftl.channels):
        ftl._gc_active[chan] = ftl._allocate_block(chan)
    return ftl


def test_gc_victim_calls_do_not_grow_with_live_pages():
    """Python calls under ``repro/ssd`` for one ``collect_victim``: 8
    whether 8 or 56 of the victim's 64 pages are live.  The parent
    walked the listed pages and made one ``_append_page`` call per live
    one (15 and 63)."""
    calls = {}
    for live in (8, 56):
        ftl = victim_with(live)
        moves = []
        calls[live] = count_calls(lambda: moves.append(ftl.collect_victim()), ("/repro/ssd/",))
        assert moves[0].valid_pages == live
    assert calls[8] == calls[56] <= 8, calls


# ---------------------------------------------------------------------------
# the same-slot rule as a count
# ---------------------------------------------------------------------------

#: a tree small enough that FLUSH and COMPACT both fire
SMALL_TREE = EngineConfig(
    memtable_bytes=256 * KIB, level1_bytes=1 * MIB, max_output_file_bytes=256 * KIB,
)
WRITERS = 4
PUTS = 400  # per writer


def test_queued_actions_per_put_equal_the_parents():
    """4 writers x 400 PUTs of 4 KiB on a 64 MiB node: group commits of
    several waiters, FLUSH, COMPACT, WAL retirement and FTL GC all run.
    7 102 queued actions (4.43875 per PUT) at an earlier parent, 6 343
    after it: the 759 dispatches gone are the writes booked on a join
    without one.  6 083 since: 111 went with the processes that ran ops
    arriving while GC ran, and 149 with the Event each GC progress
    signal queued to wake starved writes.  Of the 6 083, 2 363 are heap
    pushes (future actions) and 3 720 same-instant enqueues."""
    sim = Simulator()
    node = StorageNode(
        sim, profile=get_profile("intel320").with_capacity(64 * MIB),
        config=NodeConfig(engine=SMALL_TREE), seed=5,
    )
    node.add_tenant("t1", Reservation(gets=2000.0, puts=2000.0))

    def writer(lane):
        for i in range(PUTS):
            yield from node.put("t1", (lane * 7919 + i * 31) % 3000, 4 * KIB)

    engine = node.engines["t1"]
    batches = []
    engine.subscribe_wal(lambda records: batches.append(len(records)))
    queued = queue_counter(sim)
    with silent_part_bookings() as silent:
        writers = [sim.process(writer(lane)) for lane in range(WRITERS)]
        sim.step_while(lambda: any(proc.is_alive for proc in writers))
    assert all(proc.ok for proc in writers)
    assert engine.stats.flushes > 3 and engine.stats.compactions > 0
    assert node.device.stats.gc_runs > 0
    assert sum(batches) == WRITERS * PUTS and max(batches) > 1
    assert silent[0] == 759
    assert queued() == (2363, 3720)
