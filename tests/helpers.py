"""Shared test helpers."""

import signal
import sys
from collections import deque
from contextlib import contextmanager

import numpy as np

from repro.obs import Tracer
from repro.ssd import OutOfSpace, StagePipeline
from repro.ssd.ftl import UNMAPPED, Ftl


@contextmanager
def hang_guard(seconds):
    """Raise TimeoutError in the block if it runs longer than ``seconds``
    of wall time, so a test of a loop that could spin forever fails
    instead of hanging the suite (POSIX ``SIGALRM``; main thread only)."""
    class Expired(BaseException):
        pass

    def expire(_signum, _frame):
        raise Expired

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except Expired:
        # Raised afresh here: the interrupted frames' traceback entries
        # can lack line numbers, which pytest cannot format.
        raise TimeoutError(f"still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def record_bookings(device):
    """Log every reservation on ``device``'s stage accumulators, in
    booking order, as ``(at, q, ctrl, services, finish, op)``: ``op`` is
    the host op's ``(is_read, size)``, None for GC copy/erase traffic.
    Call it before the device books anything."""
    log, planned = [], []
    plan = device._plan

    def planning(is_read, offset, size, scale=1.0):
        planned.append((is_read, size))
        return plan(is_read, offset, size, scale)

    class Logged(StagePipeline):
        def reserve(self, at, q, ctrl, services, spans=None):
            finish = StagePipeline.reserve(self, at, q, ctrl, services, spans)
            op = planned.pop() if q is not None else None
            log.append((at, q, ctrl, tuple(services), finish, op))
            return finish

    device._plan = planning
    device._pipe = Logged(device._pipe.lanes, device._pipe.chans)
    return log


def fifo_completions(log, fault_plan=None, until=None):
    """The host ops' completion instants ``(at, is_read, size)``, sorted,
    recomputed from :func:`record_bookings`'s log alone: each booking
    clears controller lane ``q`` FIFO from its dispatch instant, then
    each channel FIFO from there, and completes at the latest stage end
    plus the latency windows active at dispatch.  Asserts each booking's
    finish is that model's; drops completions after ``until``."""
    lanes, chans, done = {}, {}, []
    for at, q, ctrl, services, finish, op in log:
        ready = at
        if q is not None:
            ready = max(at, lanes.get(q, 0.0)) + ctrl
            lanes[q] = ready
        end = ready
        for chan, service in services:
            chans[chan] = max(ready, chans.get(chan, 0.0)) + service
            end = max(end, chans[chan])
        assert end == finish, (at, q, end, finish)
        if op is not None:
            extra = fault_plan.extra_latency(at) if fault_plan is not None else 0.0
            instant = at + ((end + extra) - at)
            if until is None or instant <= until:
                done.append((instant, *op))
    return sorted(done)


def run_alone(device, is_read, offset, size, ctx=None):
    """Latency of one op submitted to ``device`` with nothing else
    queued, run to its completion: the idle-device oracle.  Called in
    turn on a twin, it prices a sequence of ops each on an idle device
    whose FTL state follows the sequence."""
    sim = device.sim
    start = sim.now
    done = []
    device.submit(is_read, offset, size, ctx, lambda _arg, result: done.append(sim.now), None)
    sim.run()
    assert len(done) == 1
    return done[0] - start


def queue_state(device):
    """Per host queue of ``device`` (the SATA model's one NCQ, or each
    NVMe SQ), in queue order: ``occupied`` slots, ops in ``slot_wait``
    for a slot, and ops in ``tag_wait`` holding a slot but waiting for a
    command tag (NVMe only)."""
    depth = device.profile.queue_depth
    if device._one_queue:
        return {"occupied": [depth - device._ncq_free],
                "slot_wait": [len(device._ncq_wait)], "tag_wait": [0]}
    return {"occupied": [depth - free for free in device._free],
            "slot_wait": [len(wait) for wait in device._sq_wait],
            "tag_wait": [len(wait) for wait in device._fetch_wait]}


def observe_completions(device):
    """Every host op's completion ``(now, is_read, size)``, as the op
    observer sees it (success or injected fault)."""
    seen = []
    device.op_observer = lambda kind, size: seen.append((device.sim.now, kind == "read", size))
    return seen


def force_policy_path(node):
    """Send every request attempt on ``node`` through the failure-policy
    generators: ``StorageNode._execute`` (retries, crash wait, budget)
    and ``LsmEngine._read_verified`` (checksum re-reads).

    A request makes its first attempt in its own frame unless the node's
    ``_inline`` is clear, and ``LsmEngine.get`` reads a block in
    its own frame unless a tracer is installed, so each engine without
    one gets a tracer of its own (observation only: its spans are never
    read).  Call it after the tenants are added.
    ``test_policy_path_gives_the_inline_path_digests`` holds the two
    paths to one digest.
    """
    node._inline = False
    for engine in node.engines.values():
        if engine.tracer is None:
            engine.tracer = Tracer()
    return node


class _CountingFifo(deque):
    """A :class:`~repro.sim.Simulator`'s FIFO of actions due now that
    counts what is appended to it: the same-instant enqueues."""

    enqueued = 0

    def append(self, action):
        self.enqueued += 1
        deque.append(self, action)


def queue_counter(sim):
    """Count what ``sim`` queues from here on.

    Returns a function giving ``(heap pushes, same-instant enqueues)``
    since this call; the queued actions are their sum.  ``Simulator._seq``
    counts one per heap push.  Call it between runs, not inside one.
    """
    fifo = sim._ready = _CountingFifo(sim._ready)
    seq0 = sim._seq
    return lambda: (sim._seq - seq0, fifo.enqueued)


@contextmanager
def silent_part_bookings():
    """Count the ops of multi-op file IOs whose outcome a backend booked
    on their ``_Join`` without queueing an action (a list of one int).
    Each such op used to have a completion Event of its own, whose
    trigger always queued its dispatch, so this is the number of
    dispatches a run no longer makes."""
    from repro.ssd.filesystem import _Join

    silent = [0]
    originals = _Join.succeed, _Join.fail

    def counting(original):
        def book(join, *args):
            sim = join.sim
            queued = sim._seq, len(sim._ready)
            original(join, *args)
            silent[0] += (sim._seq, len(sim._ready)) == queued
        return book

    _Join.succeed, _Join.fail = map(counting, originals)
    try:
        yield silent
    finally:
        _Join.succeed, _Join.fail = originals


def count_calls(run, path_parts, functions=None):
    """Python ``call`` events (generator resumes included) during
    ``run()`` whose code lives in a file whose path contains one of
    ``path_parts`` — what kvbench reports as a layer's ``calls_per_req``
    — narrowed to the code objects named in ``functions`` if given."""
    calls = [0]

    def profiler(frame, event, _arg):
        if event == "call":
            code = frame.f_code
            if functions is not None and code.co_name not in functions:
                return
            filename = code.co_filename.replace("\\", "/")
            if any(part in filename for part in path_parts):
                calls[0] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls[0]


def count_opcodes(run, path_parts, functions=None):
    """Bytecodes executed during ``run()`` by code in a file whose path
    contains one of ``path_parts`` (generator resumes included),
    narrowed to the code objects named in ``functions`` if given: the
    ``sys.settrace`` twin of :func:`count_calls`, counting each frame's
    ``opcode`` events.  The count is exact for one interpreter version,
    which compiles the same source to the same bytecode every time."""
    count = [0]

    def local(frame, event, _arg):
        if event == "opcode":
            count[0] += 1
        return local

    def tracer(frame, event, _arg):
        code = frame.f_code
        if functions is not None and code.co_name not in functions:
            return None
        filename = code.co_filename.replace("\\", "/")
        if not any(part in filename for part in path_parts):
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return count[0]


def page_range(ftl, offset, size):
    """The logical pages of the host IO ``[offset, offset + size)``, as
    the page-by-page FTL oracles walk them; ValueError when ``Ftl``
    would reject the range."""
    page = ftl.page_size
    last = (offset + size - 1) // page
    if not (0 < size and 0 <= offset and last < ftl.logical_pages):
        ftl._reject(offset, size)
    return range(offset // page, last + 1)


def read_channels_per_page(ftl, offset, size):
    """The per-page loop ``Ftl.read_channels`` used to be, reading the
    page map itself (the oracle for the read-channel map)."""
    page = ftl.page_size
    nchan = ftl.channels
    per_chan_pages = [0] * nchan
    per_chan_bytes = [0] * nchan
    end = offset + size
    for p in page_range(ftl, offset, size):
        block = ftl.page_to_block[p]
        chan = int(ftl.block_channel[block]) if block != UNMAPPED else p % nchan
        per_chan_pages[chan] += 1
        per_chan_bytes[chan] += min(end, (p + 1) * page) - max(offset, p * page)
    return [
        (c, per_chan_pages[c], per_chan_bytes[c])
        for c in range(nchan)
        if per_chan_pages[c]
    ]


def linear_first_fit(fs, want):
    """``SimFilesystem._allocate`` as it was before the big-hole index:
    a walk over every hole of ``fs._free`` in offset order, else the
    largest hole, the lowest on ties.  Keeps ``_free`` and the byte
    counter only."""
    free = fs._free
    for i, (off, length) in enumerate(free):
        if length >= want:
            if length == want:
                free.pop(i)
            else:
                free[i] = (off + want, length - want)
            fs._free_bytes -= want
            return off, want
    if not free:
        raise OutOfSpace("filesystem full")
    i = max(range(len(free)), key=lambda j: free[j][1])
    off, length = free.pop(i)
    fs._free_bytes -= length
    return off, length


def ftl_state(ftl):
    """Everything the FTL knows, in comparable form."""
    return {
        "page_to_block": ftl.page_to_block.tolist(),
        "block_valid": ftl.block_valid.tolist(),
        "block_channel": ftl.block_channel.tolist(),
        "block_seq": ftl.block_seq.tolist(),
        "block_pages": [list(log) for log in ftl.block_pages],  # order included
        "free_blocks": list(ftl.free_blocks),
        "host_cursor": ftl._host_cursor,
        "gc_cursor": ftl._gc_cursor,
        "host_active": ftl._host_active,
        "host_fill": ftl._host_fill,
        "gc_active": ftl._gc_active,
        "gc_fill": ftl._gc_fill,
        "write_seq": ftl.write_seq,
        "emergency_gcs": ftl.emergency_gcs,
        "rng": ftl.rng.getstate(),
    }


def assert_same_state(ftl, ref, where):
    got, want = ftl_state(ftl), ftl_state(ref)
    for field in want:
        assert got[field] == want[field], f"{field} differs {where}"


def cost_benefit_scores(ftl):
    """``costbenefit``'s score of every block, as that policy computed
    it before ``FtlPolicy.victim_key``: ``(1 - u) * age / (1 + u)`` for
    a closed block, -1 for a free or open one."""
    u = ftl.block_valid / float(ftl.profile.pages_per_block)
    age = (ftl.write_seq - ftl.block_seq).astype(np.float64)
    score = np.where(ftl.block_channel >= 0, (1.0 - u) * age / (1.0 + u), -1.0)
    score[[b for b in ftl.active_blocks() if b is not None]] = -1.0
    return score


def reference_victim(ftl):
    """A built-in policy's victim, picked as it was before
    ``FtlPolicy.victim_key``: the closed block with the highest
    :func:`cost_benefit_scores` score under ``costbenefit``, with the
    fewest live pages under ``greedy`` and ``hotcold``; ties go to the
    lowest block index."""
    if ftl.policy.name == "costbenefit":
        score = cost_benefit_scores(ftl)
        victim = int(np.argmax(score))
        return victim if score[victim] >= 0.0 else None
    cost = np.where(ftl.block_channel >= 0, ftl.block_valid, 1 << 30)
    cost[[b for b in ftl.active_blocks() if b is not None]] = 1 << 30
    victim = int(np.argmin(cost))
    return victim if cost[victim] < 1 << 30 else None


def assert_counts_are_the_map(ftl):
    """Every block's live count is the number of pages the map names it
    for: a count that no map entry names is a leaked one, never
    reclaimed until its block is erased."""
    mapped = ftl.page_to_block[ftl.page_to_block != UNMAPPED]
    held = np.bincount(mapped, minlength=len(ftl.block_valid))
    leaked = np.flatnonzero(ftl.block_valid != held)
    assert not len(leaked), [(int(b), int(ftl.block_valid[b]), int(held[b])) for b in leaked]


class PerVictimGcFtl(Ftl):
    """``Ftl._sync_gc`` as it was before the burst pass: one
    ``collect_victim`` per victim, the watermark checked after each,
    each victim picked by :func:`reference_victim`.  Everything else —
    the batched host appends of ``precondition`` included — is
    ``Ftl``'s own, so the two differ in GC alone."""

    def pick_victim(self):
        return reference_victim(self)

    def _sync_gc(self):
        while not self.gc_satisfied:
            if self.collect_victim() is None:
                break
