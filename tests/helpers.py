"""Shared test helpers."""

import sys
from contextlib import contextmanager

import numpy as np

from repro.obs import Tracer
from repro.ssd.ftl import UNMAPPED, Ftl


def force_coroutine_path(device):
    """Send every op on ``device`` down the coroutine path.

    ``SsdDevice.submit`` times an op itself only when, among its other
    checks, a queue slot is free: the single-NCQ device takes that slot
    inline, any device with ``_ncq = None`` asks ``_try_admit``.  Routing
    the device through the hook and making the hook refuse sends every
    op to ``_do_op`` — the tests' reference executor — which acquires
    its slot through the same queues.
    ``test_forced_device_runs_every_op_as_a_coroutine`` holds it to that.
    """
    device._ncq = None
    device._try_admit = lambda q: False
    return device


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


@contextmanager
def silent_part_bookings():
    """Count the ops of multi-op file IOs whose outcome a backend booked
    on their ``_Join`` without a heap push (a list of one int).  Each
    such op used to have a completion Event of its own, whose trigger
    always pushed its dispatch, so this is the number of dispatches a
    run no longer makes."""
    from repro.ssd.filesystem import _Join

    silent = [0]
    originals = _Join.succeed, _Join.fail

    def counting(original):
        def book(join, *args):
            seq = join.sim._seq
            original(join, *args)
            silent[0] += join.sim._seq == seq
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
