"""The O(1)-call device-op path, checked against what it replaced.

One device op runs ``LibraScheduler._submit -> _dispatch ->
SsdDevice.submit -> _plan -> Ftl.host_write/read_channel -> reserve``,
then ``_finish_fast -> _complete`` (the pump only when a chunk waits).
Two pieces of that path were rewritten for host speed, and both old
spellings stay here as the references the new ones must equal:

- *FTL*: :class:`ReferenceFtl` updates the page map page by page (every
  page of a write, TRIM or preconditioning through the scalar
  ``_append_page``, with one ``randrange`` per aging page); the new FTL
  updates it once per op, and preconditions in batches between GC
  runs.  A seeded op mix must leave both in the same state, RNG
  included, return the same ``WritePlan``/``GcMove`` values, and agree
  on the emergency-GC path the batched lane's pool guard exists for;
- *scheduler*: :class:`ReferencePump` queues every chunk and answers
  "who is eligible" and "is the round open" with two scans per pump
  (``_next_eligible`` and ``_round_open``); the new pump makes one lap,
  and ``_submit`` dispatches a chunk that finds nothing eligible ahead
  of it without queueing it.  Twin schedulers on twin devices must
  dispatch the same chunks at the same instants;
- *call budgets*: interpreted calls per chunk under ``repro/core``,
  ``repro/ssd`` and ``repro/sim``, and per preconditioned device under
  ``repro/ssd``, counted with ``sys.setprofile``.  Counts repeat
  exactly, so the budgets are tier-1's twin of kvbench's
  ``calls_per_req``.
"""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from .helpers import (
    PerVictimGcFtl, assert_same_state, count_calls, page_range, read_channels_per_page,
)
from repro.core import (
    IoTag, LibraScheduler, SchedulerConfig, make_cost_model, reference_calibration,
)
from repro.core.scheduler import _Chunk, _Split
from repro.sim import Event, Simulator
from repro.ssd import SsdDevice, SsdProfile, get_profile
from repro.ssd.ftl import UNMAPPED, Ftl, WritePlan

KIB = 1024
MIB = 1024 * KIB
POLICIES = ("greedy", "costbenefit", "hotcold")
INTEL = get_profile("intel320").with_capacity(32 * MIB)


# ---------------------------------------------------------------------------
# FTL: per-op map updates against the page-by-page walk
# ---------------------------------------------------------------------------


class ReferenceFtl(PerVictimGcFtl):
    """``host_write``, ``trim`` and ``precondition`` as they were before
    the per-op update and the batched preconditioning: one
    ``_append_page`` (or one scalar unmap) per logical page, one
    ``randrange`` per aging page, the watermark checked after every
    preconditioning page, and GC one victim at a time.  ``trim`` unmaps
    ``page_to_block`` alone, so ``read_channels`` is the per-page walk
    over that map too, not a read of the read-channel map."""

    def host_write(self, offset, size):
        pages = page_range(self, offset, size)
        stream = self.policy.route(self, pages) if self._routed else 0
        nchan = self.profile.channels
        stripe = self.profile.stripe_pages
        programs = [0] * nchan
        cursor = self._host_cursor
        start = cursor[stream]
        cursor[stream] = (start + 1) % nchan
        for i, p in enumerate(pages):
            chan = (start + i // stripe) % nchan
            self._append_page(p, gc=False, channel=chan, stream=stream)
            programs[chan] += 1
        if self._routed:
            self.policy.note_host_write(self, pages)
        return WritePlan(
            programs=[(c, n) for c, n in enumerate(programs) if n],
            pages=len(pages),
        )

    def read_channels(self, offset, size):
        return read_channels_per_page(self, offset, size)

    def trim(self, offset, size):
        freed = 0
        for p in page_range(self, offset, size):
            block = self.page_to_block[p]
            if block != UNMAPPED:
                self.block_valid[block] -= 1
                self.page_to_block[p] = UNMAPPED
                freed += 1
        return freed

    def precondition(self, age_factor=2.0):
        n_pages = self.profile.logical_pages
        nchan = self.profile.channels
        stripe = self.profile.stripe_pages
        for p in range(n_pages):
            self._append_page(p, gc=False, channel=(p // stripe) % nchan)
            if self.gc_needed:
                self._sync_gc()
        for i in range(int(n_pages * age_factor)):
            chan = (self._host_cursor[0] + i) % nchan
            self._append_page(self.rng.randrange(n_pages), gc=False, channel=chan)
            if self.gc_needed:
                self._sync_gc()
        self._sync_gc()
        self.emergency_gcs = 0


def mixed_ops(rng, profile, count):
    """``(method, offset, size)``: the op shapes the KV stack issues —
    WAL tails, flush/compaction chunks, whole-file TRIMs — and the edges
    around them."""
    page = profile.page_size
    pages = profile.logical_pages
    wide = profile.stripe_pages * profile.channels  # wraps the channels
    for _ in range(count):
        r = rng.random()
        if r < 0.30:  # one page, whole or partial
            p = rng.randrange(pages)
            yield "host_write", p * page + rng.choice([0, 0, 100]), rng.choice([1, 512, page - 100])
        elif r < 0.38:  # two pages, straddling a boundary
            p = rng.randrange(pages - 2)
            yield "host_write", p * page + page - 7, 14
        elif r < 0.46:  # 32 pages, aligned: a 128 KiB flush chunk
            p = rng.randrange(pages - 32)
            yield "host_write", p * page, 32 * page
        elif r < 0.52:  # 128 KiB unaligned: 33 pages
            p = rng.randrange(pages - 34)
            yield "host_write", p * page + rng.randrange(1, page), 128 * KIB
        elif r < 0.56:  # more than one lap of the channels
            n = wide + rng.randrange(1, 40)
            p = rng.randrange(pages - n)
            yield "host_write", p * page, n * page
        elif r < 0.60:
            n = rng.choice([2, 3, 8, 9, 64])
            p = rng.randrange(pages - n)
            yield "host_write", p * page, n * page
        elif r < 0.75:  # one-page TRIM (a truncated WAL page)
            yield "trim", rng.randrange(pages) * page, page
        elif r < 0.82:  # whole-file TRIMs: 256 KiB and 2 MiB extents
            n = rng.choice([64, 64, 512, 5])
            p = rng.randrange(pages - n)
            yield "trim", p * page, n * page
        else:
            n = rng.choice([1, 1, 2, 8, 32, 33])
            p = rng.randrange(pages - n - 1)
            yield "read_channels", p * page + rng.choice([0, 700]), n * page - rng.choice([0, 9])


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_per_op_ftl_equals_the_page_by_page_walk(policy, seed):
    ftl = Ftl(INTEL, seed=seed, policy=policy)
    ref = ReferenceFtl(INTEL, seed=seed, policy=policy)
    ftl.precondition(age_factor=1.0)
    ref.precondition(age_factor=1.0)
    assert_same_state(ftl, ref, "after preconditioning")
    rng = random.Random(1000 * seed + len(policy))
    for i, (method, offset, size) in enumerate(mixed_ops(rng, INTEL, 2500)):
        assert getattr(ftl, method)(offset, size) == getattr(ref, method)(offset, size), (
            f"op {i}: {method}({offset}, {size})"
        )
        if ftl.gc_needed:
            assert ref.gc_needed
            while not ftl.gc_satisfied:  # collect to the high watermark
                assert ftl.collect_victim() == ref.collect_victim(), f"GC after op {i}"
        if i % 250 == 0:
            assert_same_state(ftl, ref, f"after op {i}")
    assert_same_state(ftl, ref, "at the end")
    assert ftl.emergency_gcs == 0


def test_one_trim_call_equals_its_extents_trimmed_page_by_page():
    """A deleted file's extents reach ``trim_extents`` in one call (a
    WAL's one-page extents by the hundred, an SSTable's chunks), and a
    caller may pass extents that overlap.  The one pass must free what
    trimming the extents in order, page by page, freed, each page once;
    rewrites between the calls keep pages mapped."""
    ftl = Ftl(INTEL, seed=5)
    ref = ReferenceFtl(INTEL, seed=5)
    ftl.precondition(age_factor=1.0)
    ref.precondition(age_factor=1.0)
    page, pages = INTEL.page_size, INTEL.logical_pages
    rng = random.Random(5)
    for i in range(150):
        extents = []
        for _ in range(rng.choice([1, 2, 5, 40, 200])):
            n = rng.choice([1, 1, 1, 2, 7, 64])
            p = rng.randrange(pages - n)
            extents.append((p * page + rng.choice([0, 0, 100]), n * page - rng.choice([0, 0, 200])))
        if rng.random() < 0.3:
            extents.append(rng.choice(extents))
            p = rng.randrange(pages - 9)
            extents += [(p * page, 6 * page), (p * page + 3 * page, 6 * page)]
        want = sum(ref.trim(offset, size) for offset, size in extents)
        assert ftl.trim_extents(extents) == want, f"call {i}"
        for _ in range(8):
            p = rng.randrange(pages - 64)
            assert ftl.host_write(p * page, 64 * page) == ref.host_write(p * page, 64 * page)
            while ftl.gc_needed and not ftl.gc_satisfied:
                assert ftl.collect_victim() == ref.collect_victim(), f"GC after call {i}"
        if i % 50 == 0:
            assert_same_state(ftl, ref, f"after call {i}")
    assert_same_state(ftl, ref, "at the end")


@pytest.mark.parametrize("policy", POLICIES)
def test_preconditioning_an_aged_device_matches(policy):
    """On a fresh device no valid profile lets the LBA-ordered fill reach
    the low watermark (the constructor's reachability check); on an aged
    one every page has an old copy and the fill drains the pool, so GC
    interleaves with the block-bounded runs."""
    profile = SsdProfile(name="aged", channels=4, logical_capacity=16 * MIB, overprovision=0.5)
    ftl = Ftl(profile, seed=5, policy=policy)
    ref = ReferenceFtl(profile, seed=5, policy=policy)
    ftl.precondition(age_factor=0.5)
    ref.precondition(age_factor=0.5)
    assert_same_state(ftl, ref, "after preconditioning")
    gc_at = []
    sync_gc = ref._sync_gc
    ref._sync_gc = lambda: (gc_at.append(ref.write_seq), sync_gc())
    fill_ends = ref.write_seq + profile.logical_pages
    ftl.precondition(age_factor=0.1)
    ref.precondition(age_factor=0.1)
    assert gc_at[0] < fill_ends  # GC ran inside the LBA fill
    assert_same_state(ftl, ref, "after preconditioning twice")


@pytest.mark.parametrize("policy", POLICIES)
def test_preconditioning_a_drained_device_matches(policy):
    """Host writes with no GC leave the pool at the low watermark: the
    page walk collects after the first write, and so must the batches."""
    ftl = Ftl(INTEL, seed=4, policy=policy)
    ref = ReferenceFtl(INTEL, seed=4, policy=policy)
    page = INTEL.page_size
    for each in (ftl, ref):
        i = 0
        while not each.gc_needed:
            each.host_write(i * 7 % INTEL.logical_pages * page, page)
            i += 1
    ftl.precondition(age_factor=0.5)
    ref.precondition(age_factor=0.5)
    assert_same_state(ftl, ref, "after preconditioning a drained device")


#: preconditioning oracle geometries: three drives shrunk to 8192 pages
#: (12 or 16 channels; samsung840 with 70% overprovisioning, so GC runs
#: hotter), and
#: 12 500 pages on 5 channels with 3-page stripes and 32-page blocks —
#: not a power of two, so ``randrange`` rejects 24% of raw draws, not 50%
PRECONDITION_PROFILES = {
    "intel320": INTEL,
    "oczvector": get_profile("oczvector").with_capacity(32 * MIB),
    "samsung840_op70": get_profile("samsung840").with_capacity(32 * MIB).with_overprovision(0.7),
    "odd_12500": SsdProfile(
        name="odd", channels=5, stripe_pages=3, pages_per_block=32,
        logical_capacity=12_500 * 4 * KIB, overprovision=0.6,
    ),
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("age_factor", [0, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", sorted(PRECONDITION_PROFILES))
def test_batched_preconditioning_equals_the_page_walk(name, policy, age_factor, seed):
    profile = PRECONDITION_PROFILES[name]
    ftl = Ftl(profile, seed=seed, policy=policy)
    ref = ReferenceFtl(profile, seed=seed, policy=policy)
    ftl.precondition(age_factor)
    ref.precondition(age_factor)
    assert_same_state(ftl, ref, f"after precondition({age_factor})")


@pytest.mark.parametrize("policy", POLICIES)
def test_emergency_gc_inside_a_multi_page_write_matches(policy):
    """No background GC at all: host writes drain the pool until
    ``_allocate_block`` finds it empty in the middle of an op — the case
    the batched lane's pool guard hands to the page-by-page walk."""
    ftl = Ftl(INTEL, seed=9, policy=policy)
    ref = ReferenceFtl(INTEL, seed=9, policy=policy)
    ftl.precondition(age_factor=1.0)
    ref.precondition(age_factor=1.0)
    rng = random.Random(99)
    page = INTEL.page_size
    inside_multi_page_op = 0
    for i in range(4000):
        n = rng.choice([1, 1, 2, 8, 32, 33, 100])
        offset = rng.randrange(INTEL.logical_pages - n) * page
        before = ftl.emergency_gcs
        outcomes = []
        for each in (ftl, ref):
            try:
                outcomes.append(each.host_write(offset, n * page))
            except RuntimeError as exc:  # GC itself found no destination
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1], f"op {i}"
        if n > 1 and ftl.emergency_gcs > before:
            inside_multi_page_op += 1
        if isinstance(outcomes[0], str):
            break
    assert ftl.emergency_gcs > 0 and inside_multi_page_op > 0
    assert_same_state(ftl, ref, "after draining the pool")


def host_write_plan(device, offset, size, scale):
    """``SsdDevice._plan``'s write branch as it was: every write priced
    from ``Ftl.host_write``'s ``WritePlan``."""
    profile, stats = device.profile, device.stats
    ctrl = profile.ctrl_overhead_write + size * profile.ctrl_byte_cost
    stats.controller_busy += ctrl
    page_cost = profile.page_size * profile.write_byte_cost
    services = []
    for chan, pages in device.ftl.host_write(offset, size).programs:
        service = (profile.prog_latency + pages * page_cost) * scale
        stats.channel_busy += service
        services.append((chan, service))
    return ctrl, services


@pytest.mark.parametrize("policy", POLICIES)
def test_one_page_write_plan_equals_host_writes(policy):
    """``_plan`` maps a one-page write on an unrouted policy itself, with
    no ``host_write`` frame or ``WritePlan``: random one-page writes,
    among multi-page ones and the GC they drive, must leave the FTL map,
    valid counts and cursors, the busy counters and every plan as
    pricing ``host_write``'s plan does."""
    profile = dataclasses.replace(INTEL, ftl_policy=policy)
    sim = Simulator()
    device, ref = (SsdDevice(sim, profile, seed=9, age_factor=0.5) for _ in range(2))
    page, pages = profile.page_size, profile.logical_pages
    rng = random.Random(len(policy))
    one_page = victims = 0
    for i in range(3000):
        if rng.random() < 0.8:
            offset = rng.randrange(pages) * page + rng.choice([0, 0, 100, page - 1])
            size = rng.randint(1, page - offset % page)
            one_page += 1
        else:
            offset = rng.randrange(pages - 40) * page + rng.choice([0, 700])
            size = rng.choice([2, 9, 33]) * page
        scale = rng.choice([1.0, 1.0, 1.7])
        ctrl, services = device._plan(False, offset, size, scale)
        assert (ctrl, list(services)) == host_write_plan(ref, offset, size, scale), f"op {i}"
        if device.ftl.gc_needed:
            assert ref.ftl.gc_needed
            while not device.ftl.gc_satisfied:
                assert device.ftl.collect_victim() == ref.ftl.collect_victim(), f"GC after op {i}"
                victims += 1
        if i % 500 == 0:
            assert_same_state(device.ftl, ref.ftl, f"after op {i}")
    assert_same_state(device.ftl, ref.ftl, "at the end")
    assert vars(device.stats) == vars(ref.stats)
    assert one_page > 2000 and victims > 0 and device.ftl.emergency_gcs == 0


def test_a_preconditioned_ftl_retains_at_most_2_5_mib():
    """A full-size ``intel320`` (65 536 pages, 2 048 blocks) aged at the
    default ``age_factor=2.0`` lists 117 204 pages on its blocks' page
    logs.  As lists of Python ints the FTL retained 5.6 MiB; as one
    int32 ``array`` per block it retains 1.9 MiB, numpy's buffers (the
    page map, the per-block counters) included.  The count repeats
    exactly: nothing here depends on timing."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ftl = Ftl(get_profile("intel320"), seed=1)
        ftl.precondition()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(map(len, ftl.block_pages)) == 117_204
    assert retained <= 2.5 * MIB, retained / MIB


# ---------------------------------------------------------------------------
# scheduler: the fused pump against the three-function pump
# ---------------------------------------------------------------------------


class ReferencePump(LibraScheduler):
    """``_submit``, ``_complete`` and ``_pump`` as they were: every chunk
    is queued and then pumped (no empty-queue lane), every completion
    with a chunk queued pumps, and the pump makes a modulo scan for the
    next eligible tenant and a second scan of every tenant each time the
    first finds nobody."""

    def _submit(self, kind, offset, size, tag, done=None):
        state = self._state(tag.tenant)
        if done is None:
            done = Event(self.sim)
        chunk_size = self.config.chunk_size
        split = None if size <= chunk_size else _Split(-(-size // chunk_size))
        for pos in range(0, size, chunk_size):
            length = min(chunk_size, size - pos)
            state.queue.append(
                _Chunk(state, tag, kind, offset + pos, length, done, split, self.sim.now)
            )
            self._queued += 1
        self._pump()
        return done

    def _complete(self, chunk, event):
        super()._complete(chunk, event)
        if self._queued:  # a lap after every completion (a second is a no-op)
            self._pump()

    def _pump(self):
        while self._inflight < self._slots:
            state = self._next_eligible()
            if state is None:
                if self._round_open():
                    return
                if not self._queued:
                    return
                self._new_round()
                continue
            self._queued -= 1
            self._dispatch(state, state.queue.popleft())

    def _next_eligible(self):
        n = len(self._order)
        for i in range(n):
            state = self._order[(self._cursor + i) % n]
            if state.queue and state.deficit > 0:
                self._cursor = (self._cursor + i + 1) % n
                return state
        return None

    def _round_open(self):
        return any(
            s.deficit > 0 and (bool(s.queue) or s.inflight > 0) for s in self._order
        )


class LaneCounting(LibraScheduler):
    """The scheduler under test, counting the dispatches ``_submit``
    made itself (the empty-queue lane) apart from the pump's."""

    lane = pumped = 0
    _in_pump = False

    def _pump(self):
        self._in_pump = True
        try:
            super()._pump()
        finally:
            self._in_pump = False

    def _dispatch(self, state, chunk):
        if self._in_pump:
            self.pumped += 1
        else:
            self.lane += 1
        super()._dispatch(state, chunk)


#: tenants' allocations (0 = best-effort floor), workers per tenant,
#: scheduler config, device queue depth, whether the round timeout fires
PUMP_SCENARIOS = {
    "one_tenant": ([5000.0], 6, None, 32, False),
    "two_uneven": ([30_000.0, 100.0], 4,
                   SchedulerConfig(round_seconds=0.002, timeout_rounds=2.0), 8, True),
    "four_with_best_effort": ([4000.0, 2000.0, 0.0, 1000.0], 3, None, 8, True),
    "six_shallow_queue": ([100.0, 0.0, 3000.0, 50.0, 8000.0, 700.0], 2,
                          SchedulerConfig(round_seconds=0.001, timeout_rounds=1.5), 4, True),
}


def pump_run(scheduler_cls, name):
    allocations, workers, config, depth, _forces = PUMP_SCENARIOS[name]
    sim = Simulator()
    profile = SsdProfile(
        name="tiny-pump", channels=4, logical_capacity=32 * MIB, overprovision=1.0,
        queue_depth=depth,
    )
    device = SsdDevice(sim, profile, seed=1)
    model = make_cost_model("exact", reference_calibration("intel320"))
    scheduler = scheduler_cls(sim, device, model, config=config)
    log = []
    scheduler.dispatch_observer = lambda tag, kind, size, cost: log.append(
        (sim.now, tag.tenant, kind, size, cost)
    )
    tenants = [f"t{i}" for i in range(len(allocations))]
    for tenant, allocation in zip(tenants, allocations):
        scheduler.register_tenant(tenant, allocation)
    chunk = scheduler.config.chunk_size
    sizes = [1, 4 * KIB, 4 * KIB, chunk, chunk + 1, 1 * MIB]
    horizon = 1.0

    def worker(tenant, rng):
        tag = IoTag(tenant)
        while sim.now < horizon:
            size = rng.choice(sizes)
            offset = rng.randrange(0, (profile.logical_capacity - size) // 4096) * 4096
            submit = scheduler.read if rng.random() < 0.6 else scheduler.write
            yield submit(offset, size, tag=tag)

    def slow_once():  # holds deficit with one op in flight: the round stays open
        yield sim.timeout(horizon / 2)
        yield scheduler.write(0, 1 * MIB, tag=IoTag(tenants[0]))

    def reallocate():
        yield sim.timeout(horizon / 3)
        scheduler.set_allocation(tenants[-1], 2500.0)
        yield sim.timeout(horizon / 3)
        scheduler.set_allocation(tenants[0], 0.0)

    for t_idx, tenant in enumerate(tenants):
        for w_idx in range(workers):
            sim.process(worker(tenant, random.Random(f"{name}:{t_idx}:{w_idx}")))
    sim.process(slow_once())
    sim.process(reallocate())
    sim.run(until=horizon + 0.2)
    scheduler.stop()
    final = {
        "rounds": scheduler.rounds,
        "forced_rounds": scheduler.forced_rounds,
        "cursor": scheduler._cursor,
        "backlog": scheduler.backlog,
        "now": sim.now,
        "tenants": [
            (s.tenant_id, s.deficit, s.inflight, len(s.queue), vars(s.usage))
            for s in scheduler._order
        ],
        "device": device.stats.as_dict(),
    }
    return log, final, scheduler


@pytest.mark.parametrize("name", sorted(PUMP_SCENARIOS))
def test_fused_pump_dispatches_exactly_as_the_three_function_pump(name):
    log, final, scheduler = pump_run(LaneCounting, name)
    ref_log, ref_final, _ = pump_run(ReferencePump, name)
    # both dispatchers run: the oracle covers the lane, not only the pump
    assert scheduler.lane > 50 and scheduler.pumped > 50, (scheduler.lane, scheduler.pumped)
    assert scheduler.lane + scheduler.pumped == len(log)
    assert len(log) > 500
    assert {size for _t, _tenant, _kind, size, _cost in log} >= {1, 4 * KIB, 128 * KIB}
    assert final["rounds"] > 10  # deficits exhaust and rounds advance
    assert bool(final["forced_rounds"]) == PUMP_SCENARIOS[name][-1]
    assert log == ref_log
    assert final == ref_final


# ---------------------------------------------------------------------------
# the call budget
# ---------------------------------------------------------------------------


def test_calls_per_chunk_stay_within_budget():
    """An idle 4-tenant scheduler + device serving ops one at a time.

    Interpreted calls per chunk under ``repro/core`` + ``repro/ssd`` +
    ``repro/sim`` (the kernel's frames and the driving process's
    included; CPython 3.11, where 3.12 inlines comprehensions and counts
    fewer), and heap pushes per chunk, which must not move:

    ======================  ======  ======  ======  ======
    op                      parent  change  budget  pushes
    ======================  ======  ======  ======  ======
    one-page read            16.09   16.09      17   2.011
    64 KiB unaligned read    20.45   16.45      17   2.034
    one-page write           16.36   16.36      17   2.042
    128 KiB write            41.32   41.32      42   3.590
    ======================  ======  ======  ======  ======

    A 64 KiB read at a sub-page offset spans 17 pages.  The parent
    priced it with ``Ftl.read_channels`` walking the page map: a
    ``_page_range`` call and three comprehensions over the pages; now
    ``read_channels`` counts pages per channel over one slice of the
    read-channel map, in C.  Earlier, a parent planned a one-page write
    through ``Ftl.host_write`` and its ``WritePlan`` (17.36 calls);
    ``_plan`` now maps it with one ``_append_page``.  Before it, a
    parent admitted an op through ``_pump``, ``_queue_for``,
    ``_admit_fast``, ``_try_admit`` and ``Semaphore.try_acquire``,
    pushed its finish through ``Simulator.call_at``, freed the slot
    through ``_release`` and ``Semaphore.release``, and built a
    ``_Task`` beside each ``_Chunk``; now ``_submit`` dispatches a chunk
    that finds nothing queued ahead of it, ``SsdDevice.submit`` and
    ``_finish_fast`` take and free the NCQ slot and push the finish
    themselves, and a one-chunk task is one object.  The counts repeat
    exactly, so the budget fails at the parent and catches a per-tenant
    or per-page call creeping back; the pushes pin the simulation's
    event order.
    """
    sim = Simulator()
    device = SsdDevice(sim, get_profile("intel320").with_capacity(64 * MIB), seed=3)
    model = make_cost_model("exact", reference_calibration("intel320"))
    scheduler = LibraScheduler(sim, device, model)
    tags = [IoTag(f"t{i}") for i in range(4)]
    for i, tag in enumerate(tags):
        scheduler.register_tenant(tag.tenant, 1000.0 * (i + 1))

    def serve(submit, size, count, skew):
        def one_at_a_time():
            for i in range(count):
                yield submit((i * 37 % 4000) * 4096 + skew, size, tags[i % 4])

        proc = sim.process(one_at_a_time())
        sim.step_while(lambda: proc.is_alive)
        assert proc.ok

    per_chunk, pushes = {}, {}
    for name, submit, size, count, skew in (
        ("read", scheduler.read, 4 * KIB, 1000, 0),
        ("read64k", scheduler.read, 64 * KIB, 1000, 512),
        ("write", scheduler.write, 4 * KIB, 1000, 0),
        ("write128k", scheduler.write, 128 * KIB, 200, 0),
    ):
        seq = sim._seq
        calls = count_calls(
            lambda: serve(submit, size, count, skew),
            ("/repro/core/", "/repro/ssd/", "/repro/sim/"),
        )
        per_chunk[name] = calls / count
        pushes[name] = sim._seq - seq
    assert device.stats.gc_runs > 0  # the 128 KiB writes reach GC
    assert pushes == {"read": 2011, "read64k": 2034, "write": 2042, "write128k": 718}
    assert per_chunk["read"] <= 17, per_chunk
    assert per_chunk["read64k"] <= 17, per_chunk
    assert per_chunk["write"] <= 17, per_chunk
    assert per_chunk["write128k"] <= 42, per_chunk


def test_preconditioning_calls_stay_within_budget():
    """One full-size ``intel320`` (65 536 pages, 2 048 blocks) aged at
    the default ``age_factor=2.0``:

    ==========================  =========  ==========  =====  ======
    interpreted calls           page walk  per victim  burst  budget
    ==========================  =========  ==========  =====  ======
    ``Ftl._append_page``          132 104           0      0       0
    ``Ftl.collect_victim``          1 692       1 692      0       0
    all under ``repro/ssd``       169 113      14 677    353     360
    ==========================  =========  ==========  =====  ======

    The page walk (:class:`ReferenceFtl`'s spelling, with the fill in
    block-bounded runs) drew and appended each of the 131 072 aging
    overwrites on its own, and each of the 1 032 fill pages that
    opened a block.  Batching the host writes left GC's per-victim
    calls: 1 692 victims, 8 calls each.  Now each of the 16 GC bursts
    is one pass of ten calls, and each of the 35 host batches about
    four.  The counts repeat exactly, so a per-victim or per-page
    call creeping back fails the budget by hundreds.
    """
    ftl = Ftl(get_profile("intel320"), seed=1)
    appended, collected = [], []
    append_page, collect_victim = ftl._append_page, ftl.collect_victim
    ftl._append_page = lambda *args: (appended.append(args), append_page(*args))
    ftl.collect_victim = lambda: (collected.append(1), collect_victim())[1]
    calls = count_calls(lambda: ftl.precondition(2.0), ("/repro/ssd/",))
    assert ftl.emergency_gcs == 0
    assert not appended and not collected
    assert calls <= 360, calls
