"""Perf-path guarantees: the kernel's direct-resume fast path, the
scheduler's incremental accounting, and parallel-grid determinism.

These tests pin the *semantics* that the performance work relies on:
resuming on already-processed events must be indistinguishable from a
heap round-trip, the O(1) backlog counter and cached quanta must agree
with recomputing from scratch, and a parallel figure run must render
byte-identically to a serial one.
"""

import pytest

from repro.core.calibration import reference_calibration
from repro.core.scheduler import LibraScheduler
from repro.core.tags import IoTag, RequestClass
from repro.core.vop import make_cost_model
from repro.experiments import fig4
from repro.experiments.common import KIB, ExperimentMode, derive_seed, parallel_map
from repro.sim import Simulator
from repro.ssd import SsdDevice, get_profile

#: seconds-scale fig4 grid — same code path as quick/full, less work
TINY = ExperimentMode(
    name="tiny",
    sizes=(4 * KIB, 64 * KIB),
    ratios=(None, 0.5),
    sigmas=(4 * KIB,),
    duration=0.05,
    warmup=0.02,
)


# ---------------------------------------------------------------------------
# Kernel fast path: yielding already-processed events
# ---------------------------------------------------------------------------


def _processed_event(sim, value=None, ok=True):
    """An event whose callbacks have already run (processed)."""
    event = sim.event()
    if ok:
        event.succeed(value)
    else:
        event.fail(value)
    sim.run()
    assert event.processed
    return event


def test_yield_processed_events_resumes_directly():
    sim = Simulator()
    first = _processed_event(sim, "a")
    second = _processed_event(sim, "b")
    log = []

    def proc():
        log.append((yield first))
        log.append((yield second))
        return "done"

    process = sim.process(proc())
    # Only the start resume is queued: the two processed yields must
    # complete inside that single heap action, not via re-queues.
    assert sim.queue_size == 1
    sim.run()
    assert log == ["a", "b"]
    assert process.value == "done"


def test_yield_processed_failed_event_throws():
    sim = Simulator()
    boom = _processed_event(sim, ValueError("boom"), ok=False)
    caught = []

    def proc():
        try:
            yield boom
        except ValueError as exc:
            caught.append(str(exc))

    sim.process(proc())
    sim.run()
    assert caught == ["boom"]


def test_fast_path_preserves_fifo_order():
    # A process racing through processed events must not overtake
    # actions already queued for the same timestamp.
    sim = Simulator()
    done = _processed_event(sim, "fast")
    order = []

    def slow():
        order.append("slow")
        return
        yield

    def fast():
        order.append((yield done))

    sim.process(slow())
    sim.process(fast())
    sim.run()
    assert order == ["slow", "fast"]


def test_interrupt_detaches_from_waited_event():
    sim = Simulator()
    gate = sim.event()
    resumes = []

    def proc():
        try:
            yield gate
        except Exception as exc:  # noqa: BLE001
            resumes.append(("interrupt", exc.cause))
        resumes.append(("after", (yield sim.timeout(1.0))))

    process = sim.process(proc())
    sim.step()  # start the process; it parks on the gate
    process.interrupt("go away")
    gate.succeed("late")  # must NOT resume the process a second time
    sim.run()
    assert resumes == [("interrupt", "go away"), ("after", None)]


def _kernel_trace(seed: int):
    """A deterministic mixed workload: timeouts, relays, spawn/join
    through the fast path — returns the (time, value) trace."""
    sim = Simulator()
    trace = []

    def child(n):
        yield sim.timeout(0.001 * (n % 3))
        return n * n

    def worker(base):
        for i in range(10):
            proc = sim.process(child(base + i))
            yield sim.timeout(0.005)
            value = yield proc  # finished by now: fast-path resume
            trace.append((round(sim.now, 9), value))

    for base in range(0, 30, 10):
        sim.process(worker(base))
    sim.run()
    return trace


def test_same_seed_double_run_identical():
    assert _kernel_trace(1) == _kernel_trace(1)


# ---------------------------------------------------------------------------
# Scheduler incremental accounting
# ---------------------------------------------------------------------------


def _make_scheduler(tenants=("a", "b"), allocation=5000.0):
    sim = Simulator()
    profile = get_profile("intel320")
    device = SsdDevice(sim, profile, seed=11)
    cost_model = make_cost_model("exact", reference_calibration(profile.name))
    observed = []
    scheduler = LibraScheduler(
        sim, device, cost_model,
        io_observer=lambda tag, kind, size, cost: observed.append((tag.tenant, kind, size, cost)),
    )
    for name in tenants:
        scheduler.register_tenant(name, allocation)
    return sim, scheduler, cost_model, observed


def test_backlog_counter_matches_queue_scan():
    sim, scheduler, _model, _obs = _make_scheduler()
    tag_a = IoTag("a", RequestClass.RAW)
    tag_b = IoTag("b", RequestClass.RAW)
    # 40 single-chunk reads + one 300 KiB write (3 chunks at 128 KiB).
    for i in range(40):
        scheduler.read(i * 4096, 4096, tag=tag_a)
    scheduler.write(0, 300 * KIB, tag=tag_b)
    assert scheduler.backlog == 43
    # The O(1) counter must agree with an explicit scan at every point.
    queued_scan = sum(len(scheduler._state(t).queue) for t in scheduler.tenants)
    assert scheduler._queued == queued_scan
    sim.run(until=5.0)
    scheduler.stop()
    sim.run()
    assert scheduler.backlog == 0
    assert scheduler.usage("a").tasks == 40
    assert scheduler.usage("b").tasks == 1
    assert scheduler.usage("b").ops == 3  # the write completed as 3 chunks


def test_quantum_cache_invalidated_on_allocation_change():
    _sim, scheduler, _model, _obs = _make_scheduler(("a", "b"), allocation=1000.0)
    state_a = scheduler._state("a")
    state_b = scheduler._state("b")
    assert scheduler._quantum(state_a) == pytest.approx(scheduler._quantum(state_b))
    scheduler.set_allocation("b", 3000.0)
    assert scheduler._quanta is None  # cache dropped, not stale
    assert scheduler._quantum(state_b) == pytest.approx(3 * scheduler._quantum(state_a))
    # Registering another tenant invalidates again and re-splits.
    before = scheduler._quantum(state_a)
    scheduler.register_tenant("c", 1000.0)
    assert scheduler._quantum(state_a) < before


def test_observer_sees_dispatch_time_cost():
    sim, scheduler, cost_model, observed = _make_scheduler(("a",))
    tag = IoTag("a", RequestClass.RAW)
    scheduler.read(0, 4096, tag=tag)
    scheduler.write(8192, 64 * KIB, tag=tag)
    sim.run(until=2.0)
    scheduler.stop()
    sim.run()
    assert len(observed) == 2
    for _tenant, kind, size, cost in observed:
        assert cost == pytest.approx(cost_model.cost(kind, size))
    # Observer charges sum to exactly what the deficit counters paid.
    assert sum(cost for *_rest, cost in observed) == pytest.approx(
        scheduler.usage("a").vops
    )


# ---------------------------------------------------------------------------
# Parallel grid determinism
# ---------------------------------------------------------------------------


def _square(x):  # module-level: picklable for the worker pool
    return x * x


def test_derive_seed_is_deterministic_and_spreads():
    seeds = [derive_seed(7, i) for i in range(100)]
    assert seeds == [derive_seed(7, i) for i in range(100)]
    assert len(set(seeds)) == 100  # no colliding work-unit streams
    assert all(0 <= s < 2**31 for s in seeds)
    assert seeds != [derive_seed(8, i) for i in range(100)]


def test_parallel_map_matches_serial_in_order():
    items = list(range(20))
    assert parallel_map(_square, items, jobs=1) == [x * x for x in items]
    assert parallel_map(_square, items, jobs=3) == [x * x for x in items]


def test_fig4_parallel_render_is_byte_identical():
    serial = fig4.run(quick=True, seed=7, jobs=1, mode=TINY)
    parallel = fig4.run(quick=True, seed=7, jobs=4, mode=TINY)
    assert fig4.render(serial) == fig4.render(parallel)
    # And a repeated serial run reproduces itself exactly.
    again = fig4.run(quick=True, seed=7, jobs=1, mode=TINY)
    assert fig4.render(serial) == fig4.render(again)

def test_effective_jobs_clamps_to_cpus_and_work(monkeypatch):
    from repro.experiments import common

    monkeypatch.setattr(common.os, "cpu_count", lambda: 4)
    assert common._effective_jobs(None, 100) == 1
    assert common._effective_jobs(1, 100) == 1
    assert common._effective_jobs(0, 100) == 1
    assert common._effective_jobs(3, 100) == 3
    assert common._effective_jobs(16, 100) == 4  # clamped to CPUs
    assert common._effective_jobs(16, 2) == 2  # clamped to work
    # cpu_count() may return None; the clamp must not crash on it.
    monkeypatch.setattr(common.os, "cpu_count", lambda: None)
    assert common._effective_jobs(8, 100) == 1


def test_parallel_map_falls_back_to_serial_on_one_cpu(monkeypatch):
    """On a 1-CPU host, --jobs N must not fork a pool at all."""
    from repro.experiments import common

    monkeypatch.setattr(common.os, "cpu_count", lambda: 1)

    def _no_pool(*args, **kwargs):
        raise AssertionError("worker pool created despite 1-CPU clamp")

    monkeypatch.setattr(common.multiprocessing, "get_context", _no_pool)
    items = list(range(10))
    assert parallel_map(_square, items, jobs=4) == [x * x for x in items]
