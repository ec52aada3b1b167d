"""Cross-executor exactness of the device's op-timing kernel.

One op is priced by ``SsdDevice._plan`` and booked by
``StagePipeline.reserve`` whichever way it executes, so on twin idle
devices the two executors of the same op must agree *bitwise* — the
completion timed inline in ``submit``, and the same completion timed by
``SsdDevice._run`` (the path of an op admitted from an admission FIFO,
taken here under an active but harmless fault window) — and both must
land where the op's plan, reserved on a third twin's accumulators, puts
it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.sim import Simulator
from repro.ssd import NvmeDevice, SsdDevice, StagePipeline, get_profile

KIB = 1024
MIB = 1024 * 1024
CAPACITY = 32 * MIB
DEVICES = {
    "intel320": (SsdDevice, get_profile("intel320").with_capacity(CAPACITY)),
    "nvme": (NvmeDevice, get_profile("nvme").with_capacity(CAPACITY)),
}
assert DEVICES["nvme"][1].num_queues == 8
#: second tenant seen, so the NVMe op runs on lane 1, not the default 0
CTX = (None, "b")


def make(kind, t0, fault_plan=None):
    cls, profile = DEVICES[kind]
    sim = Simulator()
    dev = cls(sim, profile, seed=3, fault_plan=fault_plan)
    dev._queue_for((None, "a"))
    sim.run(until=t0)
    return sim, dev


def run_des(sim, dev, is_read, offset, size):
    """Completion instant of one op through ``submit``."""
    done = []

    def completed(_arg, result):
        done.append((sim.now, result.ok))

    dev.submit(is_read, offset, size, CTX, completed, None)
    sim.run()
    assert len(done) == 1 and done[0][1]
    return done[0][0]


def plan_state(dev):
    """What ``_plan`` moves: the busy counters and the FTL."""
    s, ftl = dev.stats, dev.ftl
    return (
        s.controller_busy, s.channel_busy, ftl.write_seq, list(ftl._host_cursor),
        ftl.page_to_block.tobytes(), ftl.block_valid.tobytes(),
        ftl.block_channel.tobytes(),
    )


def fingerprint(dev):
    s = dev.stats
    return (s.reads, s.writes, s.read_bytes, s.write_bytes, plan_state(dev))


@st.composite
def ops(draw):
    size = draw(st.one_of(
        st.sampled_from([4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB]),
        st.integers(1, 256 * KIB),
    ))
    aligned = draw(st.booleans())
    offset = draw(st.integers(0, CAPACITY - size))
    if aligned:
        offset -= offset % (4 * KIB)
    return offset, size


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(DEVICES)),
    is_read=st.booleans(),
    op=ops(),
    t0=st.sampled_from([0.0, 0.37]),
)
def test_two_executors_agree_bitwise_with_the_plan(kind, is_read, op, t0):
    offset, size = op

    sim, fast = make(kind, t0)
    t_fast = run_des(sim, fast, is_read, offset, size)

    # A window is open, so ``submit`` hands the op to ``_run``; it
    # never fires, so the op is priced as on a healthy device.
    harmless = FaultPlan(seed=1).add(FaultWindow(FaultKind.READ_ERROR, 0.0, 1.0, probability=0.0))
    sim, slow = make(kind, t0, fault_plan=harmless)
    ran = []
    run = slow._run
    slow._run = lambda op: ran.append(op) or run(op)
    t_slow = run_des(sim, slow, is_read, offset, size)
    assert len(ran) == 1

    _sim, planned = make(kind, t0)
    ctrl, services = planned._plan(is_read, offset, size)
    t_plan = planned._pipe.reserve(t0, planned._queue_for(CTX), ctrl, services)

    assert t_fast == t_slow
    # An instant is `now + (finish - now)` on both DES paths.
    assert t_fast == t0 + (t_plan - t0)
    if t0 == 0.0:
        # Durations and instants coincide only at the origin: float
        # addition does not re-associate around a nonzero `now`.
        assert t_fast == ctrl + max(service for _chan, service in services) == t_plan
    assert fingerprint(fast) == fingerprint(slow)
    # Planning alone moves the FTL and busy counters as both executors do.
    assert plan_state(fast) == plan_state(planned)
    assert (fast.stats.reads, fast.stats.writes) == ((1, 0) if is_read else (0, 1))


@pytest.mark.parametrize("kind", sorted(DEVICES))
@pytest.mark.parametrize("is_read", [True, False])
def test_degraded_bandwidth_scales_channel_service_only(kind, is_read):
    offset, size, slowdown = 12 * KIB, 96 * KIB, 3.0
    plan = FaultPlan(seed=1).add(
        FaultWindow(FaultKind.DEGRADED_BW, 0.0, 1.0, slowdown=slowdown)
    )
    sim, degraded = make(kind, 0.0, fault_plan=plan)
    t_degraded = run_des(sim, degraded, is_read, offset, size)
    _sim, healthy = make(kind, 0.0)
    ctrl, services = healthy._plan(is_read, offset, size)

    assert degraded.stats.degraded_ops == 1
    assert degraded.stats.controller_busy == healthy.stats.controller_busy == ctrl
    assert degraded.stats.channel_busy == sum(s * slowdown for _c, s in services)
    assert t_degraded == ctrl + max(s * slowdown for _c, s in services)


def test_nvme_lanes_queue_each_tenant_behind_its_own_burst():
    """After a burst only the burst's lane holds a free time, so the next
    op of that tenant queues behind it exactly as its plan reserved on a
    copy of the accumulators says, and on another lane it does not."""
    def burst(dev):
        for _ in range(6):
            dev.submit(True, 0, 4 * KIB, CTX, lambda *_: None, None)

    sim, live = make("nvme", 0.0)
    burst(live)
    q = live._queue_for(CTX)
    lanes = list(live._pipe.lanes)
    assert q == 1 and len(lanes) == 8
    assert lanes[q] > 0.0 and all(t == 0.0 for i, t in enumerate(lanes) if i != q)
    # A page on a channel the burst left idle: only the lane can delay it.
    offset = next(
        off for off in range(4 * KIB, MIB, 4 * KIB)
        if live.ftl.read_channel(off) != live.ftl.read_channel(0)
    )
    done = []
    live.submit(True, offset, 4 * KIB, CTX, lambda *_: done.append(sim.now), None)
    sim.run()

    _sim, twin = make("nvme", 0.0)
    burst(twin)
    pipeline = StagePipeline(twin._pipe.lanes, twin._pipe.chans)
    assert pipeline.lanes == lanes
    ctrl, services = twin._plan(True, offset, 4 * KIB)
    assert pipeline.reserve(0.0, q, ctrl, services) == done[-1]
    # On another tenant's idle lane the same chunk does not queue.
    other = StagePipeline(twin._pipe.lanes, twin._pipe.chans)
    assert other.reserve(0.0, 0, ctrl, services) < done[-1]
