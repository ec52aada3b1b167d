"""Multi-queue NVMe device tests.

The load-bearing guarantees:

- **pinned equivalence** — ``queues=1`` reproduces the SATA
  ``SsdDevice`` bit-for-bit (tasks, ops, bytes, stats, simulated end
  time) on a pinned seeded workload, at depth 32 and at a depth its
  submitters overflow;
- per-submitter queue mapping, FIFO service of a full SQ, RR/WRR
  arbitration under command-tag contention, and the
  scheduler/audit stack running unchanged.
"""

import random
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import FaultKind, FaultPlan, FaultWindow
from repro.sim import Simulator
from repro.node import StorageNode
from repro.ssd import PROFILES, NvmeDevice, SsdDevice, SsdProfile, get_profile, make_device
from repro.workload.iobench import DeviceEnv, run_interference_trial

from .helpers import fifo_completions, observe_completions, queue_state, record_bookings

KIB = 1024
MIB = 1024 * 1024


def tiny_profile(**overrides) -> SsdProfile:
    defaults = dict(
        name="tinynvme", channels=4, logical_capacity=16 * MIB, overprovision=1.0
    )
    defaults.update(overrides)
    return SsdProfile(**defaults)


def run_pinned(cls, profile, fault_plan=None, n_tenants=8, ops=400, oracle=False):
    """A pinned seeded closed loop; returns the full observable fingerprint
    (and, with ``oracle``, the device's completions and the FIFO model's)."""
    sim = Simulator()
    dev = cls(sim, profile, seed=7, fault_plan=fault_plan)
    if oracle:
        bookings = record_bookings(dev)
        completions = observe_completions(dev)
    rng = random.Random(42)
    counts = {"tasks": 0, "fails": 0}

    def worker(name):
        for _ in range(ops):
            off = rng.randrange(0, profile.logical_capacity - 256 * KIB)
            try:
                if rng.random() < 0.5:
                    yield dev.read(off, rng.choice([4 * KIB, 64 * KIB]), (None, name))
                else:
                    yield dev.write(off, rng.choice([4 * KIB, 32 * KIB]), (None, name))
            except Exception:
                counts["fails"] += 1
            counts["tasks"] += 1

    for i in range(n_tenants):
        sim.process(worker(f"t{i}"))
    sim.run()
    s = dev.stats
    fingerprint = (
        sim.now, counts["tasks"], counts["fails"], s.reads, s.writes,
        s.read_bytes, s.write_bytes, s.gc_runs, s.gc_pages_copied,
        s.gc_blocks_erased, s.controller_busy, s.channel_busy,
        s.read_faults, s.write_faults, s.stall_seconds,
    )
    if oracle:
        return fingerprint, sorted(completions), fifo_completions(bookings, fault_plan)
    return fingerprint


# ---------------------------------------------------------------------------
# Pinned equivalence: queues=1 == SATA
# ---------------------------------------------------------------------------

def test_queues1_matches_sata_fast_path():
    profile = get_profile("intel320").with_capacity(32 * MIB)
    assert profile.num_queues == 1 and profile.queue_depth == 32
    assert run_pinned(SsdDevice, profile) == run_pinned(NvmeDevice, profile)


def test_queues1_matches_sata_slow_path():
    """Eight submitters on a four-slot queue: most ops wait in its FIFO."""
    profile = replace(get_profile("intel320").with_capacity(32 * MIB), queue_depth=4)
    sata = run_pinned(SsdDevice, profile)
    assert sata == run_pinned(NvmeDevice, profile)
    assert sata != run_pinned(SsdDevice, replace(profile, queue_depth=32))


def test_queues1_matches_sata_under_faults():
    plan = FaultPlan(seed=5).add(
        FaultWindow(FaultKind.READ_ERROR, 0.05, 0.25, probability=0.3)
    ).add(
        FaultWindow(FaultKind.DEGRADED_BW, 0.3, 0.5, slowdown=2.0)
    )
    profile = get_profile("intel320").with_capacity(32 * MIB)
    sata = run_pinned(SsdDevice, profile, fault_plan=plan)
    nvme = run_pinned(NvmeDevice, profile, fault_plan=plan)
    assert sata == nvme
    assert sata[12] > 0  # read faults actually injected


def test_multi_queue_is_deterministic():
    profile = tiny_profile(num_queues=4)
    a = run_pinned(NvmeDevice, profile)
    b = run_pinned(NvmeDevice, profile)
    assert a == b


def test_multi_queue_fast_slow_paths_agree():
    """Every op of a multi-queue run, GC and tag waits included, completes
    where the FIFO model of its admission-time booking puts it."""
    profile = tiny_profile(num_queues=4, queue_depth=8, core_tags=6)
    fingerprint, completions, model = run_pinned(NvmeDevice, profile, oracle=True)
    assert completions == model
    assert len(completions) == fingerprint[1] and fingerprint[7] > 0


# ---------------------------------------------------------------------------
# Queue architecture behavior
# ---------------------------------------------------------------------------

def test_queue_assignment_round_robin_by_first_submission():
    profile = tiny_profile(num_queues=4)
    sim = Simulator()
    dev = NvmeDevice(sim, profile, seed=1)
    for i, name in enumerate(["a", "b", "c", "d", "e"]):
        dev.read(0, 4 * KIB, (None, name))
        assert dev._queue_for((None, name)) == i % 4
    # Anonymous submitters share SQ 0.
    assert dev._queue_for(None) == 0
    assert dev._queue_for((None, None)) == 0
    sim.run()


def test_host_visible_depth_is_aggregate():
    profile = tiny_profile(num_queues=4, queue_depth=16)
    sim = Simulator()
    dev = NvmeDevice(sim, profile, seed=1)
    assert dev.queue_depth == 64
    assert dev.in_flight == 0
    assert queue_state(dev)["occupied"] == [0, 0, 0, 0]
    dev.read(0, 4 * KIB, (None, "a"))
    dev.read(0, 4 * KIB, (None, "b"))
    assert dev.in_flight == 2
    assert queue_state(dev)["occupied"] == [1, 1, 0, 0]
    sim.run()
    assert dev.in_flight == 0


def test_multi_queue_lifts_small_read_iops():
    """Per-queue controller lanes raise the controller-bound IOP ceiling."""

    # Many fast channels + slow controller → the single FIFO controller
    # is the bottleneck, which is the regime queue scaling targets.
    # (16 channels needs the larger capacity: the GC watermark floor
    # scales with channel count and 16 MiB leaves too few blocks.)
    ctrl_bound = dict(
        channels=16, ctrl_overhead_read=20e-6, logical_capacity=64 * MIB
    )

    def iops(profile, device_cls):
        sim = Simulator()
        dev = device_cls(sim, profile, seed=3)
        rng = random.Random(3)
        done = {"n": 0}
        horizon = 0.2

        def worker(name):
            while sim.now < horizon:
                off = rng.randrange(0, 4000) * profile.page_size
                yield dev.read(off, 4 * KIB, (None, name))
                done["n"] += 1

        for i in range(64):
            sim.process(worker(f"t{i}"))
        sim.run(until=horizon)
        return done["n"]

    single = iops(tiny_profile(**ctrl_bound), SsdDevice)
    multi = iops(tiny_profile(num_queues=8, **ctrl_bound), NvmeDevice)
    assert multi > 1.5 * single


def test_command_tag_contention_engages():
    """With a tiny tag pool, commands queue for fetch and still complete."""
    profile = tiny_profile(num_queues=4, queue_depth=8, core_tags=2)
    sim = Simulator()
    dev = NvmeDevice(sim, profile, seed=2)
    rng = random.Random(5)
    saw_wait = {"max": 0}
    done = {"n": 0}

    def worker(name):
        for _ in range(50):
            off = rng.randrange(0, 3000) * profile.page_size
            yield dev.read(off, 16 * KIB, (None, name))
            done["n"] += 1
            saw_wait["max"] = max(saw_wait["max"], sum(queue_state(dev)["tag_wait"]))

    for i in range(16):
        sim.process(worker(f"t{i}"))
    sim.run()
    assert done["n"] == 800
    assert saw_wait["max"] > 0
    assert dev._free_tags == 2  # pool fully recycled
    assert sum(queue_state(dev)["tag_wait"]) == 0


def test_wrr_favors_weighted_queue():
    """Under tag starvation, WRR grants the heavy SQ more completions."""

    def ops_by_queue(arbitration, weights):
        profile = tiny_profile(
            num_queues=2, queue_depth=16, core_tags=2,
            arbitration=arbitration, wrr_weights=weights,
        )
        sim = Simulator()
        dev = NvmeDevice(sim, profile, seed=4)
        rng = random.Random(6)
        horizon = 0.15
        done = {0: 0, 1: 0}

        def worker(name, q):
            while sim.now < horizon:
                off = rng.randrange(0, 3000) * profile.page_size
                yield dev.read(off, 16 * KIB, (None, name))
                done[q] += 1

        for i in range(16):
            q = i % 2
            sim.process(worker(f"t{i}", q))
        sim.run(until=horizon)
        return done

    rr = ops_by_queue("rr", None)
    wrr = ops_by_queue("wrr", (6, 1))
    assert rr[0] / rr[1] == pytest.approx(1.0, rel=0.15)
    assert wrr[0] / wrr[1] > 2.0


def test_a_full_sq_serves_its_waiters_fifo():
    """Ops past an SQ's depth wait for a slot without a tag; each finish
    hands its slot to the SQ's first waiter, which is admitted then."""
    sim = Simulator()
    dev = NvmeDevice(sim, tiny_profile(num_queues=2, queue_depth=2), seed=1, precondition=False)
    order = []
    plan = dev._plan
    dev._plan = lambda *args: (order.append((args[1], sim.now)), plan(*args))[1]
    finished = []
    for k in range(6):
        dev.submit(True, k * 4 * KIB, 4 * KIB, (None, "a"),
                   lambda _k, _r: finished.append(sim.now), k)
    dev.submit(True, MIB, 4 * KIB, (None, "b"), lambda *_: None, None)
    assert queue_state(dev) == {"occupied": [2, 1], "slot_wait": [4, 0], "tag_wait": [0, 0]}
    assert dev._free_tags == 2 * 2 - 3
    sim.run()
    waiters = [k * 4 * KIB for k in range(2, 6)]
    assert [offset for offset, _at in order] == [0, 4 * KIB, MIB] + waiters
    # the four waiters are admitted at the first four finishes, in order
    assert [at for _offset, at in order[3:]] == sorted(finished)[:4]
    assert queue_state(dev)["occupied"] == [0, 0] and dev._free_tags == 2 * 2


def test_tags_are_granted_in_wrr_order():
    """One command tag, SQ weights 3:1: with both SQs backlogged the
    arbiter serves three of ``a`` per one of ``b`` (the first ``a`` took
    the free tag at submit), then drains ``b``."""
    profile = tiny_profile(num_queues=2, queue_depth=8, core_tags=1,
                           arbitration="wrr", wrr_weights=(3, 1))
    sim = Simulator()
    dev = NvmeDevice(sim, profile, seed=1, precondition=False)
    order = []  # (tenant, instant) of each op as it is planned
    plan = dev._plan
    dev._plan = lambda *args: (
        order.append(("ab"[args[1] // (4 * KIB) % 2], sim.now)), plan(*args))[1]
    for k in range(8):
        dev.submit(True, 2 * k * 4 * KIB, 4 * KIB, (None, "a"), lambda *_: None, None)
    for k in range(8):
        dev.submit(True, (2 * k + 1) * 4 * KIB, 4 * KIB, (None, "b"), lambda *_: None, None)
    assert queue_state(dev)["tag_wait"] == [7, 8] and dev.in_flight == 16
    sim.run()
    assert "".join(tenant for tenant, _at in order) == "a" + "aaab" * 2 + "a" + "b" * 6
    times = [at for _tenant, at in order]
    assert times == sorted(times) and len(set(times)) == 16  # one at a time
    assert queue_state(dev)["tag_wait"] == [0, 0] and dev._free_tags == 1


def test_gc_runs_under_sustained_overwrite():
    profile = tiny_profile(num_queues=4)
    sim = Simulator()
    dev = NvmeDevice(sim, profile, seed=8)
    rng = random.Random(8)

    def writer(name):
        for _ in range(600):
            off = rng.randrange(0, 3500) * profile.page_size
            yield dev.write(off, 32 * KIB, (None, name))

    for i in range(8):
        sim.process(writer(f"w{i}"))
    sim.run()
    assert dev.stats.gc_runs > 0
    assert dev.stats.gc_pages_copied > 0


def test_profile_validation():
    with pytest.raises(ValueError, match="arbitration"):
        NvmeDevice(Simulator(), tiny_profile(arbitration="priority"), seed=1)
    with pytest.raises(ValueError, match="entries"):
        NvmeDevice(
            Simulator(),
            tiny_profile(num_queues=4, arbitration="wrr", wrr_weights=(1, 2)),
            seed=1,
        )
    with pytest.raises(ValueError, match=">= 1"):
        NvmeDevice(
            Simulator(),
            tiny_profile(num_queues=2, arbitration="wrr", wrr_weights=(1, 0)),
            seed=1,
        )
    with pytest.raises(ValueError, match="num_queues"):
        tiny_profile().with_queues(0)
    with pytest.raises(ValueError, match="overprovision"):
        tiny_profile().with_overprovision(0.0)
    nvme_profile = get_profile("nvme")
    assert nvme_profile.num_queues == 8
    with pytest.raises(KeyError, match="nvme"):
        get_profile("no-such-drive")


# ---------------------------------------------------------------------------
# Full-stack integration: scheduler and audit
# ---------------------------------------------------------------------------

def test_scheduler_runs_on_nvme_with_clean_audit():
    from repro.core.calibration import reference_calibration
    from repro.core.vop import make_cost_model
    from repro.obs import VopAudit

    profile = get_profile("intel320").with_capacity(64 * MIB).with_queues(4)
    cost_model = make_cost_model("exact", reference_calibration(profile.name))
    audit = VopAudit(cost_model)
    env = DeviceEnv(profile, seed=13)
    trial = run_interference_trial(
        profile, read_size=4 * KIB, write_size=32 * KIB,
        duration=0.1, warmup=0.05, seed=13,
        cost_model=cost_model, env=env, audit=audit,
    )
    assert trial.total_vops_per_sec > 0
    for _ in range(100):
        if env.device.in_flight == 0:
            break
        env.sim.run(until=env.sim.now + 0.05)
    summary = audit.summary(env.sim.now)
    assert summary["ok"], summary["flags"]
    assert summary["reconciliation"] == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# make_device: the profile picks the model
# ---------------------------------------------------------------------------

#: every built-in profile, plus a SATA drive given queues and the NVMe
#: drive cut to one
DEVICE_CASES = {name: PROFILES[name] for name in sorted(PROFILES)}
DEVICE_CASES["intel320 x4"] = get_profile("intel320").with_queues(4)
DEVICE_CASES["nvme x1"] = get_profile("nvme").with_queues(1)


def expected_model(profile):
    return NvmeDevice if profile.num_queues > 1 else SsdDevice


@pytest.mark.parametrize("profile", DEVICE_CASES.values(), ids=DEVICE_CASES.keys())
def test_make_device_builds_the_model_the_profile_names(profile):
    dev = make_device(Simulator(), profile.with_capacity(64 * MIB), precondition=False)
    assert type(dev) is expected_model(profile)
    assert dev.queue_depth == profile.num_queues * profile.queue_depth


@pytest.mark.parametrize(
    "build",
    [
        lambda profile: StorageNode(Simulator(), profile=profile, seed=1).device,
        lambda profile: DeviceEnv(profile, seed=1).device,
    ],
    ids=["StorageNode", "DeviceEnv"],
)
def test_device_builders_follow_the_profile(build):
    base = get_profile("intel320").with_capacity(64 * MIB)
    for profile in (base, base.with_queues(4)):
        assert type(build(profile)) is expected_model(profile)


def test_make_device_forwards_constructor_arguments():
    profile = tiny_profile()
    plan = FaultPlan([FaultWindow(FaultKind.READ_ERROR, 0.0, 1.0, probability=0.5)])
    tracer = object()
    dev = make_device(Simulator(), profile, seed=5, age_factor=1.0,
                      fault_plan=plan, tracer=tracer)
    ref = SsdDevice(Simulator(), profile, seed=5, age_factor=1.0)
    assert dev.tracer is tracer and dev.faults is not None
    assert dev.ftl.page_to_block.tobytes() == ref.ftl.page_to_block.tobytes()
    assert list(dev.ftl._host_cursor) == list(ref.ftl._host_cursor)


def test_make_device_refuses_a_profile_without_queues():
    # ``with_queues`` refuses zero queues, but a profile built directly
    # can carry it; the factory must not quietly fall back to SATA.
    with pytest.raises(ValueError, match="num_queues"):
        make_device(Simulator(), tiny_profile(num_queues=0), seed=1)


def test_only_make_device_builds_devices():
    """Every device is built by the profile's factory, so a node, a sweep
    and a calibration cannot disagree on the model for one profile."""
    root = Path(__file__).resolve().parent.parent
    call = re.compile(r"\b(SsdDevice|NvmeDevice)\(")
    offenders = []
    for folder in ("src", "benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            for n, line in enumerate(path.read_text().splitlines(), 1):
                if call.search(line) and not line.lstrip().startswith("class "):
                    offenders.append(f"{path.relative_to(root)}:{n}")
    assert offenders == []
