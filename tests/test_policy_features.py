"""Tests for admission control and overage metering."""

import random

import pytest

from repro.core import (
    IoTag,
    LibraScheduler,
    Reservation,
    ResourcePolicy,
    ResourceTracker,
    make_cost_model,
    reference_calibration,
)
from repro.core.policy import AdmissionError
from repro.engine import EngineConfig
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.ssd import SsdDevice, SsdProfile

KIB = 1024
MIB = 1024 * 1024

TINY = SsdProfile(name="tiny-pol", channels=4, logical_capacity=64 * MIB, overprovision=1.0)


def make_policy_env(capacity=5000.0):
    sim = Simulator()
    device = SsdDevice(sim, TINY, seed=1, precondition=False)
    scheduler = LibraScheduler(
        sim, device, make_cost_model("exact", reference_calibration("intel320"))
    )
    tracker = ResourceTracker()
    policy = ResourcePolicy(sim, scheduler, tracker, capacity_vops=capacity)
    return sim, scheduler, tracker, policy


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_admit_within_capacity():
    _sim, scheduler, _tracker, policy = make_policy_env(capacity=5000.0)
    scheduler.register_tenant("a")
    policy.admit("a", Reservation(gets=2000.0, puts=1000.0))  # cold cost 1/unit
    assert policy.reservation("a").gets == 2000.0


def test_admit_rejects_over_capacity():
    _sim, scheduler, _tracker, policy = make_policy_env(capacity=5000.0)
    scheduler.register_tenant("a")
    scheduler.register_tenant("b")
    policy.admit("a", Reservation(gets=3000.0))
    with pytest.raises(AdmissionError):
        policy.admit("b", Reservation(gets=2500.0))
    # The rejected reservation was not installed.
    assert policy.reservation("b").gets == 0.0


def test_admit_replacing_own_reservation_allowed():
    _sim, scheduler, _tracker, policy = make_policy_env(capacity=5000.0)
    scheduler.register_tenant("a")
    policy.admit("a", Reservation(gets=4000.0))
    # Replacing (not adding to) its own reservation stays feasible.
    policy.admit("a", Reservation(gets=4500.0))
    assert policy.reservation("a").gets == 4500.0


def test_can_admit_uses_learned_profiles():
    _sim, scheduler, tracker, policy = make_policy_env(capacity=5000.0)
    scheduler.register_tenant("a")
    # Teach the tracker an expensive PUT profile: 5 VOPs per unit.
    from repro.core import OpKind, RequestClass

    tag = IoTag("a", RequestClass.PUT)
    tracker.note_io(tag, OpKind.WRITE, 100 * KIB, 500.0)
    tracker.note_request("a", RequestClass.PUT, 100 * KIB)
    tracker.roll_interval()
    assert policy.can_admit("a", Reservation(puts=900.0))  # 4500 VOPs
    assert not policy.can_admit("a", Reservation(puts=1100.0))  # 5500 VOPs


# ---------------------------------------------------------------------------
# Overage metering
# ---------------------------------------------------------------------------

def test_overage_metered_for_work_conserving_excess():
    sim = Simulator()
    node = StorageNode(
        sim,
        profile=TINY,
        config=NodeConfig(
            capacity_vops=15_000.0,
            engine=EngineConfig(memtable_bytes=256 * KIB, level1_bytes=1 * MIB),
        ),
        seed=2,
    )
    # Tiny reservation, hammering workload: consumption far exceeds the
    # allocation, so the policy should bill overage.
    node.add_tenant("t1", Reservation(gets=10.0, puts=10.0))
    rng = random.Random(3)

    def worker():
        while sim.now < 6.0:
            key = rng.randrange(500)
            if rng.random() < 0.5:
                yield from node.get("t1", key)
            else:
                yield from node.put("t1", key, 8 * KIB)

    for _ in range(8):
        sim.process(worker())
    sim.run(until=6.0)
    assert node.policy.overage.get("t1", 0.0) > 0.0


def test_no_overage_when_within_allocation():
    _sim, scheduler, _tracker, policy = make_policy_env()
    scheduler.register_tenant("a", allocation=1000.0)
    scheduler.usage("a").vops = 500.0  # half the 1s entitlement
    policy.reprovision()
    assert policy.overage.get("a", 0.0) == 0.0
