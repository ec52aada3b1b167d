"""Regression pinning: embedded reference tables vs fresh sweeps.

calibration.py promises that the embedded reference curves stay within
tolerance of a freshly run sweep; this is that check (for the primary
profile — the sweep costs a few wall seconds).  If a device-model
change shifts the curves, regenerate the tables with
``python -m repro.core.calibration`` and the floors with
``python -m repro.core.capacity`` — and recheck EXPERIMENTS.md.
"""

import pytest

from repro.core import CALIBRATION_SIZES, OpKind, calibrate_device, reference_calibration
from repro.core.calibration import _measure
from repro.node import NodeConfig, StorageNode
from repro.sim import Simulator
from repro.ssd import PROFILES, get_profile

KIB = 1024


@pytest.mark.slow
def test_intel320_reference_matches_fresh_sweep():
    reference = reference_calibration("intel320")
    # Sweep the full grid in the reference's order (device aging state
    # at each point depends on the points before it) at short windows.
    fresh = calibrate_device(
        get_profile("intel320"),
        duration=0.3,
        warmup=0.1,
    )
    for size in (1024, 16384, 262144):  # spot-check three decades
        assert fresh.read_iops[size] == pytest.approx(
            reference.read_iops[size], rel=0.12
        ), ("read", size)
        assert fresh.write_iops[size] == pytest.approx(
            reference.write_iops[size], rel=0.3  # writes are GC-noisier
        ), ("write", size)


def test_reference_tables_have_expected_anchors():
    """Headline constants the docs and EXPERIMENTS.md quote."""
    cal = reference_calibration("intel320")
    assert cal.max_iop == pytest.approx(39_237, rel=0.01)
    assert cal.sizes == CALIBRATION_SIZES
    # Read IOP decays by >30x across the grid, write peak is 12-16k.
    assert cal.read_iops[1024] / cal.read_iops[262144] > 30
    assert 11_000 < max(cal.write_iops.values()) < 17_000


def test_sata3_profiles_are_faster():
    intel = reference_calibration("intel320")
    for name in ("samsung840", "oczvector"):
        other = reference_calibration(name)
        assert other.max_iop > intel.max_iop
        # Large-read bandwidth is roughly doubled on SATA III.
        assert other.read_iops[262144] > intel.read_iops[262144] * 1.5


def test_nvme_reference_clears_sata_iop_ceiling():
    """The embedded 8-queue NVMe curve: per-queue controller lanes put
    small-read IOP/s far above any single-controller SATA profile."""
    nvme = reference_calibration("nvme")
    for name in ("intel320", "samsung840", "oczvector"):
        sata = reference_calibration(name)
        assert nvme.read_iops[1024] > 2.0 * sata.read_iops[1024], name
    # Large ops converge toward bandwidth limits, not 8x.
    assert nvme.read_iops[262144] < 2.0 * reference_calibration(
        "samsung840"
    ).read_iops[262144]


@pytest.mark.slow
def test_nvme_reference_matches_fresh_sweep():
    reference = reference_calibration("nvme")
    # Longer windows than the SATA check: the 256-entry aggregate queue
    # needs more completions per point before the rate estimate settles.
    fresh = calibrate_device(get_profile("nvme"), duration=0.8, warmup=0.3)
    for size in (1024, 16384, 262144):
        assert fresh.read_iops[size] == pytest.approx(
            reference.read_iops[size], rel=0.12
        ), ("read", size)
        assert fresh.write_iops[size] == pytest.approx(
            reference.write_iops[size], rel=0.3
        ), ("write", size)



@pytest.mark.parametrize("name", sorted(PROFILES))
def test_node_device_reproduces_its_cost_model_calibration(name):
    """A node prices IO with its profile's reference curve, so the
    device it builds must be the one that curve was measured on: an
    8-queue profile on the one-controller SATA model runs 1 KiB reads
    at 0.6x the curve, so the node would price them too cheap."""
    sim = Simulator()
    node = StorageNode(sim, profile=name, config=NodeConfig(capacity_vops=1.0))
    reference = reference_calibration(name)

    def ratio(kind, size):
        measured = _measure(sim, node.device, kind, size, 0.05, 0.02, seed=42)
        return measured / reference.curve(kind)[size]

    ratios = {
        ("read", 1 * KIB): ratio(OpKind.READ, 1 * KIB),
        ("read", 4 * KIB): ratio(OpKind.READ, 4 * KIB),
        ("write", 4 * KIB): ratio(OpKind.WRITE, 4 * KIB),
    }
    # The curve's 64 KiB read followed the sweep's 32 KiB writes, whose
    # striped layout reads up to 11% faster than a freshly preconditioned
    # one: lay it down, let GC finish, then read.
    ratio(OpKind.WRITE, 32 * KIB)
    sim.run(until=sim.now + 0.5)
    ratios["read", 64 * KIB] = ratio(OpKind.READ, 64 * KIB)
    off = {point: round(r, 3) for point, r in ratios.items() if abs(r - 1.0) > 0.10}
    assert not off, f"measured / curve outside 1 +- 0.10 on {type(node.device).__name__}: {off}"
