"""Device calibration: measuring the pure read/write throughput curves.

The VOP cost model (§4.3) is "derived directly from the IOP throughput
curves": for each op type and size, run a backlogged random-access
workload at full queue depth and record the achieved IOP/s.  This module
is that benchmarking procedure, run against the simulated device.

Because calibration is deterministic for a given profile, the results
for the three built-in profiles are also embedded as reference tables
(regenerate with ``python -m repro.core.calibration``), so constructing
a cost model does not require re-running the sweep.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from ..sim import Simulator
from ..ssd import SsdDevice, SsdProfile, get_profile, make_device
from .tags import OpKind

__all__ = [
    "CalibrationResult",
    "CALIBRATION_SIZES",
    "calibrate_device",
    "reference_calibration",
    "REFERENCE_CURVES",
]

KIB = 1024

#: The paper's calibration grid: 1 KB to 256 KB, log-spaced.
CALIBRATION_SIZES: Tuple[int, ...] = tuple(2**i * KIB for i in range(9))


@dataclass(frozen=True)
class CalibrationResult:
    """Pure-workload throughput curves for one device profile.

    ``read_iops``/``write_iops`` map op size (bytes) to achieved op/s
    under a backlogged random workload at full queue depth.
    """

    profile_name: str
    read_iops: Dict[int, float]
    write_iops: Dict[int, float]

    @property
    def max_iop(self) -> float:
        """Interference-free maximum IOP/s — the VOP/s capacity (Max-IOP)."""
        return max(max(self.read_iops.values()), max(self.write_iops.values()))

    def curve(self, kind: OpKind) -> Dict[int, float]:
        """The achieved-IOP curve for one op kind."""
        return self.read_iops if kind == OpKind.READ else self.write_iops

    @property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(sorted(self.read_iops))


def _measure(
    sim: Simulator,
    device: SsdDevice,
    kind: OpKind,
    size: int,
    duration: float,
    warmup: float,
    seed: int,
) -> float:
    """Closed-loop backlogged sweep at one op size; returns op/s."""
    profile = device.profile
    rng = random.Random(seed)
    page = profile.page_size
    max_slot = (profile.logical_capacity - size) // page
    done = {"n": 0}
    start = sim.now
    horizon = start + warmup + duration

    def worker(ctx):
        while sim.now < horizon:
            offset = rng.randrange(0, max_slot) * page
            if kind == OpKind.READ:
                yield device.read(offset, size, ctx)
            else:
                yield device.write(offset, size, ctx)
            if sim.now >= start + warmup:
                done["n"] += 1

    # One backlogged submitter per host queue slot; each carries a
    # submitter identity so multi-queue devices spread them over SQs
    # (a SATA device ignores ctx entirely).
    for i in range(device.queue_depth):
        sim.process(worker((None, f"cal{i}")))
    sim.run(until=horizon)
    return done["n"] / duration


def calibrate_device(
    profile: SsdProfile,
    sizes: Iterable[int] = CALIBRATION_SIZES,
    duration: float = 0.6,
    warmup: float = 0.2,
    seed: int = 42,
) -> CalibrationResult:
    """Run the full pure read/write calibration sweep for a profile.

    One shared device instance is used across points (like benchmarking
    a single physical drive), so later points see an aged FTL.  The
    device is the one the profile describes (:func:`~repro.ssd.make_device`).
    """
    sim = Simulator()
    device = make_device(sim, profile, seed=seed)
    read_iops, write_iops = {}, {}
    for size in sizes:
        read_iops[size] = _measure(sim, device, OpKind.READ, size, duration, warmup, seed)
        write_iops[size] = _measure(sim, device, OpKind.WRITE, size, duration, warmup, seed)
    return CalibrationResult(
        profile_name=profile.name, read_iops=read_iops, write_iops=write_iops
    )


#: Reference curves for the built-in profiles (op size bytes -> op/s),
#: produced by ``calibrate_device`` with default parameters.  Values are
#: filled in by ``python -m repro.core.calibration --emit`` and pasted
#: here; tests assert they stay within tolerance of a fresh sweep.
REFERENCE_CURVES: Dict[str, CalibrationResult] = {}


def _register_reference(name: str, read: Dict[int, float], write: Dict[int, float]) -> None:
    REFERENCE_CURVES[name] = CalibrationResult(
        profile_name=name, read_iops=dict(read), write_iops=dict(write)
    )


_register_reference(
    'intel320',
    read={1024: 39236.7, 2048: 34511.7, 4096: 27813.3, 8192: 20038.3, 16384: 12855.0, 32768: 7483.3, 65536: 4078.3, 131072: 2135.0, 262144: 1091.7},
    write={1024: 12990.0, 2048: 15350.0, 4096: 13578.3, 8192: 10528.3, 16384: 7388.3, 32768: 4460.0, 65536: 2485.0, 131072: 1396.7, 262144: 716.7},
)
_register_reference(
    'samsung840',
    read={1024: 67215.0, 2048: 59676.7, 4096: 48750.0, 8192: 35678.3, 16384: 23170.0, 32768: 13553.3, 65536: 7411.7, 131072: 3840.0, 262144: 2020.0},
    write={1024: 16921.7, 2048: 22245.0, 4096: 21903.3, 8192: 13523.3, 16384: 9313.3, 32768: 5053.3, 65536: 2436.7, 131072: 1415.0, 262144: 690.0},
)
_register_reference(
    'oczvector',
    read={1024: 58986.7, 2048: 52891.7, 4096: 43833.3, 8192: 32651.7, 16384: 21615.0, 32768: 12885.0, 65536: 7080.0, 131072: 3758.3, 262144: 1936.7},
    write={1024: 18148.3, 2048: 21908.3, 4096: 20545.0, 8192: 14860.0, 16384: 9465.0, 32768: 5265.0, 65536: 2618.3, 131072: 1478.3, 262144: 741.7},
)
_register_reference(
    'nvme',
    read={1024: 194100.0, 2048: 149066.7, 4096: 101655.0, 8192: 53825.0, 16384: 29888.3, 32768: 16805.0, 65536: 9068.3, 131072: 4755.0, 262144: 2510.0},
    write={1024: 20656.7, 2048: 23843.3, 4096: 24753.3, 8192: 17101.7, 16384: 11405.0, 32768: 6935.0, 65536: 3715.0, 131072: 1858.3, 262144: 886.7},
)


_FRESH_CACHE: Dict[SsdProfile, CalibrationResult] = {}


def reference_calibration(profile) -> CalibrationResult:
    """Calibration for a profile (name or :class:`SsdProfile`).

    Built-in profiles return the embedded tables; custom profiles are
    swept once and cached for the process lifetime.
    """
    if isinstance(profile, str):
        if profile in REFERENCE_CURVES:
            return REFERENCE_CURVES[profile]
        profile = get_profile(profile)
    if profile.name in REFERENCE_CURVES:
        return REFERENCE_CURVES[profile.name]
    if profile not in _FRESH_CACHE:
        _FRESH_CACHE[profile] = calibrate_device(profile)
    return _FRESH_CACHE[profile]


def _main() -> None:  # pragma: no cover - regeneration utility
    import sys

    for name in ("intel320", "samsung840", "oczvector", "nvme"):
        result = calibrate_device(get_profile(name))
        print("_register_reference(")
        print(f"    {name!r},")
        print(f"    read={{{', '.join(f'{s}: {v:.1f}' for s, v in sorted(result.read_iops.items()))}}},")
        print(f"    write={{{', '.join(f'{s}: {v:.1f}' for s, v in sorted(result.write_iops.items()))}}},")
        print(")")
        sys.stdout.flush()


if __name__ == "__main__":  # pragma: no cover
    _main()
