"""SSD device parameter profiles.

The paper evaluates on three SSDs: an Intel 320 (SATA II), a Samsung 840
Pro and an OCZ Vector (both SATA III).  We model each as a parameter set
for the structural device model in :mod:`repro.ssd.device`: a controller
stage whose per-op cost caps IOP throughput, parallel flash channels
whose transfer rates cap bandwidth, program/erase penalties that make
writes more expensive than reads, and an FTL whose garbage collection
produces write amplification under random overwrite.

The constants are calibrated so the Intel profile lands near the paper's
headline numbers (peak ~37.5 kop/s interference-free VOP throughput,
~270 MB/s read bandwidth saturating around 64KB, write bandwidth
saturating around 32KB) while the SATA III profiles are faster with
different interference signatures (both show more degradation at large
write sizes, per Fig 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

__all__ = [
    "SsdProfile", "PROFILES", "get_profile",
    "intel320", "samsung840", "oczvector", "nvme",
]

KIB = 1024
MIB = 1024 * 1024

#: fields that must be ints >= 1 (geometry and queue sizes)
_POSITIVE_INTS = (
    "queue_depth", "num_queues", "channels", "page_size", "pages_per_block",
    "stripe_pages", "logical_capacity",
)
#: fields that must be finite and >= 0 (times in seconds, per-byte costs)
_TIMES = (
    "ctrl_overhead_read", "ctrl_overhead_write", "ctrl_byte_cost", "read_access",
    "read_byte_cost", "prog_latency", "write_byte_cost", "erase_latency",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SsdProfile:
    """All tunables for one simulated SSD.

    Times are in seconds, sizes in bytes, rates in bytes/second.
    """

    name: str
    # Host interface / controller ------------------------------------------
    queue_depth: int = 32            # per-queue depth (paper runs NCQ at 32)
    # NVMe queue architecture (ignored by the SATA SsdDevice; consumed by
    # repro.ssd.nvme.NvmeDevice) ---------------------------------------------
    num_queues: int = 1              # submission/completion queue pairs
    arbitration: str = "rr"          # SQ arbitration: "rr" | "wrr"
    wrr_weights: Optional[Tuple[int, ...]] = None  # per-SQ WRR credits
    core_tags: int = 0               # controller command tags (0 -> 2 * depth)
    ctrl_overhead_read: float = 22e-6   # fixed controller cost per read op
    ctrl_overhead_write: float = 55e-6  # fixed controller cost per write op
    # (writes cost more controller/firmware time than reads: mapping
    # updates, wear-leveling bookkeeping; this is also what couples
    # read and write throughput under mixed workloads)
    ctrl_byte_cost: float = 1.0 / (280 * MIB)  # SATA link + DMA per byte
    # Flash geometry ---------------------------------------------------------
    channels: int = 12               # independent channel/die pipelines
    page_size: int = 4 * KIB         # flash page (mapping granularity)
    pages_per_block: int = 64        # erase block = 256 KiB
    stripe_pages: int = 8            # pages per channel stripe chunk (32 KiB)
    logical_capacity: int = 256 * MIB   # advertised logical space
    overprovision: float = 1.0       # physical = logical * (1 + op)
    # Per-channel service times ----------------------------------------------
    read_access: float = 55e-6       # flash array read latency per chunk
    read_byte_cost: float = 1.0 / (40 * MIB)   # per-channel read transfer
    prog_latency: float = 650e-6     # program latency per chunk
    write_byte_cost: float = 1.0 / (40 * MIB)  # per-channel program transfer
    erase_latency: float = 1.5e-3    # block erase, blocks one channel
    # Garbage collection -------------------------------------------------------
    gc_low_watermark: float = 0.06   # start GC below this free-block frac
    gc_high_watermark: float = 0.10  # stop GC above this
    gc_reserve_blocks: int = 8       # always keep at least this many free
    ftl_policy: str = "greedy"       # see repro.ssd.ftl_policy.FTL_POLICIES

    def __post_init__(self):
        for name in _POSITIVE_INTS:
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} {value!r} must be an int >= 1")
        for name in ("core_tags", "gc_reserve_blocks"):
            value = getattr(self, name)
            if not _is_int(value) or value < 0:
                raise ValueError(f"{name} {value!r} must be an int >= 0")
        for name in _TIMES:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} {value!r} must be finite and >= 0")
        if not (math.isfinite(self.overprovision) and self.overprovision > 0):
            raise ValueError(f"overprovision {self.overprovision!r} must be positive")
        if not 0 < self.gc_low_watermark < self.gc_high_watermark < 1:
            raise ValueError(
                f"watermarks {self.gc_low_watermark!r}, {self.gc_high_watermark!r} "
                f"must satisfy 0 < gc_low_watermark < gc_high_watermark < 1"
            )
        if self.arbitration not in ("rr", "wrr"):
            raise ValueError(f"unknown arbitration {self.arbitration!r} (rr|wrr)")
        weights = self.wrr_weights
        if weights is not None:
            if len(weights) != self.num_queues:
                raise ValueError(
                    f"wrr_weights {weights} must have {self.num_queues} entries"
                )
            if not all(_is_int(w) and w >= 1 for w in weights):
                raise ValueError(f"wrr_weights {weights} must all be ints >= 1")

    @property
    def block_size(self) -> int:
        """Erase-block size in bytes."""
        return self.page_size * self.pages_per_block

    @property
    def physical_capacity(self) -> int:
        """Raw flash capacity in bytes (logical + overprovisioning)."""
        return int(self.logical_capacity * (1.0 + self.overprovision))

    @property
    def logical_pages(self) -> int:
        """Number of logical pages exposed to the host."""
        return self.logical_capacity // self.page_size

    @property
    def physical_blocks(self) -> int:
        """Number of physical erase blocks."""
        return self.physical_capacity // self.block_size

    def with_capacity(self, logical_capacity: int) -> "SsdProfile":
        """Clone the profile with a different logical capacity.

        Experiments shrink the address space to reach GC steady state
        quickly; the performance constants are capacity-independent.
        """
        return replace(self, logical_capacity=logical_capacity)

    def with_overprovision(self, overprovision: float) -> "SsdProfile":
        """Clone the profile with a different overprovisioning ratio.

        ``overprovision`` is spare-physical / logical (0.07 = 7% spare),
        the FTL design-space knob: less spare capacity means GC runs
        hotter and write amplification climbs.
        """
        return replace(self, overprovision=overprovision)

    def with_queues(
        self,
        num_queues: int,
        arbitration: str = "rr",
        wrr_weights: Optional[Tuple[int, ...]] = None,
    ) -> "SsdProfile":
        """Clone the profile with an NVMe queue configuration."""
        return replace(
            self, num_queues=num_queues, arbitration=arbitration,
            wrr_weights=wrr_weights,
        )


#: Intel 320 series, SATA II (3 Gbps).  The paper's primary device:
#: interference-free max ~37.5 kop/s, read BW ~270 MB/s, write ~160 MB/s.
intel320 = SsdProfile(name="intel320")

#: Samsung 840 Pro, SATA III (6 Gbps).  Faster controller and link;
#: pronounced degradation at large write sizes (Fig 7 middle panel).
samsung840 = SsdProfile(
    name="samsung840",
    ctrl_overhead_read=13e-6,
    ctrl_overhead_write=34e-6,
    ctrl_byte_cost=1.0 / (520 * MIB),
    channels=12,
    read_access=40e-6,
    read_byte_cost=1.0 / (48 * MIB),
    prog_latency=380e-6,
    write_byte_cost=1.0 / (32 * MIB),
    erase_latency=2.5e-3,
)

#: OCZ Vector (Indilinx controller), SATA III.  Parallelizes multi-tenant
#: IO better than single-tenant (throughput ratios > 1 in Fig 7), which we
#: model with more channels and a slightly slower controller.
oczvector = SsdProfile(
    name="oczvector",
    ctrl_overhead_read=15e-6,
    ctrl_overhead_write=38e-6,
    ctrl_byte_cost=1.0 / (500 * MIB),
    channels=16,
    read_access=45e-6,
    read_byte_cost=1.0 / (36 * MIB),
    prog_latency=420e-6,
    write_byte_cost=1.0 / (25 * MIB),
    erase_latency=3.0e-3,
)

#: A PCIe/NVMe-generation drive for the device design-space sweeps
#: (experiments/devicefig): eight SQ/CQ pairs, a faster link, and lower
#: per-command firmware cost — the controller stops being the IOP
#: bottleneck and the flash channels take over.
nvme = SsdProfile(
    name="nvme",
    num_queues=8,
    ctrl_overhead_read=8e-6,
    ctrl_overhead_write=18e-6,
    ctrl_byte_cost=1.0 / (1600 * MIB),
    channels=16,
    read_access=50e-6,
    read_byte_cost=1.0 / (44 * MIB),
    prog_latency=500e-6,
    write_byte_cost=1.0 / (36 * MIB),
    erase_latency=2.0e-3,
)

PROFILES: Dict[str, SsdProfile] = {
    p.name: p for p in (intel320, samsung840, oczvector, nvme)
}


def get_profile(name: str) -> SsdProfile:
    """Look up a built-in profile by name.

    Raises ``KeyError`` with the list of known names on a miss.
    """
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown SSD profile {name!r}; known: {known}") from None
