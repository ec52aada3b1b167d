"""Figure 7: per-tenant IOP throughput ratios on three SSDs.

For each (read size, write size) pair, 4 reader tenants and 4 writer
tenants with *equal VOP allocations* share the device; each tenant's
IOP throughput ratio is its achieved op/s over its expected share
(isolated rate / 8).  Expected shape: reader and writer ratios track
each other closely (VOP allocation translates into proportional
physical insulation) with MMR ≈ 0.98 on average; under interference
both drop together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.report import format_table
from ..obs.metrics import mmr
from ..ssd import get_profile
from ..workload.iobench import DeviceEnv
from .common import mode_for, parallel_map, size_label
from .fig9 import equal_share_trial

__all__ = ["run", "render", "Fig7Result"]

PROFILES = ("intel320", "samsung840", "oczvector")


@dataclass
class CellRatios:
    read_ratio: float
    write_ratio: float
    mmr: float
    ratios: Dict[str, float]


@dataclass
class Fig7Result:
    mode: str
    sizes: Tuple[int, ...]
    #: (profile, read size, write size) -> ratios
    cells: Dict[Tuple[str, int, int], CellRatios]

    def mean_mmr(self, profile: str) -> float:
        values = [c.mmr for (p, _r, _w), c in self.cells.items() if p == profile]
        return sum(values) / len(values) if values else 0.0


def _profile_cells(args) -> Dict[Tuple[str, int, int], CellRatios]:
    """One device profile's whole size grid (the unit of parallelism).

    Each cell is fig9's ``rw`` pairing under the exact cost model: 4
    readers + 4 writers at equal VOP allocations.  Each profile already
    ran on its own freshly seeded device env, so fanning profiles out
    over workers reproduces the serial trajectory.
    """
    profile_name, sizes, duration, warmup, seed = args
    env = DeviceEnv(get_profile(profile_name), seed=seed)
    cells = {}
    for rsize in sizes:
        for wsize in sizes:
            _trial, ratios = equal_share_trial(
                profile_name, "rw", rsize, wsize, env, duration, warmup, seed, "exact"
            )
            readers = [v for k, v in ratios.items() if k.startswith("r")]
            writers = [v for k, v in ratios.items() if k.startswith("w")]
            cells[(profile_name, rsize, wsize)] = CellRatios(
                read_ratio=sum(readers) / len(readers),
                write_ratio=sum(writers) / len(writers),
                mmr=mmr(ratios.values()),
                ratios=ratios,
            )
    return cells


def run(
    quick: bool = True,
    seed: int = 7,
    profiles: Tuple[str, ...] = PROFILES,
    jobs: int = 1,
) -> Fig7Result:
    """Regenerate Figure 7 over all three device profiles.

    ``jobs`` fans the profiles out over worker processes; the merged
    result is byte-identical for any ``jobs``.
    """
    mode = mode_for(quick)
    tasks = [
        (profile_name, tuple(mode.sizes), mode.duration, mode.warmup, seed)
        for profile_name in profiles
    ]
    cells = {}
    for profile_cells in parallel_map(_profile_cells, tasks, jobs=jobs):
        cells.update(profile_cells)
    return Fig7Result(mode=mode.name, sizes=tuple(mode.sizes), cells=cells)


def render(result: Fig7Result) -> str:
    blocks = [f"Figure 7 — IOP throughput ratios, equal VOP allocations ({result.mode})"]
    profiles = sorted({p for (p, _r, _w) in result.cells})
    for profile in profiles:
        rows = []
        for rsize in result.sizes:
            for wsize in result.sizes:
                cell = result.cells[(profile, rsize, wsize)]
                rows.append(
                    [
                        f"R{size_label(rsize)}",
                        f"W{size_label(wsize)}",
                        cell.read_ratio,
                        cell.write_ratio,
                        cell.mmr,
                    ]
                )
        blocks.append(
            format_table(
                ["read", "write", "read ratio", "write ratio", "MMR"],
                rows,
                title=f"{profile}: mean tenant MMR = {result.mean_mmr(profile):.3f}",
            )
        )
    return "\n\n".join(blocks)
