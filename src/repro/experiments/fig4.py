"""Figure 4: IO throughput under interference (heat maps).

8 backlogged tenants with equal VOP allocations issue raw reads/writes
through Libra over a (read size × write size) grid, for each read/write
mix ratio, plus log-normal variable-size rows.  Each cell reports total
VOP/s measured with the exact cost model.  Expected shape: mild
interference for read-dominant mixes, a throughput valley that spreads
and migrates as the mix moves toward writes, and flatter/lower surfaces
as size variance grows.

Each ``(ratio, sigma)`` variant runs on its own aged device seeded from
``derive_seed(seed, variant_index)``, so variants are independent work
units: ``run(..., jobs=N)`` fans them out over worker processes and the
merged result is byte-identical to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_heatmap
from ..ssd import get_profile
from ..workload.iobench import DeviceEnv, run_interference_trial
from .common import ExperimentMode, derive_seed, mode_for, parallel_map, ratio_label, size_label

__all__ = ["run", "render", "Fig4Result"]


@dataclass
class Fig4Result:
    profile: str
    mode: str
    sizes: Tuple[int, ...]
    #: (ratio, sigma, read size, write size) -> total VOP/s
    cells: Dict[Tuple[Optional[float], Optional[int], int, int], float]

    def grid(self, ratio: Optional[float], sigma: Optional[int]) -> List[List[float]]:
        """Rows = write sizes (large→small, as the paper draws it)."""
        return [
            [self.cells[(ratio, sigma, r, w)] for r in self.sizes]
            for w in reversed(self.sizes)
        ]

    def variants(self) -> List[Tuple[Optional[float], Optional[int]]]:
        """The ``(ratio, sigma)`` variants in display order: the 1:1 mix
        first, then falling read share, then the log-normal sigmas."""
        return sorted(
            {(ratio, sigma) for (ratio, sigma, _r, _w) in self.cells},
            key=lambda pair: (
                pair[1] is not None,
                -(pair[0] if pair[0] is not None else 2),
                pair[1] or 0,
            ),
        )

    @property
    def floor(self) -> float:
        return min(self.cells.values())

    @property
    def peak(self) -> float:
        return max(self.cells.values())


def _variant_cells(args) -> Dict[Tuple[Optional[float], Optional[int], int, int], float]:
    """One ``(ratio, sigma)`` variant: all its (read × write) size cells.

    The variant is the unit of parallelism; it owns a freshly aged
    device seeded from the variant index (trials within it share that
    device back to back, like benchmarking one physical drive), so its
    cells depend only on ``args`` — never on sibling variants.
    """
    profile_name, ratio, sigma, index, sizes, duration, warmup, seed = args
    profile = get_profile(profile_name)
    env = DeviceEnv(profile, seed=derive_seed(seed, index))
    cells = {}
    for rsize in sizes:
        for wsize in sizes:
            trial = run_interference_trial(
                profile,
                read_size=rsize,
                write_size=wsize,
                read_fraction=ratio,
                sigma=sigma,
                duration=duration,
                warmup=warmup,
                seed=seed,
                env=env,
            )
            cells[(ratio, sigma, rsize, wsize)] = trial.total_vops_per_sec
    return cells


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 7,
    jobs: int = 1,
    mode: Optional[ExperimentMode] = None,
) -> Fig4Result:
    """Regenerate the Figure 4 interference sweep.

    ``jobs`` fans the (ratio, sigma) variants out over worker processes;
    the result is byte-identical for any ``jobs``.  ``mode`` overrides
    the quick/full grid (used by tests).
    """
    mode = mode or mode_for(quick)
    variants: List[Tuple[Optional[float], Optional[int]]] = [
        (ratio, None) for ratio in mode.ratios
    ]
    variants += [(0.5, sigma) for sigma in mode.sigmas]
    tasks = [
        (profile_name, ratio, sigma, index, tuple(mode.sizes), mode.duration, mode.warmup, seed)
        for index, (ratio, sigma) in enumerate(variants)
    ]
    cells = {}
    for variant_cells in parallel_map(_variant_cells, tasks, jobs=jobs):
        cells.update(variant_cells)
    return Fig4Result(
        profile=profile_name, mode=mode.name, sizes=tuple(mode.sizes), cells=cells
    )


def render(result: Fig4Result) -> str:
    blocks = [
        f"Figure 4 — VOP/s under IO interference, {result.profile} ({result.mode})",
        f"grid floor = {result.floor / 1e3:.1f} kop/s, peak = {result.peak / 1e3:.1f} kop/s",
        "",
    ]
    col_labels = [size_label(s) for s in result.sizes]
    row_labels = [size_label(s) for s in reversed(result.sizes)]
    for ratio, sigma in result.variants():
        title = f"{ratio_label(ratio)} read/write"
        if sigma is not None:
            title += f", log-normal sigma={size_label(sigma)}"
        grid = [[v / 1e3 for v in row] for row in result.grid(ratio, sigma)]
        blocks.append(
            format_heatmap(
                row_labels,
                col_labels,
                grid,
                title=f"{title} (rows: write size, cols: read size, kop/s)",
                lo=result.floor / 1e3,
                hi=result.peak / 1e3,
            )
        )
        blocks.append("")
    return "\n".join(blocks)
