"""Figure 10: VOP throughput of the full LSM stack vs app-request mix.

(a) Pure GET and pure PUT workloads over the request-size range;
(b) mixed GET/PUT ratios over a (GET size × PUT size) grid with
log-normal sizes (σ = 4K);
(c) the CDF of (b)'s throughput per ratio, and how the provisionable
VOP floor covers it.

Expected shape: pure GETs approach the device max; PUT workloads drop
well below it (FLUSH/COMPACT read-write interference); mixed ratios
degrade as the mix becomes PUT-heavy; the floor leaves a modest
unprovisionable-but-usable gap for PUT-heavy small-value workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.report import format_cdf, format_heatmap, format_table
from ..core.capacity import reference_capacity, stack_floor
from ..obs.metrics import cdf_points, percentile
from .common import KIB, parallel_map, size_label, stack_point

__all__ = ["run", "render", "Fig10Result"]


@dataclass
class Fig10Result:
    profile: str
    mode: str
    #: the stack-aware provisionable floor nodes use
    floor: float
    #: the raw-IO interference floor (Fig 4), for comparison
    raw_floor: float
    max_vops: float
    #: ('GET'|'PUT', size) -> VOP/s for the pure sweeps
    pure: Dict[Tuple[str, int], float]
    #: (get_fraction, get size, put size) -> VOP/s
    mixed: Dict[Tuple[float, int, int], float]

    def cdf_curves(self) -> Dict[str, List[Tuple[float, float]]]:
        curves = {}
        for fraction in sorted({f for (f, _g, _p) in self.mixed}):
            samples = [v for (f, _g, _p), v in self.mixed.items() if f == fraction]
            label = f"{int(fraction * 100)}:{int(round((1 - fraction) * 100))} GET/PUT"
            curves[label] = cdf_points([s / 1e3 for s in samples])
        return curves

    def floor_coverage(self) -> Dict[str, float]:
        """The paper's headline floor statistics over the mixed trials."""
        samples = sorted(self.mixed.values())
        p80 = percentile(samples, 80)
        below_floor = sum(1 for s in samples if s < self.floor) / len(samples)
        return {
            "p80_vops": p80,
            "floor_over_p80": self.floor / p80,
            "fraction_below_floor": below_floor,
            "median_unprovisionable": max(
                0.0, 1.0 - self.floor / percentile(samples, 50)
            ),
        }


def _point(args) -> float:
    """Total steady-state VOP/s of one backlogged app-request workload,
    on its own node (the unit of parallelism)."""
    profile_name, get_fraction, get_size, put_size, sigma, horizon, warmup, seed = args
    total = 0.0

    def note(tag, kind, cost):
        nonlocal total
        total += cost

    stack_point(
        profile_name, reference_capacity(profile_name).floor_vops, get_fraction,
        get_size, put_size, sigma, horizon, warmup, seed, note,
    )
    return total / (horizon - warmup)


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 9, jobs: int = 1
) -> Fig10Result:
    """Regenerate Figure 10 (pure sweep + mixed grid + CDF data).

    ``jobs`` fans the independent workload points out over worker
    processes; the merged result is byte-identical for any ``jobs``.
    """
    if quick:
        pure_sizes = [1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB]
        grid_sizes = [4 * KIB, 16 * KIB, 64 * KIB]
        horizon, warmup = 12.0, 5.0
    else:
        pure_sizes = [2**i * KIB for i in range(9)]
        grid_sizes = [1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB]
        horizon, warmup = 25.0, 10.0
    capacity = reference_capacity(profile_name)
    node_floor = stack_floor(profile_name)
    # Every point runs on its own fresh simulator/node, so the pure
    # sweep and the mixed grid are one flat list of independent work
    # units fanned out over `jobs` workers in a stable order.
    pure_keys = [(kind, size) for size in pure_sizes for kind in ("GET", "PUT")]
    mixed_keys = [
        (fraction, gsize, psize)
        for fraction in (0.75, 0.5, 0.25, 0.01) for gsize in grid_sizes for psize in grid_sizes
    ]
    points = [(1.0 if kind == "GET" else 0.0, size, size) for kind, size in pure_keys]
    tasks = [
        (profile_name, *point, 4 * KIB, horizon, warmup, seed)
        for point in points + mixed_keys
    ]
    values = parallel_map(_point, tasks, jobs=jobs)
    pure = dict(zip(pure_keys, values[: len(pure_keys)]))
    mixed = dict(zip(mixed_keys, values[len(pure_keys):]))
    return Fig10Result(
        profile=profile_name,
        mode="quick" if quick else "full",
        floor=node_floor,
        raw_floor=capacity.floor_vops,
        max_vops=capacity.max_vops,
        pure=pure,
        mixed=mixed,
    )


def render(result: Fig10Result) -> str:
    blocks = [
        f"Figure 10 — stack VOP throughput vs app-request workload, "
        f"{result.profile} ({result.mode})",
        f"device max = {result.max_vops / 1e3:.1f} kop/s, "
        f"stack VOP floor = {result.floor / 1e3:.1f} kop/s "
        f"(raw-IO floor {result.raw_floor / 1e3:.1f})",
        "",
    ]
    sizes = sorted({s for (_k, s) in result.pure})
    rows = [
        [size_label(s), result.pure[("GET", s)] / 1e3, result.pure[("PUT", s)] / 1e3]
        for s in sizes
    ]
    blocks.append(
        format_table(
            ["size", "GET kVOP/s", "PUT kVOP/s"], rows,
            title="(a) pure GET / PUT workloads",
        )
    )
    blocks.append("")
    grid_sizes = sorted({g for (_f, g, _p) in result.mixed})
    for fraction in sorted({f for (f, _g, _p) in result.mixed}, reverse=True):
        grid = [
            [result.mixed[(fraction, g, p)] / 1e3 for g in grid_sizes]
            for p in reversed(grid_sizes)
        ]
        blocks.append(
            format_heatmap(
                [size_label(p) for p in reversed(grid_sizes)],
                [size_label(g) for g in grid_sizes],
                grid,
                title=(
                    f"(b) {int(fraction * 100)}:{int(round((1 - fraction) * 100))} "
                    "GET/PUT (rows: PUT size, cols: GET size, kVOP/s)"
                ),
            )
        )
        blocks.append("")
    blocks.append(
        format_cdf(result.cdf_curves(), title="(c) CDF of mixed-workload VOP throughput",
                   value_label="kVOP/s")
    )
    coverage = result.floor_coverage()
    blocks.append(
        f"floor coverage: floor/P80 = {coverage['floor_over_p80']:.2f}, "
        f"trials below floor = {coverage['fraction_below_floor'] * 100:.0f}%, "
        f"median unprovisionable share = {coverage['median_unprovisionable'] * 100:.0f}%"
    )
    return "\n".join(blocks)
