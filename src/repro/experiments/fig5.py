"""Figure 5: CDF of IO throughput under interference.

Replots the Figure 4 samples as CDFs of throughput normalized by the
minimum achieved throughput, one curve per (ratio, sigma) variant.
Expected shape: higher size variance pushes curves toward 1.0 (the
floor); write-leaning ratios sit lower than read-leaning ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.report import format_cdf
from ..obs.metrics import cdf_points, normalized_series
from .common import size_label, ratio_label
from .fig4 import Fig4Result, run as run_fig4

__all__ = ["run", "render", "Fig5Result"]


@dataclass
class Fig5Result:
    profile: str
    mode: str
    floor: float
    #: variant label -> CDF points of normalized throughput
    curves: Dict[str, List[Tuple[float, float]]]


def from_fig4(fig4: Fig4Result) -> Fig5Result:
    """Derive the Figure 5 CDFs from a Figure 4 sweep."""
    floor = fig4.floor
    curves = {}
    for ratio, sigma in fig4.variants():
        samples = [
            vops
            for (r, s, _rs, _ws), vops in fig4.cells.items()
            if r == ratio and s == sigma
        ]
        label = ratio_label(ratio)
        if sigma is not None:
            label += f" s={size_label(sigma)}"
        curves[label] = cdf_points(normalized_series(samples, reference=floor))
    return Fig5Result(profile=fig4.profile, mode=fig4.mode, floor=floor, curves=curves)


def run(quick: bool = True, profile_name: str = "intel320", seed: int = 7,
        fig4_result: Optional[Fig4Result] = None, jobs: int = 1) -> Fig5Result:
    """Regenerate Figure 5 (reuses a Figure 4 sweep when provided).

    ``jobs`` is forwarded to the underlying Figure 4 sweep.
    """
    if fig4_result is None:
        fig4_result = run_fig4(quick=quick, profile_name=profile_name, seed=seed, jobs=jobs)
    return from_fig4(fig4_result)


def render(result: Fig5Result) -> str:
    header = (
        f"Figure 5 — CDF of IO throughput normalized by the minimum "
        f"({result.floor / 1e3:.1f} kop/s), {result.profile} ({result.mode})"
    )
    return format_cdf(result.curves, title=header, value_label="normalized VOP/s")
