"""Figure 6: the Libra VOP cost model.

Prints the exact read/write VOP cost-per-KB curves derived from the
device calibration.  Expected shape: cost-per-byte decays steeply with
op size to a bandwidth-bound floor; write cost sits above read cost
with the gap narrowing at large sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.report import format_table
from ..core.calibration import reference_calibration
from ..core.tags import OpKind
from ..core.vop import ExactCostModel
from .common import size_label

__all__ = ["run", "render", "Fig6Result"]


@dataclass
class Fig6Result:
    profile: str
    max_iop: float
    #: (kind, size) -> (cost per op in VOPs, cost per KiB)
    points: Dict[Tuple[str, int], Tuple[float, float]]


def run(quick: bool = True, profile_name: str = "intel320", jobs: int = 1) -> Fig6Result:
    """Regenerate the Figure 6 cost curves (calibration-derived).

    ``jobs`` is accepted for CLI uniformity but unused: this figure is
    pure computation over the cached calibration (no simulation).
    """
    calibration = reference_calibration(profile_name)
    model = ExactCostModel(calibration)
    points = {}
    for kind in (OpKind.READ, OpKind.WRITE):
        for size in calibration.sizes:
            points[(kind.value, size)] = (
                model.cost(kind, size),
                model.cost_per_kib(kind, size),
            )
    return Fig6Result(profile=profile_name, max_iop=calibration.max_iop, points=points)


def render(result: Fig6Result) -> str:
    sizes = sorted({s for (_k, s) in result.points})
    rows = []
    for size in sizes:
        r_cost, r_cpk = result.points[("read", size)]
        w_cost, w_cpk = result.points[("write", size)]
        rows.append([size_label(size), r_cpk, w_cpk, r_cost, w_cost])
    return format_table(
        ["size", "read op/KB", "write op/KB", "read VOP", "write VOP"],
        rows,
        title=(
            f"Figure 6 — Libra IO cost model, {result.profile} "
            f"(max VOP/s = {result.max_iop / 1e3:.1f}k)"
        ),
    )
