"""Figure 8: the competing virtual IOP cost models.

Prints read and write cost-per-KB curves for the exact, fitted,
constant, linear, and fixed cost models.  Expected shape: constant
charges far more per byte everywhere above the 1 KB anchor; linear
matches the endpoints but deviates in between; fixed collapses toward
zero cost-per-byte at large sizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.report import format_table
from ..core.calibration import reference_calibration
from ..core.tags import OpKind
from ..core.vop import COST_MODEL_NAMES, make_cost_model
from .common import size_label

__all__ = ["run", "render", "Fig8Result"]


@dataclass
class Fig8Result:
    profile: str
    #: (model, kind, size) -> cost per KiB
    points: Dict[Tuple[str, str, int], float]


def run(quick: bool = True, profile_name: str = "intel320", jobs: int = 1) -> Fig8Result:
    """Regenerate the Figure 8 cost-model comparison curves.

    ``jobs`` is accepted for CLI uniformity but unused: this figure is
    pure computation over the cached calibration (no simulation).
    """
    calibration = reference_calibration(profile_name)
    points = {}
    for name in COST_MODEL_NAMES:
        model = make_cost_model(name, calibration)
        for kind in (OpKind.READ, OpKind.WRITE):
            for size in calibration.sizes:
                points[(name, kind.value, size)] = model.cost_per_kib(kind, size)
    return Fig8Result(profile=profile_name, points=points)


def render(result: Fig8Result) -> str:
    sizes = sorted({s for (_m, _k, s) in result.points})
    blocks = [f"Figure 8 — VOP cost models (op/KB), {result.profile}"]
    for kind in ("read", "write"):
        rows = [
            [size_label(size)] + [
                result.points[(model, kind, size)] for model in COST_MODEL_NAMES
            ]
            for size in sizes
        ]
        blocks.append(
            format_table(
                ["size"] + list(COST_MODEL_NAMES), rows, title=f"{kind} IO cost models"
            )
        )
    return "\n\n".join(blocks)
