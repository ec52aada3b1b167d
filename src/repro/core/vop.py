"""Virtual IOP (VOP) cost models.

The VOP (§4.3) is a size-normalized, variable-cost IOP: Libra charges
each IO operation

    VOPcost(size) = VOPCPB(size) × size,
    VOPCPB(size)  = Max-IOP / (Achieved-IOP(size) × size)

so that a device running any *pure* calibration workload sustains a
constant Max-IOP VOP/s regardless of op size.  10000 1KB reads, ~3000
1KB writes, and ~160 256KB reads then all cost the same VOP rate —
about a quarter of the device — which is exactly the paper's example.

Alongside Libra's exact and fitted models, this module implements the
baselines the paper compares against (Fig 8/9):

- ``constant``: constant cost-per-byte (DynamoDB pricing: one 100KB GET
  = one hundred 1KB GETs), which over-charges everything larger than
  the anchor size;
- ``linear``: affine cost with non-zero intercept interpolating the
  endpoints (the FlashFQ/mClock family), which undercuts the true curve
  mid-range;
- ``fixed``: every IOP costs the same regardless of size (plain IOP
  provisioning), which lets large-IOP tenants over-consume.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Tuple

import numpy as np

from .calibration import CalibrationResult
from .tags import OpKind

__all__ = [
    "CostModel",
    "ExactCostModel",
    "FittedCostModel",
    "ConstantCostModel",
    "LinearCostModel",
    "FixedCostModel",
    "make_cost_model",
    "COST_MODEL_NAMES",
]

KIB = 1024


class CostModel(ABC):
    """Maps an IO operation (kind, size) to its cost in VOPs."""

    #: short identifier used in reports and experiment parameters
    name: str = "abstract"

    def __init__(self, calibration: CalibrationResult):
        self.calibration = calibration
        #: the device's interference-free VOP/s capacity
        self.max_iop = calibration.max_iop

    @abstractmethod
    def cost(self, kind: OpKind, size: int) -> float:
        """VOPs charged for one operation of ``size`` bytes."""

    def cost_per_kib(self, kind: OpKind, size: int) -> float:
        """VOP cost per KiB at this op size (the Fig 6/8 curves)."""
        return self.cost(kind, size) / (size / KIB)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.calibration.profile_name}>"


class _CurveInterpolator:
    """Log-log linear interpolation of an achieved-IOP curve."""

    def __init__(self, curve: Dict[int, float]):
        sizes = sorted(curve)
        self.log_sizes = np.log([float(s) for s in sizes])
        self.log_iops = np.log([curve[s] for s in sizes])
        self.min_size = sizes[0]
        self.max_size = sizes[-1]
        self.min_iops = curve[sizes[0]]
        self.max_size_iops = curve[sizes[-1]]

    def achieved_iops(self, size: int) -> float:
        if size <= self.min_size:
            # Below the grid an op still costs a full small IOP.
            return self.min_iops
        if size >= self.max_size:
            # Beyond the grid, bandwidth is the bottleneck: op/s scales
            # inversely with size (constant cost-per-byte).
            return self.max_size_iops * self.max_size / size
        return float(np.exp(np.interp(math.log(size), self.log_sizes, self.log_iops)))


class ExactCostModel(CostModel):
    """Libra's exact model: straight off the measured throughput curves."""

    name = "exact"

    def __init__(self, calibration: CalibrationResult):
        super().__init__(calibration)
        self._interp = {
            OpKind.READ: _CurveInterpolator(calibration.read_iops),
            OpKind.WRITE: _CurveInterpolator(calibration.write_iops),
        }
        #: (kind, size) -> cost.  Exact, not approximate: cost is a pure
        #: function of the curves frozen above, and the scheduler prices
        #: the same handful of chunk sizes on every dispatch (sizes are
        #: capped by its chunk size, which bounds the memo).
        self._memo: Dict[Tuple[OpKind, int], float] = {}

    def cost(self, kind: OpKind, size: int) -> float:
        cost = self._memo.get((kind, size))
        if cost is None:
            cost = self.max_iop / self._interp[kind].achieved_iops(size)
            self._memo[kind, size] = cost
        return cost


class FittedCostModel(CostModel):
    """Libra's fitted model: a smooth power-law-plus-floor fit.

    Fits VOPCPB(s) = a·s^(-b) + c per op kind over the calibration
    grid (in KiB), which captures the high cost-per-byte of small ops
    decaying to the bandwidth-bound floor.  The small gap to the exact
    model is the "approximation error" the paper mentions for Fig 9.
    """

    name = "fitted"

    def __init__(self, calibration: CalibrationResult):
        super().__init__(calibration)
        from scipy.optimize import curve_fit  # local: scipy import is slow

        self._params: Dict[OpKind, Tuple[float, float, float]] = {}
        self._memo: Dict[Tuple[OpKind, int], float] = {}  # as ExactCostModel's
        for kind in (OpKind.READ, OpKind.WRITE):
            curve = calibration.curve(kind)
            sizes_kib = np.array([s / KIB for s in sorted(curve)])
            cpb = np.array(
                [self.max_iop / (curve[s] * (s / KIB)) for s in sorted(curve)]
            )
            (a, b, c), _cov = curve_fit(
                self._shape,
                sizes_kib,
                cpb,
                p0=(float(cpb[0]), 1.0, float(cpb[-1])),
                bounds=([1e-9, 0.05, 0.0], [np.inf, 3.0, np.inf]),
                maxfev=20000,
            )
            self._params[kind] = (float(a), float(b), float(c))

    @staticmethod
    def _shape(s, a, b, c):
        return a * np.power(s, -b) + c

    def params(self, kind: OpKind) -> Tuple[float, float, float]:
        """The fitted (a, b, c) of VOPCPB(s) = a·s^-b + c, s in KiB."""
        return self._params[kind]

    def cost(self, kind: OpKind, size: int) -> float:
        cost = self._memo.get((kind, size))
        if cost is None:
            a, b, c = self._params[kind]
            size_kib = max(size / KIB, 1e-9)
            cost = float(self._shape(size_kib, a, b, c) * size_kib)
            self._memo[kind, size] = cost
        return cost


class ConstantCostModel(CostModel):
    """Constant cost-per-byte, anchored at the smallest calibrated op.

    DynamoDB's pricing model: a 100KB request costs one hundred times a
    1KB request, ignoring that small ops are IOP-bound.
    """

    name = "constant"

    def __init__(self, calibration: CalibrationResult):
        super().__init__(calibration)
        self._cpb = {}
        for kind in (OpKind.READ, OpKind.WRITE):
            curve = calibration.curve(kind)
            anchor = min(curve)
            self._cpb[kind] = self.max_iop / (curve[anchor] * (anchor / KIB))

    def cost(self, kind: OpKind, size: int) -> float:
        return self._cpb[kind] * (size / KIB)


class LinearCostModel(CostModel):
    """Affine cost a + b·size through the exact endpoints.

    The virtual-time-scheduler family (FlashFQ, mClock) estimates IO
    cost with a linear model; it matches the true curve at the
    interpolation endpoints but undercuts it in between.
    """

    name = "linear"

    def __init__(self, calibration: CalibrationResult):
        super().__init__(calibration)
        self._coeffs = {}
        exact = ExactCostModel(calibration)
        for kind in (OpKind.READ, OpKind.WRITE):
            curve = calibration.curve(kind)
            s_lo, s_hi = min(curve), max(curve)
            c_lo, c_hi = exact.cost(kind, s_lo), exact.cost(kind, s_hi)
            slope = (c_hi - c_lo) / (s_hi - s_lo)
            intercept = c_lo - slope * s_lo
            self._coeffs[kind] = (intercept, slope)

    def cost(self, kind: OpKind, size: int) -> float:
        intercept, slope = self._coeffs[kind]
        return intercept + slope * size


class FixedCostModel(CostModel):
    """Every IOP costs the same, regardless of size.

    Anchored at the smallest calibrated op, so large IOPs are grossly
    under-charged and their tenants over-consume physical IO.
    """

    name = "fixed"

    def __init__(self, calibration: CalibrationResult):
        super().__init__(calibration)
        exact = ExactCostModel(calibration)
        self._flat = {
            kind: exact.cost(kind, min(calibration.curve(kind)))
            for kind in (OpKind.READ, OpKind.WRITE)
        }

    def cost(self, kind: OpKind, size: int) -> float:
        return self._flat[kind]


_MODELS = {
    cls.name: cls
    for cls in (ExactCostModel, FittedCostModel, ConstantCostModel, LinearCostModel, FixedCostModel)
}

COST_MODEL_NAMES: Tuple[str, ...] = tuple(_MODELS)


def make_cost_model(name: str, calibration: CalibrationResult) -> CostModel:
    """Construct a cost model by name (exact/fitted/constant/linear/fixed)."""
    try:
        cls = _MODELS[name]
    except KeyError:
        raise KeyError(f"unknown cost model {name!r}; known: {COST_MODEL_NAMES}") from None
    return cls(calibration)
