"""Libra core: tags, VOP cost models, DDRR scheduler, tracker, policy."""

from .calibration import (
    CALIBRATION_SIZES,
    CalibrationResult,
    calibrate_device,
    reference_calibration,
)
from .capacity import CapacityModel, estimate_floor, reference_capacity, stack_floor
from .policy import AdmissionError, OverflowReport, Reservation, ResourcePolicy
from .scheduler import LibraScheduler, SchedulerConfig, TenantUsage
from .tags import BEST_EFFORT, InternalOp, IoTag, OpKind, RequestClass
from .tracker import NORMALIZED_REQUEST_BYTES, Ewma, RequestProfile, ResourceTracker
from .vop import (
    COST_MODEL_NAMES,
    ConstantCostModel,
    CostModel,
    ExactCostModel,
    FittedCostModel,
    FixedCostModel,
    LinearCostModel,
    make_cost_model,
)

__all__ = [
    "AdmissionError",
    "BEST_EFFORT",
    "CALIBRATION_SIZES",
    "COST_MODEL_NAMES",
    "CalibrationResult",
    "CapacityModel",
    "ConstantCostModel",
    "CostModel",
    "Ewma",
    "ExactCostModel",
    "FittedCostModel",
    "FixedCostModel",
    "InternalOp",
    "IoTag",
    "LibraScheduler",
    "LinearCostModel",
    "NORMALIZED_REQUEST_BYTES",
    "OpKind",
    "OverflowReport",
    "RequestClass",
    "RequestProfile",
    "Reservation",
    "ResourcePolicy",
    "ResourceTracker",
    "SchedulerConfig",
    "TenantUsage",
    "calibrate_device",
    "estimate_floor",
    "make_cost_model",
    "reference_calibration",
    "reference_capacity",
    "stack_floor",
]
