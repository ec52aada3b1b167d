"""Workload generation: distributions, raw-IO trials, KV drivers."""

from .distributions import (
    BlockStream,
    ExponentialArrivals,
    FixedSize,
    LogNormalSize,
    Uniform01,
    UniformKeys,
    align,
)
from .epoch import (
    EpochSegment,
    EpochTenantResult,
    EpochTenantSpec,
    EpochTrialResult,
    RateChange,
    run_epoch_trial,
)
from .iobench import (
    DeviceEnv,
    TenantResult,
    TenantSpec,
    TrialResult,
    isolated_iops,
    run_interference_trial,
    run_raw_trial,
)

__all__ = [
    "BlockStream",
    "DeviceEnv",
    "EpochSegment",
    "EpochTenantResult",
    "EpochTenantSpec",
    "EpochTrialResult",
    "ExponentialArrivals",
    "RateChange",
    "run_epoch_trial",
    "FixedSize",
    "Uniform01",
    "LogNormalSize",
    "TenantResult",
    "TenantSpec",
    "TrialResult",
    "UniformKeys",
    "align",
    "isolated_iops",
    "run_interference_trial",
    "run_raw_trial",
]
