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
    "ExponentialArrivals",
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
