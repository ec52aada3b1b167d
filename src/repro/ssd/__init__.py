"""Simulated SSD substrate: device model, FTL, profiles, filesystem."""

from .device import SsdDevice, StagePipeline
from .filesystem import IoBackend, OutOfSpace, RawBackend, SimFile, SimFilesystem
from .ftl import Ftl, GcMove, WritePlan
from .ftl_policy import (
    FTL_POLICIES,
    CostBenefitGcPolicy,
    FtlPolicy,
    GreedyGcPolicy,
    HotColdPolicy,
    make_ftl_policy,
)
from .nvme import NvmeDevice, make_device
from .profiles import (
    PROFILES,
    SsdProfile,
    get_profile,
    intel320,
    nvme,
    oczvector,
    samsung840,
)
from .stats import SsdStats

__all__ = [
    "CostBenefitGcPolicy",
    "FTL_POLICIES",
    "Ftl",
    "FtlPolicy",
    "GcMove",
    "GreedyGcPolicy",
    "HotColdPolicy",
    "IoBackend",
    "NvmeDevice",
    "OutOfSpace",
    "PROFILES",
    "RawBackend",
    "SimFile",
    "SimFilesystem",
    "SsdDevice",
    "SsdProfile",
    "SsdStats",
    "StagePipeline",
    "WritePlan",
    "get_profile",
    "intel320",
    "make_device",
    "make_ftl_policy",
    "nvme",
    "oczvector",
    "samsung840",
]
