"""Libra: provisioned key-value storage with virtual IOPs.

A from-scratch reproduction of "From application requests to Virtual
IOPs: Provisioned key-value storage with Libra" (Shue & Freedman,
EuroSys 2014), running on a simulated-time SSD + LSM-engine substrate.

Quick start::

    from repro import Simulator, StorageNode, Reservation

    sim = Simulator()
    node = StorageNode(sim)                       # intel320-profile SSD
    node.add_tenant("alice", Reservation(gets=2000, puts=1000))

    def client():
        yield from node.put("alice", key=1, size=4096)
        size = yield from node.get("alice", key=1)

    sim.process(client())
    sim.run(until=10.0)

The layers, bottom-up: :mod:`repro.sim` (event kernel),
:mod:`repro.ssd` (device model + FTL + filesystem), :mod:`repro.engine`
(LSM tree), :mod:`repro.core` (Libra: VOP cost models, DDRR scheduler,
tracker, policy), :mod:`repro.node` (storage node/cluster),
:mod:`repro.workload` and :mod:`repro.experiments` (evaluation).
"""

from .core import (
    CapacityModel,
    CostModel,
    ExactCostModel,
    FittedCostModel,
    InternalOp,
    IoTag,
    LibraScheduler,
    OpKind,
    RequestClass,
    Reservation,
    ResourcePolicy,
    ResourceTracker,
    calibrate_device,
    make_cost_model,
    reference_calibration,
    reference_capacity,
)
from .engine import EngineConfig, LsmEngine
from .net import ClusterClient, NetConfig, NetworkFabric
from .node import NodeConfig, StorageCluster, StorageNode
from .sim import Simulator
from .ssd import SsdDevice, SsdProfile, get_profile

__version__ = "1.0.0"

__all__ = [
    "CapacityModel",
    "ClusterClient",
    "CostModel",
    "EngineConfig",
    "ExactCostModel",
    "FittedCostModel",
    "InternalOp",
    "IoTag",
    "LibraScheduler",
    "LsmEngine",
    "NetConfig",
    "NetworkFabric",
    "NodeConfig",
    "OpKind",
    "RequestClass",
    "Reservation",
    "ResourcePolicy",
    "ResourceTracker",
    "Simulator",
    "SsdDevice",
    "SsdProfile",
    "StorageCluster",
    "StorageNode",
    "calibrate_device",
    "get_profile",
    "make_cost_model",
    "reference_calibration",
    "reference_capacity",
]
