"""Storage node stack: server, cache, tenants, cluster, partition map."""

from .cache import ObjectCache
from .cluster import StorageCluster
from .router import PartitionMap
from .server import NodeConfig, StorageNode
from .tenant import LatencyRecorder, RequestStats, TenantDescriptor

__all__ = [
    "LatencyRecorder",
    "NodeConfig",
    "ObjectCache",
    "PartitionMap",
    "RequestStats",
    "StorageCluster",
    "StorageNode",
    "TenantDescriptor",
]
