"""Simulated network fabric, RPC, replication, and failover.

The cluster-layer substrate the paper assumes but does not model:
cross-node messages cost simulated time on NIC/link resources
(:mod:`.fabric`), request/response RPC adds correlation, per-attempt
timeouts, and retry budgets (:mod:`.rpc`), and each node runs one
replica service for the cluster's protocol: primary-backup with write
quorums (:mod:`.primary_backup`) or Dynamo-style leaderless with vector
clocks, sloppy quorums, hinted handoff and anti-entropy (:mod:`.leaderless`,
:mod:`.versioning`), on the membership view and quorum counter they
share (:mod:`.replication`).  Heartbeat failure detection
promotes backups — or, leaderless, revives healed nodes —
(:mod:`.failover`).  Applications come in through
:class:`~repro.net.client.ClusterClient`.
"""

from .client import ClusterClient
from .fabric import LinkStats, NetConfig, NetworkFabric, Nic
from .failover import FailoverRecord, FailureDetector, HeartbeatService
from .leaderless import LeaderlessService
from .primary_backup import PrimaryBackupService
from .replication import Membership
from .rpc import ACK_BYTES, RpcEndpoint, RpcError, RpcMessage, RpcStats
from .versioning import VectorClock, Version, VersionStore, reconcile

__all__ = [
    "ACK_BYTES",
    "ClusterClient",
    "FailoverRecord",
    "FailureDetector",
    "HeartbeatService",
    "LeaderlessService",
    "LinkStats",
    "Membership",
    "NetConfig",
    "NetworkFabric",
    "Nic",
    "PrimaryBackupService",
    "RpcEndpoint",
    "RpcError",
    "RpcMessage",
    "RpcStats",
    "VectorClock",
    "Version",
    "VersionStore",
    "reconcile",
]
