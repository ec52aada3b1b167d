"""Elastic control plane: placement, live resharding, churn.

The cluster below this package is a static world: a versioned
:class:`~repro.node.router.PartitionMap` that can fail over but never
*grow*.  This package adds the subsystem that reshapes placement while
traffic is being served:

- :mod:`repro.control.ring` — consistent-hash ring with virtual nodes;
  generates placements and computes minimal-movement deltas when nodes
  join or leave.
- :mod:`repro.control.reshard` — live partition migration via
  catch-up-then-cutover (snapshot ship + WAL tail replay through the
  charged replica-apply path, then an atomic versioned map bump), and
  hot-partition splits built on the same machinery.
- :mod:`repro.control.churn` — tenant lifecycle driver (arrivals,
  departures, Zipf-distributed tenant rates, scheduled rebalances) that
  exercises the control plane across a many-node cluster.

All migration data traffic flows through the same RPC fabric and the
same charged engine paths as application traffic, so it is priced in
VOPs and reconciles in :class:`~repro.obs.audit.VopAudit`.
"""

from repro.control.ring import HashRing, PlacementDelta
from repro.control.reshard import ReshardCoordinator, MigrationReport

__all__ = [
    "HashRing",
    "PlacementDelta",
    "ReshardCoordinator",
    "MigrationReport",
]
