"""repro.obs — tracing and VOP-accounting audit.

Two observation planes over the simulated stack, both passive (they
never schedule events or touch the RNG, so enabling them cannot change
a run's trajectory — see ``tests/test_obs.py``):

- :mod:`~repro.obs.trace` — per-request span tracing across client,
  RPC, node, scheduler, engine, and SSD, exported as Chrome
  trace-event JSON;
- :mod:`~repro.obs.audit` — cross-layer reconciliation of scheduler
  VOP charges against the device's observed op stream.

Counters are not copied here: each layer keeps its own book
(``RequestStats``, ``TenantUsage``, ``SsdStats``, ``LinkStats``), and
reports read those.  :mod:`~repro.obs.metrics` holds the
:class:`Histogram` that every latency percentile goes through, and the
evaluation metrics over sample sets.

:class:`Observability` bundles the planes for plumbing through
constructors (``StorageNode(obs=...)``, ``StorageCluster(obs=...)``);
every field defaults to off, which is the configuration all reproduced
figures and determinism tests run under.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .audit import AuditWindow, LedgerEntry, VopAudit
from .export import latency_breakdown, waterfall_report
from .metrics import (
    DEFAULT_BUCKET_RATIO,
    DEFAULT_LATENCY_BOUNDS,
    Histogram,
    log_bucket_bounds,
)
from .trace import SPAN_FIELDS, Tracer

__all__ = [
    "Observability",
    "Tracer",
    "SPAN_FIELDS",
    "Histogram",
    "log_bucket_bounds",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_BUCKET_RATIO",
    "VopAudit",
    "AuditWindow",
    "LedgerEntry",
    "waterfall_report",
    "latency_breakdown",
]


@dataclass
class Observability:
    """Observer bundle handed to node/cluster constructors.

    ``audit=True`` asks the node to build a :class:`VopAudit` against
    its own scheduler and device (reachable afterwards as
    ``node.audit``); ``tracer`` is a shared instance so one trace can
    span several nodes.
    """

    tracer: Optional[Tracer] = None
    audit: bool = False
