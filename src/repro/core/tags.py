"""IO task tagging.

Libra's first key technique (§4.1): every low-level IO task carries the
resource principal (tenant), the originating application-level request
class (GET/PUT), and — when the IO is issued by a background engine
operation — the internal op (FLUSH/COMPACT).  The tags let the tracker
attribute secondary IO back to the app-request class that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

__all__ = ["OpKind", "RequestClass", "InternalOp", "IoTag", "BEST_EFFORT"]


class OpKind(str, Enum):
    """Direction of a low-level IO operation."""

    READ = "read"
    WRITE = "write"


class RequestClass(str, Enum):
    """Application-level request classes tenants reserve throughput for."""

    GET = "GET"
    PUT = "PUT"
    DELETE = "DELETE"
    #: Raw block IO issued directly against the scheduler (the paper's
    #: Figs 4-9 micro-benchmarks); charged but not reservation-profiled.
    RAW = "RAW"


class InternalOp(str, Enum):
    """Persistence-engine background operations that consume IO."""

    FLUSH = "FLUSH"
    COMPACT = "COMPACT"


#: Pseudo-tenant for unattributed work (should not normally appear).
BEST_EFFORT = "__best_effort__"


@dataclass(frozen=True)
class IoTag:
    """The (tenant, app-request, internal-op) triple on each IO task.

    ``trace`` is an optional per-request trace id (see
    :mod:`repro.obs.trace`) riding along purely for observability: no
    simulation code branches on it, so tagged and untagged runs follow
    identical trajectories.
    """

    tenant: str
    request: RequestClass = RequestClass.RAW
    internal: Optional[InternalOp] = None
    trace: Optional[int] = None
    #: ``(trace, tenant)``, which each of the tag's device ops carries
    ctx: Tuple[Optional[int], str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ctx", (self.trace, self.tenant))

    def with_internal(self, internal: InternalOp) -> "IoTag":
        """Derive the tag used by a background op on this request's behalf."""
        return IoTag(self.tenant, self.request, internal, self.trace)

    def with_trace(self, trace: Optional[int]) -> "IoTag":
        """The same tag carrying a per-request trace id."""
        if trace is None:
            return self
        return IoTag(self.tenant, self.request, self.internal, trace)

    def __str__(self) -> str:
        suffix = f"/{self.internal.value}" if self.internal else ""
        return f"{self.tenant}:{self.request.value}{suffix}"
