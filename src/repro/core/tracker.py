"""App-request resource profiles (§4.1).

The tracker turns tagged IO consumption into per-tenant, per-request
cost profiles.  For tenant *t* and app-request class *a* (GET/PUT), over
each policy interval it observes:

- ``u_ta``  — VOPs consumed by IO tagged directly with *a*;
- ``u_ti``  — VOPs consumed by internal op *i* (FLUSH/COMPACT) on the
  tenant's behalf;
- ``s_ta``  — size-normalized (1 KB) requests of class *a* completed;
- ``e_ta,i`` — how many times requests of class *a* triggered *i*.

and maintains EWMA cost estimates

    q_ta   = EWMA(u_ta / s_ta)            (direct cost per normalized request)
    q_ta,i = EWMA(u_ti / s_ta)            (indirect cost per normalized request)

The indirect form folds the paper's ``q_ti · e_ta,i / s_ta`` into one
ratio: our engine attributes each internal op to a single triggering
request class (FLUSH and COMPACT are write-path, so PUT), which makes
the two formulations equal while staying robust for sporadic COMPACTs
that span many intervals (their consumption simply lands in the
intervals where it happens and the EWMA smears it, with the trigger
counts still recorded for reporting).

The full profile is ``profile_ta = q_ta + Σ_i q_ta,i``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import DefaultDict, Dict, Tuple

from .tags import InternalOp, IoTag, OpKind, RequestClass

__all__ = ["Ewma", "RequestProfile", "ResourceTracker", "NORMALIZED_REQUEST_BYTES"]

#: reservations are specified in size-normalized 1 KB requests
NORMALIZED_REQUEST_BYTES = 1024

#: internal ops are triggered by the write path in an LSM engine
DEFAULT_ATTRIBUTION: Dict[InternalOp, RequestClass] = {
    InternalOp.FLUSH: RequestClass.PUT,
    InternalOp.COMPACT: RequestClass.PUT,
}


class Ewma:
    """Exponentially weighted moving average with a warm first sample."""

    __slots__ = ("alpha", "value", "_initialized")

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha {alpha} not in (0, 1]")
        self.alpha = alpha
        self.value = 0.0
        self._initialized = False

    def update(self, sample: float) -> float:
        if not self._initialized:
            self.value = sample
            self._initialized = True
        else:
            self.value += self.alpha * (sample - self.value)
        return self.value

    @property
    def initialized(self) -> bool:
        return self._initialized


@dataclass
class RequestProfile:
    """One tenant's cost profile for one request class, in VOPs per
    normalized (1 KB) request."""

    direct: float = 0.0
    indirect: Dict[InternalOp, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """profile_ta = q_ta + Σ_i q_ta,i"""
        return self.direct + sum(self.indirect.values())


class _IntervalCounters:
    """Raw consumption accumulated since the last policy interval."""

    __slots__ = ("direct_vops", "internal_vops", "normalized_requests", "triggers", "internal_ops")

    def __init__(self):
        self.direct_vops: DefaultDict[RequestClass, float] = defaultdict(float)
        self.internal_vops: DefaultDict[InternalOp, float] = defaultdict(float)
        self.normalized_requests: DefaultDict[RequestClass, float] = defaultdict(float)
        self.triggers: DefaultDict[Tuple[RequestClass, InternalOp], int] = defaultdict(int)
        self.internal_ops: DefaultDict[InternalOp, int] = defaultdict(int)


class ResourceTracker:
    """Builds per-tenant app-request resource profiles from tagged IO.

    Wire ``note_io`` as the scheduler's ``io_observer``; the storage
    node calls ``note_request`` per completed app request and the engine
    calls ``note_trigger``/``note_internal_op`` around background work.
    ``roll_interval`` folds the raw counters into the EWMA profiles —
    the policy calls it once per provisioning interval.
    """

    def __init__(self, alpha: float = 0.3):
        self.alpha = alpha
        self._counters: DefaultDict[str, _IntervalCounters] = defaultdict(_IntervalCounters)
        self._direct: Dict[Tuple[str, RequestClass], Ewma] = {}
        self._indirect: Dict[Tuple[str, RequestClass, InternalOp], Ewma] = {}
        #: accumulators for sporadic internal ops: VOPs and triggering
        #: requests since the op last completed (§4.1's normalization —
        #: COMPACT may span many intervals, and dividing its burst by a
        #: single interval's requests would wildly overestimate cost)
        self._pending_vops: DefaultDict[Tuple[str, InternalOp], float] = defaultdict(float)
        self._pending_requests: DefaultDict[Tuple[str, InternalOp], float] = defaultdict(float)
        self._known_internals: DefaultDict[str, set] = defaultdict(set)
        self.attribution = dict(DEFAULT_ATTRIBUTION)

    # -- event feed -------------------------------------------------------------

    def note_io(self, tag: IoTag, kind: OpKind, size: int, cost: float) -> None:
        """Record one completed IO task's VOP cost (scheduler callback)."""
        counters = self._counters[tag.tenant]
        internal = tag.internal
        if internal is None:
            counters.direct_vops[tag.request] += cost
        else:
            counters.internal_vops[internal] += cost

    def note_request(self, tenant: str, request: RequestClass, size: int) -> None:
        """Record one completed app-level request of ``size`` bytes."""
        self.note_units(tenant, request, max(size / NORMALIZED_REQUEST_BYTES, 1.0))

    def note_units(self, tenant: str, request: RequestClass, units: float) -> None:
        """Record one completed request of ``units`` normalized (1 KB)
        requests (the storage node normalizes once for all its books)."""
        self._counters[tenant].normalized_requests[request] += units

    def note_trigger(self, tenant: str, request: RequestClass, internal: InternalOp) -> None:
        """Record that a request class triggered an internal op (e_ta,i)."""
        self._counters[tenant].triggers[(request, internal)] += 1

    def note_internal_op(self, tenant: str, internal: InternalOp) -> None:
        """Record completion of one internal op (s_ti)."""
        self._counters[tenant].internal_ops[internal] += 1

    # -- profile computation ---------------------------------------------------------

    def roll_interval(self) -> None:
        """Fold the interval's counters into the EWMA cost profiles."""
        for tenant, counters in self._counters.items():
            for request, vops in counters.direct_vops.items():
                s = counters.normalized_requests.get(request, 0.0)
                if s > 0:
                    self._ewma_direct(tenant, request).update(vops / s)
            # Indirect costs: accumulate VOPs and triggering requests
            # until the internal op completes, then fold the ratio in —
            # normalizing a COMPACT burst over *all* the requests issued
            # since the previous COMPACT, not just this interval's.
            internals = (
                set(counters.internal_vops)
                | {i for (_r, i) in counters.triggers}
                | set(counters.internal_ops)
                | self._known_internals[tenant]
            )
            self._known_internals[tenant] |= internals
            for internal in internals:
                request = self.attribution.get(internal, RequestClass.PUT)
                key = (tenant, internal)
                self._pending_vops[key] += counters.internal_vops.get(internal, 0.0)
                self._pending_requests[key] += counters.normalized_requests.get(
                    request, 0.0
                )
                if (
                    counters.internal_ops.get(internal, 0) > 0
                    and self._pending_requests[key] > 0
                ):
                    ratio = self._pending_vops[key] / self._pending_requests[key]
                    self._ewma_indirect(tenant, request, internal).update(ratio)
                    self._pending_vops[key] = 0.0
                    self._pending_requests[key] = 0.0
        self._counters.clear()

    def profile(self, tenant: str, request: RequestClass) -> RequestProfile:
        """Current cost profile (VOPs per normalized request)."""
        direct = self._direct.get((tenant, request))
        result = RequestProfile(direct=direct.value if direct else 0.0)
        for (t, r, internal), ewma in self._indirect.items():
            if t == tenant and r == request:
                result.indirect[internal] = ewma.value
        return result

    def has_profile(self, tenant: str, request: RequestClass) -> bool:
        """True once at least one interval produced a direct cost."""
        ewma = self._direct.get((tenant, request))
        return ewma is not None and ewma.initialized

    def _ewma_direct(self, tenant: str, request: RequestClass) -> Ewma:
        key = (tenant, request)
        if key not in self._direct:
            self._direct[key] = Ewma(self.alpha)
        return self._direct[key]

    def _ewma_indirect(self, tenant: str, request: RequestClass, internal: InternalOp) -> Ewma:
        key = (tenant, request, internal)
        if key not in self._indirect:
            self._indirect[key] = Ewma(self.alpha)
        return self._indirect[key]
