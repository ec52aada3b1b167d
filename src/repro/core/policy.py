"""Libra's resource policy: profiles × reservations → VOP allocations.

Once per interval (1 s in the paper and here), the policy

1. rolls the tracker's counters into fresh EWMA cost profiles,
2. computes each tenant's required allocation
   ``r_t = Σ_a v_ta · profile_ta`` from its app-request reservation
   ``v_ta`` (normalized 1 KB GET/s and PUT/s),
3. clamps the total to the provisionable capacity (the VOP floor),
   scaling every tenant down proportionally and notifying the overflow
   callback when overbooked — the signal a system-wide layer (Pisces)
   would use to migrate partitions or shift local reservations.

Underbooked capacity needs no explicit redistribution: the DDRR
scheduler is work-conserving and shares the excess proportionally.

``track_indirect=False`` reproduces the paper's "No Profile" baseline
(Fig 11 bottom): allocations cover only the direct IO of the
application object sizes, ignoring FLUSH/COMPACT amplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..sim import Interrupt, Simulator
from .scheduler import LibraScheduler
from .tags import RequestClass
from .tracker import ResourceTracker

__all__ = ["Reservation", "ResourcePolicy", "OverflowReport", "AdmissionError"]


class AdmissionError(Exception):
    """Raised when a reservation cannot fit the provisionable capacity.

    The paper uses the VOP capacity threshold "as a consistent bound for
    local admission control" (§4.2): a node must not accept reservations
    whose estimated VOP demand exceeds the floor.
    """


@dataclass(frozen=True)
class Reservation:
    """A tenant's local app-request reservation, in normalized (1 KB)
    requests per second."""

    gets: float = 0.0
    puts: float = 0.0

    def __post_init__(self):
        for name in ("gets", "puts"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"reservation {name}={value!r} must be finite and >= 0")

    def rate(self, request: RequestClass) -> float:
        if request == RequestClass.GET:
            return self.gets
        if request == RequestClass.PUT:
            return self.puts
        return 0.0


@dataclass
class OverflowReport:
    """Passed to the overflow callback when reservations exceed capacity."""

    time: float
    demanded_vops: float
    capacity_vops: float
    scale: float
    profiles: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: the policy's current capacity estimate; below the nominal
    #: ``capacity_vops`` when a degraded device forced re-estimation
    effective_capacity: float = 0.0


class ResourcePolicy:
    """Periodic (re)provisioner of tenant VOP allocations."""

    #: request classes covered by reservations
    CLASSES = (RequestClass.GET, RequestClass.PUT)

    def __init__(
        self,
        sim: Simulator,
        scheduler: LibraScheduler,
        tracker: ResourceTracker,
        capacity_vops: float,
        interval: float = 1.0,
        track_indirect: bool = True,
        on_overflow: Optional[Callable[[OverflowReport], None]] = None,
    ):
        if capacity_vops <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_vops}")
        self.sim = sim
        self.scheduler = scheduler
        self.tracker = tracker
        self.capacity_vops = capacity_vops
        self.interval = interval
        self.track_indirect = track_indirect
        self.on_overflow = on_overflow
        self._reservations: Dict[str, Reservation] = {}
        self.overflows = 0
        self.last_scale = 1.0
        #: cumulative VOPs each tenant consumed beyond its allocation —
        #: the work-conserving excess a provider "can charge as overage
        #: or [grant to] best-effort tenants" (§4.3)
        self.overage: Dict[str, float] = {}
        self._last_usage: Dict[str, float] = {}
        # -- graceful degradation (see repro.faults) -----------------------
        # The VOP floor is calibrated for a healthy device.  Under a
        # sustained fault window (degraded bandwidth, latency injection)
        # the device delivers fewer VOPs than the floor promises, so the
        # policy re-estimates: when the scheduler is backlogged yet
        # delivery stays below ``degrade_threshold`` of the current bound
        # for ``degrade_intervals`` consecutive intervals, the effective
        # capacity EWMAs down toward the delivered rate and allocations
        # scale proportionally (an overflow report tells the higher
        # layer).  Once delivery recovers, the estimate climbs back to
        # nominal and allocations return to the reservations.
        self.effective_capacity = capacity_vops
        self.degrade_threshold = 0.6
        self.degrade_intervals = 3
        self.degrade_alpha = 0.5
        self.recovery_alpha = 0.5
        self.capacity_reestimates = 0
        self._slow_intervals = 0
        self._stopped = False
        self._proc = sim.process(self._loop(), name="libra.policy")

    def stop(self) -> None:
        """Stop the provisioning loop (for multi-trial harnesses).

        Interrupts the loop's pending interval sleep so the process
        terminates now rather than at the next tick.
        """
        self._stopped = True
        if self._proc.is_alive:
            self._proc.interrupt("policy stopped")

    # -- reservations ---------------------------------------------------------

    def set_reservation(self, tenant: str, reservation: Reservation) -> None:
        """Install or update a tenant's local app-request reservation."""
        if tenant not in self.scheduler.tenants:
            raise KeyError(f"tenant {tenant!r} not registered with the scheduler")
        self._reservations[tenant] = reservation

    def reservation(self, tenant: str) -> Reservation:
        return self._reservations.get(tenant, Reservation())

    def _meter_overage(self) -> float:
        """Bill VOP consumption beyond each tenant's allocation.

        Returns the total VOPs the device delivered this interval (all
        tenants), which the degradation estimator consumes.
        """
        delivered = 0.0
        for tenant in self.scheduler.tenants:
            used = self.scheduler.usage(tenant).vops
            delta = used - self._last_usage.get(tenant, 0.0)
            self._last_usage[tenant] = used
            delivered += delta
            entitled = self.scheduler.allocation(tenant) * self.interval
            if delta > entitled:
                self.overage[tenant] = self.overage.get(tenant, 0.0) + (
                    delta - entitled
                )
        return delivered

    # -- admission control -----------------------------------------------------

    def admission_estimate(self, tenant: str, reservation: Reservation) -> float:
        """Estimated VOP demand of installing ``reservation``.

        Uses the tenant's current cost profile; for a tenant with no
        history, the cold-start unit cost applies (as provisioning
        itself would).
        """
        demand = 0.0
        for request in self.CLASSES:
            rate = reservation.rate(request)
            if rate > 0:
                demand += rate * self._unit_cost(tenant, request)
        return demand

    def can_admit(self, tenant: str, reservation: Reservation) -> bool:
        """Would installing this reservation stay within capacity?"""
        others = sum(
            demand
            for name, demand in self.estimated_demand().items()
            if name != tenant
        )
        return others + self.admission_estimate(tenant, reservation) <= self.provisionable

    def admit(self, tenant: str, reservation: Reservation) -> None:
        """Install a reservation, enforcing the capacity bound."""
        if not self.can_admit(tenant, reservation):
            raise AdmissionError(
                f"reservation for {tenant!r} needs ~"
                f"{self.admission_estimate(tenant, reservation):.0f} VOP/s; "
                f"node capacity {self.capacity_vops:.0f} VOP/s is exhausted"
            )
        self.set_reservation(tenant, reservation)

    # -- provisioning loop ---------------------------------------------------------

    def _loop(self):
        try:
            while not self._stopped:
                yield self.sim.timeout(self.interval)
                if self._stopped:
                    return
                self.reprovision()
        except Interrupt:
            return

    @property
    def provisionable(self) -> float:
        """The capacity bound in force: min(nominal, effective)."""
        return min(self.capacity_vops, self.effective_capacity)

    def _observe_capacity(self, delivered: float) -> None:
        """Re-estimate effective capacity from this interval's delivery.

        Degrading requires *both* signals: the scheduler must be
        backlogged (otherwise low delivery just means low demand) and
        delivery must sit below ``degrade_threshold`` of the current
        bound for ``degrade_intervals`` consecutive intervals (so a
        single GC hiccup or fault blip does not shrink the estimate).
        Recovery is the mirror EWMA toward nominal whenever either
        signal clears.
        """
        nominal = self.capacity_vops
        rate = delivered / self.interval
        bound = self.provisionable
        if self.scheduler.backlog > 0 and rate < self.degrade_threshold * bound:
            self._slow_intervals += 1
            if self._slow_intervals >= self.degrade_intervals:
                floor = 0.05 * nominal
                target = max(rate, floor)
                updated = (
                    (1.0 - self.degrade_alpha) * self.effective_capacity
                    + self.degrade_alpha * target
                )
                updated = max(updated, floor)
                if updated < self.effective_capacity:
                    self.effective_capacity = updated
                    self.capacity_reestimates += 1
        else:
            self._slow_intervals = 0
            if self.effective_capacity < nominal:
                self.effective_capacity = min(
                    nominal,
                    (1.0 - self.recovery_alpha) * self.effective_capacity
                    + self.recovery_alpha * nominal,
                )
                if nominal - self.effective_capacity < 1e-6:
                    self.effective_capacity = nominal
                self.capacity_reestimates += 1

    def reprovision(self) -> None:
        """One policy pass: roll profiles and set scheduler allocations."""
        delivered = self._meter_overage()
        self._observe_capacity(delivered)
        self.tracker.roll_interval()
        demands: Dict[str, float] = {}
        for tenant, reservation in self._reservations.items():
            demand = 0.0
            for request in self.CLASSES:
                rate = reservation.rate(request)
                if rate <= 0:
                    continue
                demand += rate * self._unit_cost(tenant, request)
            demands[tenant] = demand
        total = sum(demands.values())
        provisionable = self.provisionable
        scale = 1.0
        if total > provisionable:
            # Overbooked (by demand, or by a degraded device shrinking
            # the effective capacity): penalize every tenant
            # proportionally and tell the higher-level policy.
            scale = provisionable / total
            self.overflows += 1
            if self.on_overflow is not None:
                self.on_overflow(
                    OverflowReport(
                        time=self.sim.now,
                        demanded_vops=total,
                        capacity_vops=self.capacity_vops,
                        scale=scale,
                        profiles={
                            t: {
                                r.value: self._unit_cost(t, r)
                                for r in self.CLASSES
                            }
                            for t in demands
                        },
                        effective_capacity=self.effective_capacity,
                    )
                )
        self.last_scale = scale
        for tenant, demand in demands.items():
            self.scheduler.set_allocation(tenant, demand * scale)

    def estimated_demand(self) -> Dict[str, float]:
        """Current per-tenant VOP demand (reservation × profile).

        This is the policy's own view of what provisioning each
        reservation would cost right now — the signal higher-level
        (cluster) policies use to find overbooked nodes and headroom.
        """
        demands: Dict[str, float] = {}
        for tenant, reservation in self._reservations.items():
            demand = 0.0
            for request in self.CLASSES:
                rate = reservation.rate(request)
                if rate > 0:
                    demand += rate * self._unit_cost(tenant, request)
            demands[tenant] = demand
        return demands

    @property
    def total_demand(self) -> float:
        """Total VOP demand of the installed reservations."""
        return sum(self.estimated_demand().values())

    def _unit_cost(self, tenant: str, request: RequestClass) -> float:
        """VOPs per normalized request, per the current profile.

        Before any profile exists (cold start) we fall back to charging
        one VOP per normalized request — a neutral bootstrap that the
        first policy interval replaces with measured costs.
        """
        profile = self.tracker.profile(tenant, request)
        if self.track_indirect:
            cost = profile.total
        else:
            cost = profile.direct
        if cost <= 0.0 and not self.tracker.has_profile(tenant, request):
            return 1.0
        return cost
