"""Hybrid analytic/DES trials: epoch fast-forward on one scheduler + device.

Provisioning studies sweep long, mostly-uneventful horizons: open-loop
tenants arrive below their VOP allocations, queues stay empty or sit at
a stationary backlog, and the DES burns its wall-clock replaying
millions of structurally identical submit→dispatch→complete event
chains.  :func:`run_epoch_trial` runs such a trial on the shared
:class:`~repro.workload.hybrid.HybridDriver` (which documents the
three regimes and why they agree exactly): one cell, Poisson tenants
placed uniformly over the device, scheduled :class:`RateChange`s as
control events.

``fast_forward=False`` (the default) drives the identical arrival
sequence through the real scheduler, so the two modes agree exactly on
task/op/byte counts and to float-summation order on VOPs — a property
checked by ``tests/test_epoch.py``.  Latency histograms in fast-forward
mode carry analytic service times: idle-device ones in quiet epochs
(what those epochs would have measured anyway), queue-wait plus
pipeline service in fluid ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..core.calibration import reference_calibration
from ..core.scheduler import LibraScheduler, SchedulerConfig
from ..core.tags import OpKind
from ..core.vop import CostModel, make_cost_model
from ..obs.metrics import Histogram
from ..sim import Simulator, SteadyStateMonitor
from ..ssd import SsdProfile, make_device
from .distributions import FixedSize, LogNormalSize
from .hybrid import ArrivalSource, Cell, EpochSegment, HybridDriver
from .iobench import KIB

__all__ = [
    "EpochTenantSpec",
    "RateChange",
    "EpochSegment",
    "EpochTenantResult",
    "EpochTrialResult",
    "run_epoch_trial",
]


@dataclass(frozen=True)
class EpochTenantSpec:
    """One open-loop tenant: Poisson arrivals at ``rate`` ops/sec."""

    name: str
    rate: float
    read_fraction: float = 1.0
    read_size: int = 4 * KIB
    write_size: int = 4 * KIB
    sigma: Optional[float] = None

    def size_dist(self, kind: OpKind):
        mean = self.read_size if kind == OpKind.READ else self.write_size
        if self.sigma is None:
            return FixedSize(mean)
        return LogNormalSize(mean=mean, sigma=self.sigma)


@dataclass(frozen=True)
class RateChange:
    """A control-plane event: ``tenant`` switches to ``rate`` at ``at``."""

    at: float
    tenant: str
    rate: float


@dataclass
class EpochTenantResult:
    """Per-tenant totals over the whole horizon (no warmup window)."""

    spec: EpochTenantSpec
    ops: int = 0
    tasks: int = 0
    read_ops: int = 0
    write_ops: int = 0
    bytes: int = 0
    vops: float = 0.0
    failed_ops: int = 0
    allocation: float = 0.0
    #: completion latency (seconds); analytic service times in FF epochs
    latency: Histogram = field(default_factory=Histogram)

    @property
    def acked(self) -> int:
        """Completions with a recorded latency (successful tasks)."""
        return self.latency.count


@dataclass
class EpochTrialResult:
    """Everything measured in one hybrid trial."""

    horizon: float
    tenants: Dict[str, EpochTenantResult]
    segments: List[EpochSegment]
    wall_seconds: float
    ff_seconds: float = 0.0
    ff_tasks: int = 0
    des_tasks: int = 0
    #: seconds / tasks covered by the fluid (stable-backlog) engine,
    #: a subset of ``ff_seconds`` / ``ff_tasks``
    fluid_seconds: float = 0.0
    fluid_tasks: int = 0
    #: DES fallback seconds by rejection-reason stem — why fast-forward
    #: coverage was lost (empty when fast_forward is off)
    des_reasons: Dict[str, float] = field(default_factory=dict)
    #: DES fallback segment counts by rejection-reason stem
    reject_counts: Dict[str, int] = field(default_factory=dict)
    audit_summary: Optional[dict] = None

    @property
    def total_tasks(self) -> int:
        return sum(t.tasks for t in self.tenants.values())

    @property
    def total_ops(self) -> int:
        return sum(t.ops for t in self.tenants.values())

    @property
    def total_bytes(self) -> int:
        return sum(t.bytes for t in self.tenants.values())

    @property
    def total_vops(self) -> float:
        return sum(t.vops for t in self.tenants.values())

    @property
    def ff_fraction(self) -> float:
        """Share of simulated time covered analytically."""
        return self.ff_seconds / self.horizon if self.horizon else 0.0

    @property
    def fluid_fraction(self) -> float:
        """Share of simulated time covered by the fluid engine."""
        return self.fluid_seconds / self.horizon if self.horizon else 0.0


class _EpochRunner(HybridDriver):
    """One cell, every tenant arriving from t0, rate changes as events."""

    def __init__(self, sim: Simulator, cell: Cell, specs: Sequence[EpochTenantSpec],
                 sources: List[ArrivalSource], changes: Sequence[RateChange],
                 **regimes):
        events = [(c.at, c) for c in sorted(changes, key=lambda c: c.at)]
        super().__init__(sim, [cell], events, **regimes)
        self.cell = cell
        self.specs = specs
        self.sources = sources
        self.by_name = {src.name: src for src in sources}
        self.page = cell.device.profile.page_size
        self.capacity = cell.device.profile.logical_capacity
        for src in sources:
            src.start(sim.now)
        self._refresh_demand()

    def _refresh_demand(self) -> None:
        """The cell's offered load (VOPs/sec) and estimated FTL pages/sec
        written (for the GC-crossing horizon) at the current rates, via
        mean sizes."""
        task_vops = self.cell.scheduler.task_vops
        page = self.page
        demand = pages = 0.0
        for spec, src in zip(self.specs, self.sources):
            rf = spec.read_fraction
            demand += src.rate * (
                rf * task_vops(OpKind.READ, spec.read_size)
                + (1.0 - rf) * task_vops(OpKind.WRITE, spec.write_size)
            )
            pages += src.rate * (1.0 - rf) * max(1, -(-spec.write_size // page))
        self.cell.demand = demand
        self.cell.write_page_rate = pages

    def _place(self, src, is_read, size, u):
        """Uniform over the device: ``u`` picks a page-aligned offset."""
        page = self.page
        max_slot = (self.capacity - size) // page
        if max_slot <= 0:
            return self.cell, 0
        slot = int(u * max_slot)
        if slot >= max_slot:
            slot = max_slot - 1
        return self.cell, slot * page

    def _apply(self, event) -> None:
        change = event[1]
        self.by_name[change.tenant].set_rate(change.rate)
        # A rate change breaks stationarity: the confirmation window
        # must be re-earned under the new rates.
        self.cell.monitor.note_disturbance()
        self._refresh_demand()


def _validate(specs, rate_changes, allocations) -> None:
    """Reject bad trial input before any simulated time is spent."""
    if not specs:
        raise ValueError("specs must name at least one tenant")
    names = {spec.name for spec in specs}
    for change in rate_changes:
        if change.tenant not in names:
            raise ValueError(
                f"rate_changes names unknown tenant {change.tenant!r}; "
                f"specs: {sorted(names)}"
            )
        if change.rate <= 0:
            raise ValueError(
                f"rate_changes rate must be positive, got {change.rate} "
                f"for {change.tenant!r} at {change.at}"
            )
    if allocations is not None:
        missing = sorted(names - set(allocations))
        if missing:
            raise ValueError(f"allocations is missing tenants {missing}")


def run_epoch_trial(
    profile: SsdProfile,
    specs: Sequence[EpochTenantSpec],
    horizon: float,
    seed: int = 7,
    cost_model: Union[str, CostModel] = "exact",
    fast_forward: bool = False,
    rate_changes: Sequence[RateChange] = (),
    fault_plan=None,
    allocations: Optional[Dict[str, float]] = None,
    scheduler_config: Optional[SchedulerConfig] = None,
    min_epoch: float = 0.05,
    des_slice: float = 0.05,
    headroom: float = 0.85,
    audit: bool = False,
    device_seed: int = 11,
    fluid: bool = True,
    confirm_window: float = 0.1,
    confirm_samples: int = 3,
    fluid_backlog: int = 256,
    fluid_drift: float = 400.0,
) -> EpochTrialResult:
    """Run one open-loop multi-tenant trial over ``horizon`` seconds.

    With ``fast_forward=False`` (default) every arrival is replayed
    through the simulator — an ordinary DES run.  With
    ``fast_forward=True`` quiet epochs are computed analytically and
    the clock jumps between interesting edges; counters agree with the
    DES run exactly (see module docstring).  ``fluid=True`` (default)
    additionally enables the stable-backlog regime: once the monitor's
    confirmation window (``confirm_window`` seconds, ``confirm_samples``
    samples) certifies a loaded-but-stationary backlog (at most
    ``fluid_backlog`` chunks, drifting under ``fluid_drift`` chunks/sec),
    epochs are replayed through the analytic DDRR round schedule
    instead of falling back to event-by-event mode — same exact count
    agreement, with queue-wait latency mass.  ``audit=True`` attaches a
    :class:`~repro.obs.VopAudit` and stores its :meth:`summary` —
    fast-forwarded charges reconcile at 1.0000 by construction.  The
    device is the one the profile describes
    (:func:`~repro.ssd.make_device`); a multi-queue profile runs on
    :class:`~repro.ssd.NvmeDevice`, which inherits the epoch accounting,
    so fast-forward agrees with DES there too.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    _validate(specs, rate_changes, allocations)
    sim = Simulator()
    device = make_device(sim, profile, seed=device_seed, fault_plan=fault_plan)
    if isinstance(cost_model, str):
        cost_model = make_cost_model(cost_model, reference_calibration(profile.name))
    scheduler = LibraScheduler(sim, device, cost_model, config=scheduler_config)
    audit_obj = None
    if audit:
        from ..obs import VopAudit

        audit_obj = VopAudit(cost_model)
        audit_obj.attach(scheduler, device)
    if allocations is None:
        share = cost_model.max_iop / len(specs)
        allocations = {spec.name: share for spec in specs}
    for spec in specs:
        scheduler.register_tenant(spec.name, allocations[spec.name])

    monitor = SteadyStateMonitor(
        sim, scheduler, device, fault_plan=fault_plan, headroom=headroom,
        confirm_window=confirm_window, confirm_samples=confirm_samples,
        fluid_backlog=fluid_backlog, fluid_drift=fluid_drift,
    )
    tenants = {spec.name: EpochTenantResult(spec=spec) for spec in specs}
    sources = [
        ArrivalSource(
            spec.name, i, seed, spec.rate, spec.read_fraction,
            spec.size_dist(OpKind.READ), spec.size_dist(OpKind.WRITE),
            latency=tenants[spec.name].latency,
        )
        for i, spec in enumerate(specs)
    ]
    runner = _EpochRunner(
        sim, Cell("device", scheduler, device, monitor), specs, sources,
        rate_changes, fast_forward=fast_forward, min_epoch=min_epoch,
        des_slice=des_slice, fluid=fluid,
    )
    runner.run(sim.now + horizon, settle=0.05)

    for name, result in tenants.items():
        usage = scheduler.usage(name)
        result.ops = usage.ops
        result.tasks = usage.tasks
        result.read_ops = usage.read_ops
        result.write_ops = usage.write_ops
        result.bytes = usage.bytes
        result.vops = usage.vops
        result.failed_ops = usage.failed_ops
        result.allocation = allocations[name]

    return EpochTrialResult(
        horizon=horizon,
        tenants=tenants,
        segments=runner.segments,
        wall_seconds=runner.wall_seconds,
        ff_seconds=runner.ff_seconds,
        ff_tasks=runner.ff_tasks,
        des_tasks=runner.des_tasks,
        fluid_seconds=runner.fluid_seconds,
        fluid_tasks=runner.fluid_tasks,
        des_reasons={k: v[1] for k, v in monitor.rejections.items()},
        reject_counts={k: v[0] for k, v in monitor.rejections.items()},
        audit_summary=audit_obj.summary(sim.now) if audit_obj is not None else None,
    )
