"""Tenant churn at scale: the "millions of users" lifecycle driver.

This module runs the control plane's target scenario — thousands of
tenants arriving, working, and departing over simulated hours on a
50–200 node cluster — fast enough to sit in CI.  The trick is the
shared :class:`~repro.workload.hybrid.HybridDriver`: every node is one
of its cells, and every *planned* control event (tenant arrival,
departure, scheduled rebalance) is one of its control events, which no
epoch spans — so fast-forward jumps the quiet stretches *between*
control actions in one analytic step across all nodes, and the trial
only drops to event-by-event mode around GC onsets or genuine overload.

Determinism and FF/DES agreement are by construction, exactly as in
:mod:`repro.workload.epoch`: the driver pulls arrivals, op mixes,
sizes, and placements from the same per-tenant RNG streams in the
same global order in both modes, and control decisions (which
partition a rebalance moves) are pure functions of plan state that
both modes evaluate identically.
A fast-forwarded churn run therefore matches the event-by-event run
*exactly* on tasks, ops, and bytes — across every map change — which
``tests/test_control.py`` and ``tests/test_hybrid_driver.py`` check.

Scope note: the rebalance here moves partition *ownership* (demand
follows the data) and books the analytic migration volume as a
control-plane metric; the full-fidelity data path for migration —
snapshot ship, WAL tail replay, fenced cutover, VOP-charged applies —
is :mod:`repro.control.reshard`, exercised with real clusters in
``experiments/scalefig.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.calibration import reference_calibration
from ..core.scheduler import LibraScheduler, SchedulerConfig
from ..core.tags import OpKind
from ..core.vop import make_cost_model
from ..experiments.common import derive_seed
from ..sim import Simulator, SteadyStateMonitor
from ..ssd import get_profile, make_device
from ..workload.distributions import FixedSize
from ..workload.hybrid import ArrivalSource, Cell, HybridDriver
from .ring import HashRing

__all__ = ["ChurnConfig", "ChurnResult", "run_churn_trial"]

KIB = 1024
#: tenant rates are Zipf-distributed: rank ``k`` runs ``base_rate/k^ZIPF_S``
ZIPF_S = 1.1


@dataclass(frozen=True)
class ChurnConfig:
    """One churn scenario: cluster shape, tenant population, lifecycle."""

    n_nodes: int = 50
    n_tenants: int = 1000
    horizon: float = 600.0
    #: tenant arrivals per second until the population is admitted
    arrival_rate: float = 4.0
    mean_lifetime: float = 240.0
    #: ops/sec for the rank-1 tenant
    base_rate: float = 6.0
    read_fraction: float = 0.8
    read_size: int = 4 * KIB
    write_size: int = 4 * KIB
    partitions_per_tenant: int = 2
    #: scheduled rebalance cadence (0 disables)
    rebalance_interval: float = 30.0
    profile: str = "intel320"
    #: virtual points per node on the placement ring
    vnodes: int = 16
    seed: int = 7
    #: coarse scheduler rounds: churn nodes are mostly idle, and the
    #: round-timeout tick is the only event fast-forward has to replay,
    #: so 100ms rounds keep a 50-node × hours jump cheap
    round_seconds: float = 0.1
    min_epoch: float = 0.05
    des_slice: float = 0.05
    headroom: float = 0.85


class _ChurnTenant(ArrivalSource):
    """One tenant's arrival streams plus its lifecycle and placement."""

    __slots__ = ("tid", "arrive_at", "depart_at", "owners")

    def __init__(self, tid: int, rate: float, arrive_at: float,
                 depart_at: float, config: ChurnConfig):
        super().__init__(
            f"t{tid}", tid, config.seed, rate, config.read_fraction,
            FixedSize(config.read_size), FixedSize(config.write_size),
        )
        self.tid = tid
        self.arrive_at = arrive_at
        self.depart_at = depart_at
        #: owner node per partition slot (rebalances rewrite entries)
        self.owners: List[str] = []


@dataclass
class ChurnAction:
    """One applied control event, for reports."""

    at: float
    kind: str  # "arrive" | "depart" | "rebalance"
    detail: str


@dataclass
class ChurnResult:
    """Everything measured in one churn trial."""

    horizon: float
    n_nodes: int
    admitted: int = 0
    departed: int = 0
    rebalances: int = 0
    moved_partitions: int = 0
    moved_bytes: int = 0
    map_version: int = 0
    total_tasks: int = 0
    total_ops: int = 0
    total_bytes: int = 0
    total_vops: float = 0.0
    ff_seconds: float = 0.0
    ff_tasks: int = 0
    des_tasks: int = 0
    wall_seconds: float = 0.0
    #: event-by-event seconds by rejection-reason stem, summed over the
    #: nodes that vetoed fast-forward (not part of the agreement key)
    des_reasons: Dict[str, float] = field(default_factory=dict)
    #: (node, tenant) -> (tasks, ops, bytes) — the exact-agreement key
    usage: Dict[Tuple[str, str], Tuple[int, int, int]] = field(default_factory=dict)
    actions: List[ChurnAction] = field(default_factory=list)

    @property
    def ff_fraction(self) -> float:
        return self.ff_seconds / self.horizon if self.horizon else 0.0

    def agreement_key(self) -> tuple:
        """Exact-match key for FF-vs-DES equivalence checks."""
        return (
            self.total_tasks,
            self.total_ops,
            self.total_bytes,
            self.map_version,
            tuple(sorted(self.usage.items())),
        )


def _plan(config: ChurnConfig):
    """The full control-event plan, a pure function of the seed.

    Returns (tenants, events) where events is the time-sorted list of
    ``(at, kind, tenant_index)`` control points.  Rebalance decisions
    are *not* planned here — they depend on observed load — but their
    trigger times are, which is what bounding epochs needs.
    """
    rng = random.Random(derive_seed(config.seed, 0xC0FFEE % 0x7FFFFFFF))
    ranks = list(range(1, config.n_tenants + 1))
    rng.shuffle(ranks)
    tenants: List[_ChurnTenant] = []
    at = 0.0
    for tid in range(config.n_tenants):
        at += rng.expovariate(config.arrival_rate)
        if at >= config.horizon:
            break
        rate = config.base_rate / (ranks[tid] ** ZIPF_S)
        lifetime = rng.expovariate(1.0 / config.mean_lifetime)
        tenants.append(
            _ChurnTenant(tid, rate, at, at + lifetime, config)
        )
    events: List[Tuple[float, str, int]] = []
    for t in tenants:
        events.append((t.arrive_at, "arrive", t.tid))
        if t.depart_at < config.horizon:
            events.append((t.depart_at, "depart", t.tid))
    if config.rebalance_interval > 0:
        k = 1
        while k * config.rebalance_interval < config.horizon:
            events.append((k * config.rebalance_interval, "rebalance", -1))
            k += 1
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return tenants, events


class _ChurnRunner(HybridDriver):
    """Many nodes, tenants that arrive, depart and get rebalanced.

    Quiet-regime only: churn nodes are mostly idle, and nothing here
    reads latency, which is all the fluid regime would add.
    """

    def __init__(self, config: ChurnConfig, fast_forward: bool):
        self.config = config
        sim = Simulator()
        profile = get_profile(config.profile) if isinstance(config.profile, str) else config.profile
        self.page = profile.page_size
        self.capacity = profile.logical_capacity
        cost_model = make_cost_model("exact", reference_calibration(profile.name))
        sched_config = SchedulerConfig(round_seconds=config.round_seconds)
        self.nodes: Dict[str, Cell] = {}
        for i in range(config.n_nodes):
            device = make_device(sim, profile, seed=derive_seed(config.seed, 0xD000 + i))
            scheduler = LibraScheduler(sim, device, cost_model, config=sched_config)
            monitor = SteadyStateMonitor(sim, scheduler, device, headroom=config.headroom)
            self.nodes[f"n{i}"] = Cell(f"n{i}", scheduler, device, monitor)
        self.ring = HashRing(list(self.nodes), vnodes=config.vnodes)
        self.tenants, events = _plan(config)
        super().__init__(
            sim, list(self.nodes.values()), events, fast_forward=fast_forward,
            min_epoch=config.min_epoch, des_slice=config.des_slice, fluid=False,
        )
        self.by_tid = {t.tid: t for t in self.tenants}
        #: tenant names registered with each node's scheduler
        self.registered: Dict[str, set] = {name: set() for name in self.nodes}
        # Every tenant shares the config's mix and sizes: mean VOPs and
        # FTL pages written per task are trial constants.
        task_vops = self.cells[0].scheduler.task_vops
        self.task_cost = (
            config.read_fraction * task_vops(OpKind.READ, config.read_size)
            + (1 - config.read_fraction) * task_vops(OpKind.WRITE, config.write_size)
        )
        self.write_pages = (
            (1 - config.read_fraction) * max(1, -(-config.write_size // self.page))
        )
        #: bytes durably written per (tenant, slot) — the analytic
        #: migration volume a rebalance move ships
        self.part_bytes: Dict[Tuple[int, int], int] = {}
        self.result = ChurnResult(horizon=config.horizon, n_nodes=config.n_nodes)

    def _refresh_demand(self) -> None:
        """Recompute per-node demand from scratch (identical in both
        modes: no incremental float drift)."""
        for node in self.cells:
            node.demand = 0.0
            node.write_page_rate = 0.0
        nparts = self.config.partitions_per_tenant
        for t in self.sources:
            share = t.rate / nparts
            for owner in t.owners:
                node = self.nodes[owner]
                node.demand += share * self.task_cost
                node.write_page_rate += share * self.write_pages

    # -- control events ----------------------------------------------------

    def _apply(self, event) -> None:
        at, kind, tid = event
        if kind == "arrive":
            t = self.by_tid[tid]
            t.owners = [
                self.ring.successors(f"{t.name}/{j}", 1)[0]
                for j in range(self.config.partitions_per_tenant)
            ]
            for owner in set(t.owners):
                self._register(owner, t)
            t.start(at)
            self.sources.append(t)
            self.result.admitted += 1
            self.result.actions.append(
                ChurnAction(at, "arrive", f"{t.name} -> {','.join(t.owners)}")
            )
        elif kind == "depart":
            t = self.by_tid[tid]
            t.next_at = math.inf
            self.sources = [x for x in self.sources if x is not t]
            self.result.departed += 1
            self.result.actions.append(ChurnAction(at, "depart", t.name))
        elif kind == "rebalance":
            self._rebalance(at)
        self._refresh_demand()

    def _register(self, owner: str, t: _ChurnTenant) -> None:
        if t.name in self.registered[owner]:
            return
        self.registered[owner].add(t.name)
        self.nodes[owner].scheduler.register_tenant(
            t.name, t.rate * self.task_cost / self.config.partitions_per_tenant
        )

    def _rebalance(self, at: float) -> None:
        """Move the heaviest partition from the hottest node to the
        coolest — a pure function of plan state, so both modes take the
        identical action and the map versions march in lockstep.
        Node demand is current: every control event ends by refreshing it."""
        loaded = sorted(self.cells, key=lambda n: (-n.demand, n.name))
        if len(loaded) < 2 or loaded[0].demand <= 0.0:
            return
        hot, cool = loaded[0], loaded[-1]
        if hot.demand <= cool.demand * 1.05:
            return
        nparts = self.config.partitions_per_tenant
        best: Optional[Tuple[_ChurnTenant, int]] = None
        best_load = 0.0
        for t in self.sources:
            share = t.rate / nparts * self.task_cost
            for j, owner in enumerate(t.owners):
                if owner == hot.name and share > best_load:
                    best, best_load = (t, j), share
        if best is None:
            return
        t, j = best
        t.owners[j] = cool.name
        self._register(cool.name, t)
        moved = self.part_bytes.get((t.tid, j), 0)
        self.result.rebalances += 1
        self.result.moved_partitions += 1
        self.result.moved_bytes += moved
        self.result.map_version += 1
        self.result.actions.append(
            ChurnAction(
                at, "rebalance",
                f"{t.name}/{j}: {hot.name} -> {cool.name} ({moved} B)",
            )
        )

    # -- placement -----------------------------------------------------------

    def _place(self, t, is_read, size, u):
        """A single U[0,1) draw picks the partition slot (integer part
        after scaling) and the in-partition offset (fractional part
        rescaled) — one draw, both modes, no stream divergence."""
        nparts = self.config.partitions_per_tenant
        slot = min(int(u * nparts), nparts - 1)
        frac = u * nparts - slot
        max_slot = (self.capacity - size) // self.page
        offset = min(int(frac * max_slot), max_slot - 1) * self.page if max_slot > 0 else 0
        if not is_read:
            self.part_bytes[(t.tid, slot)] = (
                self.part_bytes.get((t.tid, slot), 0) + size
            )
        return self.nodes[t.owners[slot]], offset

    # -- results -------------------------------------------------------------

    def finish(self) -> ChurnResult:
        config = self.config
        self.run(config.horizon, settle=2 * config.round_seconds * 4)
        result = self.result
        result.ff_seconds = self.ff_seconds
        result.ff_tasks = self.ff_tasks
        result.des_tasks = self.des_tasks
        result.wall_seconds = self.wall_seconds
        for name, node in self.nodes.items():
            for stem, (_count, seconds) in node.monitor.rejections.items():
                result.des_reasons[stem] = result.des_reasons.get(stem, 0.0) + seconds
            for tenant in sorted(self.registered[name]):
                usage = node.scheduler.usage(tenant)
                if usage.tasks == 0 and usage.ops == 0:
                    continue
                result.usage[(name, tenant)] = (usage.tasks, usage.ops, usage.bytes)
                result.total_tasks += usage.tasks
                result.total_ops += usage.ops
                result.total_bytes += usage.bytes
                result.total_vops += usage.vops
        return result


def run_churn_trial(
    config: Optional[ChurnConfig] = None, fast_forward: bool = True
) -> ChurnResult:
    """Run one churn scenario; see :class:`ChurnConfig` for knobs.

    ``fast_forward=False`` replays the identical arrival sequence
    event-by-event — the reference the hybrid run must match exactly on
    :meth:`ChurnResult.agreement_key`.
    """
    config = config or ChurnConfig()
    if config.partitions_per_tenant < 1:
        raise ValueError(
            f"partitions_per_tenant must be >= 1, got {config.partitions_per_tenant}"
        )
    return _ChurnRunner(config, fast_forward).finish()
