"""Tenant churn at scale: the "millions of users" lifecycle driver.

This module runs the control plane's target scenario — thousands of
tenants arriving, working, and departing over simulated hours on a
50–200 node cluster — fast enough to sit in CI.  The trick is the PR 7
epoch machinery: every *planned* control event (tenant arrival,
departure, scheduled rebalance) is registered up front as a
:attr:`SteadyStateMonitor.extra_edges` entry on every node's monitor,
so epoch fast-forward jumps the quiet stretches *between* control
actions in one analytic step per node, and the trial only drops to
event-by-event mode around GC onsets or genuine overload.

Determinism and FF/DES agreement are by construction, exactly as in
:mod:`repro.workload.epoch`: both modes pull arrivals, op mixes,
sizes, and offsets from the same per-tenant ``BlockStream`` RNG
streams in the same global order (first-minimum, registration-order
tie-break), and control decisions (which partition a rebalance moves)
are pure functions of plan state that both modes evaluate identically.
A fast-forwarded churn run therefore matches the event-by-event run
*exactly* on tasks, ops, and bytes — across every map change — which
``tests/test_control.py`` and the perf harness check.

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
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.calibration import reference_calibration
from ..core.scheduler import LibraScheduler, SchedulerConfig
from ..core.tags import IoTag, OpKind, RequestClass
from ..core.vop import make_cost_model
from ..experiments.common import derive_seed
from ..sim import Simulator, SteadyStateMonitor
from ..ssd import SsdDevice, get_profile
from ..workload.distributions import (
    BlockStream,
    ExponentialArrivals,
    FixedSize,
    Uniform01,
)
from .ring import HashRing

__all__ = ["ChurnConfig", "ChurnResult", "run_churn_trial"]

KIB = 1024

#: RNG stream slots per tenant (gap, mix, rsize, wsize, upart/offset)
_STREAMS = 8


@dataclass(frozen=True)
class ChurnConfig:
    """One churn scenario: cluster shape, tenant population, lifecycle."""

    n_nodes: int = 50
    n_tenants: int = 1000
    horizon: float = 600.0
    #: tenant arrivals per second until the population is admitted
    arrival_rate: float = 4.0
    mean_lifetime: float = 240.0
    #: ops/sec for the rank-1 tenant; rank ``k`` gets ``base/k^zipf_s``
    base_rate: float = 6.0
    zipf_s: float = 1.1
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


class _ChurnTenant:
    """One tenant's lifecycle, RNG streams, and placement."""

    __slots__ = (
        "tid", "name", "rate", "arrive_at", "depart_at", "tag",
        "gap", "mix", "rsize", "wsize", "upick",
        "next_at", "active", "owners", "task_cost", "write_pages",
    )

    def __init__(self, tid: int, rate: float, arrive_at: float,
                 depart_at: float, config: ChurnConfig, seed: int):
        def rng(k: int) -> random.Random:
            return random.Random(derive_seed(seed, tid * _STREAMS + k))

        self.tid = tid
        self.name = f"t{tid}"
        self.rate = rate
        self.arrive_at = arrive_at
        self.depart_at = depart_at
        self.tag = IoTag(self.name, RequestClass.RAW)
        self.gap = BlockStream(ExponentialArrivals(rate), rng(0))
        self.mix = BlockStream(Uniform01(), rng(1))
        self.rsize = BlockStream(FixedSize(config.read_size), rng(2))
        self.wsize = BlockStream(FixedSize(config.write_size), rng(3))
        #: one U[0,1) draw per op picks the partition *and* the offset
        self.upick = BlockStream(Uniform01(), rng(4))
        self.next_at = math.inf
        self.active = False
        #: owner node per partition slot (rebalances rewrite entries)
        self.owners: List[str] = []
        self.task_cost = 0.0
        self.write_pages = 0.0


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
    #: (node, tenant) -> (tasks, ops, bytes) — the exact-agreement key
    usage: Dict[Tuple[str, str], Tuple[int, int, int]] = field(default_factory=dict)
    actions: List[ChurnAction] = field(default_factory=list)

    @property
    def ff_fraction(self) -> float:
        return self.ff_seconds / self.horizon if self.horizon else 0.0

    @property
    def tasks_per_wall_second(self) -> float:
        total = self.ff_tasks + self.des_tasks
        return total / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def agreement_key(self) -> tuple:
        """Exact-match key for FF-vs-DES equivalence checks."""
        return (
            self.total_tasks,
            self.total_ops,
            self.total_bytes,
            self.map_version,
            tuple(sorted(self.usage.items())),
        )


class _Node:
    """One churn node: device + scheduler + monitor + demand tally."""

    __slots__ = ("name", "device", "scheduler", "monitor", "registered",
                 "demand", "write_page_rate")

    def __init__(self, name, device, scheduler, monitor):
        self.name = name
        self.device = device
        self.scheduler = scheduler
        self.monitor = monitor
        self.registered = set()
        self.demand = 0.0
        self.write_page_rate = 0.0


def _plan(config: ChurnConfig):
    """The full control-event plan, a pure function of the seed.

    Returns (tenants, events) where events is the time-sorted list of
    ``(at, kind, tenant_index)`` control points.  Rebalance decisions
    are *not* planned here — they depend on observed load — but their
    trigger times are, which is what edge registration needs.
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
        rate = config.base_rate / (ranks[tid] ** config.zipf_s)
        lifetime = rng.expovariate(1.0 / config.mean_lifetime)
        tenants.append(
            _ChurnTenant(tid, rate, at, at + lifetime, config, config.seed)
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


class _ChurnRunner:
    """Multi-node hybrid driver (the churn-scale cousin of
    ``workload.epoch._EpochRunner``)."""

    def __init__(self, config: ChurnConfig, fast_forward: bool):
        self.config = config
        self.fast_forward = fast_forward
        self.sim = Simulator()
        profile = get_profile(config.profile) if isinstance(config.profile, str) else config.profile
        self.page = profile.page_size
        self.capacity = profile.logical_capacity
        cost_model = make_cost_model("exact", reference_calibration(profile.name))
        self.cost_model = cost_model
        sched_config = SchedulerConfig(round_seconds=config.round_seconds)
        self.chunk = sched_config.chunk_size
        self.nodes: Dict[str, _Node] = {}
        for i in range(config.n_nodes):
            name = f"n{i}"
            device = SsdDevice(
                self.sim, profile, seed=derive_seed(config.seed, 0xD000 + i)
            )
            scheduler = LibraScheduler(
                self.sim, device, cost_model, config=sched_config
            )
            monitor = SteadyStateMonitor(
                self.sim, scheduler, device, headroom=config.headroom
            )
            self.nodes[name] = _Node(name, device, scheduler, monitor)
        self.ring = HashRing(list(self.nodes), vnodes=config.vnodes)
        self.tenants, self.events = _plan(config)
        self.by_tid = {t.tid: t for t in self.tenants}
        # Planned control events become persistent epoch edges on every
        # node's monitor: fast-forward jumps from action to action.
        edge_times = sorted({at for at, _k, _t in self.events})
        for node in self.nodes.values():
            node.monitor.register_edges(edge_times)
        for t in self.tenants:
            t.task_cost = (
                config.read_fraction * self._task_cost(OpKind.READ, config.read_size)
                + (1 - config.read_fraction)
                * self._task_cost(OpKind.WRITE, config.write_size)
            )
            t.write_pages = (
                (1 - config.read_fraction)
                * max(1, -(-config.write_size // self.page))
            )
        self.active: List[_ChurnTenant] = []
        #: bytes durably written per (tenant, slot) — the analytic
        #: migration volume a rebalance move ships
        self.part_bytes: Dict[Tuple[int, int], int] = {}
        self.result = ChurnResult(horizon=config.horizon, n_nodes=config.n_nodes)

    # -- cost helpers ------------------------------------------------------

    def _task_cost(self, kind: OpKind, size: int) -> float:
        total, pos = 0.0, 0
        while pos < size:
            length = min(self.chunk, size - pos)
            total += self.cost_model.cost(kind, length)
            pos += length
        return total

    def _refresh_demand(self) -> None:
        """Recompute per-node demand from scratch (identical in both
        modes: no incremental float drift)."""
        for node in self.nodes.values():
            node.demand = 0.0
            node.write_page_rate = 0.0
        nparts = self.config.partitions_per_tenant
        for t in self.active:
            share = t.rate / nparts
            for owner in t.owners:
                node = self.nodes[owner]
                node.demand += share * t.task_cost
                node.write_page_rate += share * t.write_pages

    # -- control events ----------------------------------------------------

    def _apply_event(self, at: float, kind: str, tid: int) -> None:
        if kind == "arrive":
            t = self.by_tid[tid]
            t.active = True
            t.owners = [
                self.ring.successors(f"{t.name}/{j}", 1)[0]
                for j in range(self.config.partitions_per_tenant)
            ]
            for owner in set(t.owners):
                self._register(owner, t)
            t.next_at = at + t.gap.next()
            self.active.append(t)
            self.result.admitted += 1
            self.result.actions.append(
                ChurnAction(at, "arrive", f"{t.name} -> {','.join(t.owners)}")
            )
        elif kind == "depart":
            t = self.by_tid[tid]
            t.active = False
            t.next_at = math.inf
            self.active = [x for x in self.active if x.active]
            self.result.departed += 1
            self.result.actions.append(ChurnAction(at, "depart", t.name))
        elif kind == "rebalance":
            self._rebalance(at)
        self._refresh_demand()

    def _register(self, owner: str, t: _ChurnTenant) -> None:
        node = self.nodes[owner]
        if t.name in node.registered:
            return
        node.registered.add(t.name)
        node.scheduler.register_tenant(
            t.name, t.rate * t.task_cost / self.config.partitions_per_tenant
        )

    def _rebalance(self, at: float) -> None:
        """Move the heaviest partition from the hottest node to the
        coolest — a pure function of plan state, so both modes take the
        identical action and the map versions march in lockstep."""
        self._refresh_demand()
        loaded = sorted(
            self.nodes.values(), key=lambda n: (-n.demand, n.name)
        )
        if len(loaded) < 2 or loaded[0].demand <= 0.0:
            return
        hot, cool = loaded[0], loaded[-1]
        if hot.demand <= cool.demand * 1.05:
            return
        nparts = self.config.partitions_per_tenant
        best: Optional[Tuple[_ChurnTenant, int]] = None
        best_load = 0.0
        for t in self.active:
            share = t.rate / nparts * t.task_cost
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

    # -- arrivals ----------------------------------------------------------

    def _earliest(self, before: float) -> Optional[_ChurnTenant]:
        best = None
        best_at = before
        for t in self.active:
            if t.next_at < best_at:
                best, best_at = t, t.next_at
        return best

    def _pick(self, t: _ChurnTenant):
        """Draw one op: (is_read, size, owner node, offset).

        A single U[0,1) draw picks the partition slot (integer part
        after scaling) and the in-partition offset (fractional part
        rescaled) — one draw, both modes, no stream divergence.
        """
        config = self.config
        is_read = t.mix.next() < config.read_fraction
        size = t.rsize.next() if is_read else t.wsize.next()
        u = t.upick.next()
        nparts = config.partitions_per_tenant
        slot = min(int(u * nparts), nparts - 1)
        frac = u * nparts - slot
        max_slot = (self.capacity - size) // self.page
        offset = min(int(frac * max_slot), max_slot - 1) * self.page if max_slot > 0 else 0
        if not is_read:
            self.part_bytes[(t.tid, slot)] = (
                self.part_bytes.get((t.tid, slot), 0) + size
            )
        return is_read, size, t.owners[slot], offset

    def _des_arrival(self, t: _ChurnTenant, at: float) -> None:
        is_read, size, owner, offset = self._pick(t)
        scheduler = self.nodes[owner].scheduler
        if is_read:
            scheduler.read(offset, size, tag=t.tag)
        else:
            scheduler.write(offset, size, tag=t.tag)
        t.next_at = at + t.gap.next()

    def _ff_arrival(self, t: _ChurnTenant) -> bool:
        """Book one arrival analytically; True when a write tipped GC."""
        is_read, size, owner, offset = self._pick(t)
        node = self.nodes[owner]
        device = node.device
        pos = 0
        while pos < size:
            length = min(self.chunk, size - pos)
            device.epoch_op(is_read, offset + pos, length)
            pos += length
        gc = not is_read and device.ftl.gc_needed
        node.scheduler.credit_epoch(
            t.tag, OpKind.READ if is_read else OpKind.WRITE, size
        )
        t.next_at += t.gap.next()
        return gc, node

    # -- modes -------------------------------------------------------------

    def run_des(self, until: float) -> int:
        sim = self.sim
        tasks = 0
        while True:
            t = self._earliest(until)
            if t is None:
                break
            at = t.next_at
            sim.run(until=at)
            self._des_arrival(t, at)
            tasks += 1
        sim.run(until=until)
        return tasks

    def run_ff(self, edge: float) -> Tuple[float, int]:
        sim = self.sim
        tasks = 0
        t1 = edge
        gc_node = None
        while True:
            t = self._earliest(t1)
            if t is None:
                break
            at = t.next_at
            gc, node = self._ff_arrival(t)
            tasks += 1
            if gc:
                gc_node = node
                t1 = at
                break
        sim.run(until=t1)
        if gc_node is not None:
            gc_node.device.maybe_collect()
        return t1, tasks

    def _global_edge(self, until: float):
        """The earliest admissible epoch edge across every node, or
        ``None`` when any node is ineligible."""
        edge = until
        for node in self.nodes.values():
            e, _reason = node.monitor.next_epoch(
                node.demand,
                until=edge,
                write_page_rate=node.write_page_rate,
                min_epoch=self.config.min_epoch,
            )
            if e is None:
                return None
            edge = min(edge, e)
        return edge

    # -- main loop ---------------------------------------------------------

    def run(self) -> ChurnResult:
        sim = self.sim
        config = self.config
        end = config.horizon
        events = self.events
        ei = 0
        wall0 = time.perf_counter()
        while True:
            now = sim.now
            while ei < len(events) and events[ei][0] <= now:
                at, kind, tid = events[ei]
                self._apply_event(at, kind, tid)
                ei += 1
            if now >= end:
                break
            next_event = events[ei][0] if ei < len(events) else math.inf
            edge = None
            if self.fast_forward:
                edge = self._global_edge(min(end, next_event))
            if edge is not None:
                t1, tasks = self.run_ff(edge)
                self.result.ff_seconds += t1 - now
                self.result.ff_tasks += tasks
            else:
                t1 = min(end, next_event, now + config.des_slice)
                tasks = self.run_des(t1)
                self.result.des_tasks += tasks
        # Drain in-flight work without admitting new arrivals.
        sim.step_while(
            lambda: any(
                n.scheduler.backlog > 0 or n.device.in_flight > 0
                for n in self.nodes.values()
            )
        )
        for node in self.nodes.values():
            node.scheduler.stop()
        sim.run(until=sim.now + 2 * config.round_seconds * 4)
        self.result.wall_seconds = time.perf_counter() - wall0
        self._collect()
        return self.result

    def _collect(self) -> None:
        result = self.result
        for name, node in self.nodes.items():
            for tenant in sorted(node.registered):
                usage = node.scheduler.usage(tenant)
                if usage.tasks == 0 and usage.ops == 0:
                    continue
                result.usage[(name, tenant)] = (usage.tasks, usage.ops, usage.bytes)
                result.total_tasks += usage.tasks
                result.total_ops += usage.ops
                result.total_bytes += usage.bytes
                result.total_vops += usage.vops


def run_churn_trial(
    config: Optional[ChurnConfig] = None, fast_forward: bool = True
) -> ChurnResult:
    """Run one churn scenario; see :class:`ChurnConfig` for knobs.

    ``fast_forward=False`` replays the identical arrival sequence
    event-by-event — the reference the hybrid run must match exactly on
    :meth:`ChurnResult.agreement_key`.
    """
    runner = _ChurnRunner(config or ChurnConfig(), fast_forward)
    return runner.run()
