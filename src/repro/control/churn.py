"""Tenant churn at scale: the "millions of users" lifecycle driver.

This module runs the control plane's target scenario — thousands of
tenants arriving, working, and departing over simulated hours on a
50–200 node cluster.  Every node is a Libra scheduler over its own
device in one shared simulator; every *planned* control event (tenant
arrival, departure, scheduled rebalance) is applied in plan order at
its instant, and every tenant op between them is submitted to its
owner node's live scheduler at its arrival time.

Determinism is by construction: each tenant pulls its inter-arrival
gaps, op mix, sizes and placements from its own seeded RNG streams,
arrivals are replayed in one global order (earliest first, ties to the
earlier-admitted tenant), and control decisions (which partition a
rebalance moves) are pure functions of plan state.  Two runs of one
config agree exactly on :meth:`ChurnResult.agreement_key`.

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
from ..sim import Simulator
from ..ssd import SsdProfile, get_profile, make_device
from ..workload.distributions import BlockStream, ExponentialArrivals, FixedSize, Uniform01
from .ring import HashRing

__all__ = ["ChurnConfig", "ChurnResult", "run_churn_trial"]

KIB = 1024
#: tenant rates are Zipf-distributed: rank ``k`` runs ``base_rate/k^ZIPF_S``
ZIPF_S = 1.1
#: RNG stream slots per tenant; five are drawn (gap, mix, read size,
#: write size, placement), and changing the stride reseeds every tenant
_STREAMS_PER_TENANT = 8


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
    #: a built-in profile's name, or a custom :class:`SsdProfile`
    #: (calibrated once per process, see ``reference_calibration``)
    profile: str | SsdProfile = "intel320"
    #: virtual points per node on the placement ring
    vnodes: int = 16
    seed: int = 7
    #: coarse scheduler rounds: churn nodes are mostly idle, so 100ms
    #: round-timeout ticks keep a 50-node × hours run cheap
    round_seconds: float = 0.1

    def __post_init__(self):
        # A count below one leaves no node to place on, no tenant or op
        # to run; a zero rate or span divides by zero, an infinite one
        # never ends the plan.
        for name in ("n_nodes", "n_tenants", "read_size", "write_size",
                     "partitions_per_tenant"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} {value!r} must be an int >= 1")
        for name in ("horizon", "arrival_rate", "mean_lifetime", "base_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} {value!r} must be finite and > 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction {self.read_fraction!r} must be in [0, 1]")
        if not self.rebalance_interval >= 0:
            raise ValueError(
                f"rebalance_interval {self.rebalance_interval!r} must be >= 0"
            )


class _ChurnTenant:
    """One open-loop tenant: its lifecycle, placement and seeded streams.

    Gaps, the op mix, sizes and the placement draw each come from their
    own ``random.Random``, seeded from the trial seed and the tenant
    index, so the op sequence is a pure function of (seed, tenant).
    """

    __slots__ = ("tid", "name", "tag", "rate", "gap", "mix", "rsize", "wsize",
                 "upick", "next_at", "arrive_at", "depart_at", "owners")

    def __init__(self, tid: int, rate: float, arrive_at: float,
                 depart_at: float, config: ChurnConfig):
        def rng(k: int) -> random.Random:
            return random.Random(derive_seed(config.seed, tid * _STREAMS_PER_TENANT + k))

        self.tid = tid
        self.name = f"t{tid}"
        self.tag = IoTag(self.name, RequestClass.RAW)
        self.rate = rate
        self.gap = BlockStream(ExponentialArrivals(rate), rng(0))
        self.mix = BlockStream(Uniform01(), rng(1))
        self.rsize = BlockStream(FixedSize(config.read_size), rng(2))
        self.wsize = BlockStream(FixedSize(config.write_size), rng(3))
        #: one U[0,1) draw per op; ``_place`` maps it to a partition
        #: slot and an offset
        self.upick = BlockStream(Uniform01(), rng(4))
        self.next_at = math.inf
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
    wall_seconds: float = 0.0
    #: (node, tenant) -> (tasks, ops, bytes)
    usage: Dict[Tuple[str, str], Tuple[int, int, int]] = field(default_factory=dict)
    actions: List[ChurnAction] = field(default_factory=list)

    def agreement_key(self) -> tuple:
        """Exact-match key: two runs of one config agree on it."""
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
    trigger times are.
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


class _ChurnRunner:
    """Many nodes, tenants that arrive, depart and get rebalanced."""

    def __init__(self, config: ChurnConfig):
        self.config = config
        self.sim = sim = Simulator()
        profile = get_profile(config.profile) if isinstance(config.profile, str) else config.profile
        self.page = profile.page_size
        self.capacity = profile.logical_capacity
        cost_model = make_cost_model("exact", reference_calibration(profile))
        sched_config = SchedulerConfig(round_seconds=config.round_seconds)
        #: node name -> its scheduler (``.device`` is the node's device)
        self.nodes: Dict[str, LibraScheduler] = {}
        for i in range(config.n_nodes):
            device = make_device(sim, profile, seed=derive_seed(config.seed, 0xD000 + i))
            self.nodes[f"n{i}"] = LibraScheduler(sim, device, cost_model, config=sched_config)
        self.ring = HashRing(list(self.nodes), vnodes=config.vnodes)
        self.tenants, self.events = _plan(config)
        self.by_tid = {t.tid: t for t in self.tenants}
        #: the admitted, not yet departed tenants, in admission order
        self.sources: List[_ChurnTenant] = []
        #: tenant names registered with each node's scheduler
        self.registered: Dict[str, set] = {name: set() for name in self.nodes}
        # Every tenant shares the config's mix and sizes: mean VOPs per
        # task is a trial constant.
        task_vops = self.nodes["n0"].task_vops
        self.task_cost = (
            config.read_fraction * task_vops(OpKind.READ, config.read_size)
            + (1 - config.read_fraction) * task_vops(OpKind.WRITE, config.write_size)
        )
        #: bytes durably written per (tenant, slot) — the analytic
        #: migration volume a rebalance move ships
        self.part_bytes: Dict[Tuple[int, int], int] = {}
        self.result = ChurnResult(horizon=config.horizon, n_nodes=config.n_nodes)

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
            t.next_at = at + t.gap.next()
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

    def _register(self, owner: str, t: _ChurnTenant) -> None:
        if t.name in self.registered[owner]:
            return
        self.registered[owner].add(t.name)
        self.nodes[owner].register_tenant(
            t.name, t.rate * self.task_cost / self.config.partitions_per_tenant
        )

    def _rebalance(self, at: float) -> None:
        """Move the heaviest partition from the hottest node to the
        coolest, by the demand (VOPs/sec) the live tenants' partitions
        offer each node now — a pure function of plan state, so every
        run of a config takes the identical action."""
        nparts = self.config.partitions_per_tenant
        demand = dict.fromkeys(self.nodes, 0.0)
        for t in self.sources:
            share = t.rate / nparts
            for owner in t.owners:
                demand[owner] += share * self.task_cost
        loaded = sorted(self.nodes, key=lambda name: (-demand[name], name))
        if len(loaded) < 2 or demand[loaded[0]] <= 0.0:
            return
        hot, cool = loaded[0], loaded[-1]
        if demand[hot] <= demand[cool] * 1.05:
            return
        best: Optional[Tuple[_ChurnTenant, int]] = None
        best_load = 0.0
        for t in self.sources:
            share = t.rate / nparts * self.task_cost
            for j, owner in enumerate(t.owners):
                if owner == hot and share > best_load:
                    best, best_load = (t, j), share
        if best is None:
            return
        t, j = best
        t.owners[j] = cool
        self._register(cool, t)
        moved = self.part_bytes.get((t.tid, j), 0)
        self.result.rebalances += 1
        self.result.moved_partitions += 1
        self.result.moved_bytes += moved
        self.result.map_version += 1
        self.result.actions.append(
            ChurnAction(
                at, "rebalance",
                f"{t.name}/{j}: {hot} -> {cool} ({moved} B)",
            )
        )

    # -- arrivals ------------------------------------------------------------

    def _place(self, t: _ChurnTenant, is_read: bool, size: int, u: float):
        """A single U[0,1) draw picks the partition slot (integer part
        after scaling) and the in-partition offset (fractional part
        rescaled); returns ``(owner's scheduler, offset)``."""
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

    def _replay(self, until: float) -> None:
        """Submit every arrival before ``until`` to its owner node's
        scheduler, in global order, running the simulator up to each.

        The earliest pending arrival goes first; a tie goes to the
        earlier-admitted tenant.  Per op the tenant draws its mix, then
        its size, then its placement, and its next gap after submitting.
        """
        sim = self.sim
        sources = self.sources
        read_fraction = self.config.read_fraction
        while True:
            src = None
            at = until
            for t in sources:
                if t.next_at < at:
                    src, at = t, t.next_at
            if src is None:
                return
            is_read = src.mix.next() < read_fraction
            size = src.rsize.next() if is_read else src.wsize.next()
            node, offset = self._place(src, is_read, size, src.upick.next())
            sim.run(until=at)
            if is_read:
                node.read(offset, size, tag=src.tag)
            else:
                node.write(offset, size, tag=src.tag)
            src.next_at = at + src.gap.next()

    def _busy(self) -> bool:
        """Queued or in-flight work on any node.  ``in_flight`` counts
        every op holding a queue slot, so commands parked in an NVMe
        SQ's fetch FIFO count too; an op waiting for a slot exists only
        while every slot of its SQ is held."""
        return any(
            node.backlog > 0 or node.device.in_flight > 0 for node in self.nodes.values()
        )

    # -- results -------------------------------------------------------------

    def finish(self) -> ChurnResult:
        """Run the plan to the horizon, drain every node, stop the
        schedulers and let their teardown events play out."""
        config = self.config
        sim = self.sim
        wall0 = time.perf_counter()
        for event in self.events:
            at = event[0]
            if at > sim.now:  # events sharing an instant apply back to back
                self._replay(at)
                sim.run(until=at)
            self._apply(event)
        self._replay(config.horizon)
        sim.run(until=config.horizon)
        # Drain: complete in-flight IO without committing to wall time.
        sim.step_while(self._busy)
        for node in self.nodes.values():
            node.stop()
        sim.run(until=sim.now + 2 * config.round_seconds * 4)
        result = self.result
        result.wall_seconds = time.perf_counter() - wall0
        for name, node in self.nodes.items():
            for tenant in sorted(self.registered[name]):
                usage = node.usage(tenant)
                if usage.tasks == 0 and usage.ops == 0:
                    continue
                result.usage[(name, tenant)] = (usage.tasks, usage.ops, usage.bytes)
                result.total_tasks += usage.tasks
                result.total_ops += usage.ops
                result.total_bytes += usage.bytes
                result.total_vops += usage.vops
        return result


def run_churn_trial(config: Optional[ChurnConfig] = None) -> ChurnResult:
    """Run one churn scenario; see :class:`ChurnConfig` for knobs."""
    return _ChurnRunner(config or ChurnConfig()).finish()
