"""Chaos experiment: a fig11-style tenant mix through a scripted fault window.

Not a figure from the paper — a robustness capstone over the same
stack.  Three tenants (one per fig11 workload group) run closed-loop
against one node while a deterministic :class:`~repro.faults.FaultPlan`
turns the device hostile for a window mid-run: transient read/write
errors, corrupt reads, a latency spike, 4x degraded bandwidth, and a
full stall; in the middle of it the write-heavy tenant's engine is
crashed and restarted (torn WAL tail, recovery scan under fire).

What the experiment demonstrates, per tenant:

- throughput dips during the fault window and recovers after it;
- retries/timeouts/crash-waits are visible in the request stats while
  *surfaced* errors stay rare (the node absorbs the chaos);
- **zero acknowledged writes are lost**: after the run, every key whose
  PUT was acknowledged reads back at its expected size;
- the policy's effective capacity degrades under the window (scaling
  allocations down proportionally) and returns to nominal after it.

Everything is seed-deterministic: two same-seed runs return equal
:class:`ChaosResult` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..analysis.report import format_table
from ..analysis.timeseries import SeriesSet
from ..core.policy import Reservation
from ..faults import FaultKind, FaultPlan, FaultWindow, StorageFault
from ..node import NodeConfig, StorageNode
from ..sim import Simulator
from ..ssd import get_profile
from ..workload.generator import KvTenantSpec, bootstrap_tenant
from .common import count_lost
from .kvdynamic import derive_reservations, spec_for, value_size

__all__ = ["run", "render", "ChaosResult", "ChaosTimeline", "build_fault_plan"]

MIB = 1024 * 1024

#: one tenant per fig11 workload group
TENANTS: Tuple[Tuple[str, str], ...] = (
    ("rh0", "read-heavy"),
    ("mx0", "mixed"),
    ("wh0", "write-heavy"),
)
#: the tenant whose engine is crashed mid-window
CRASH_TENANT = "wh0"
PHASES = ("steady", "fault", "recovery")


@dataclass(frozen=True)
class ChaosTimeline:
    """The experiment's schedule, all in simulated seconds."""

    probe_end: float
    fault_start: float
    fault_end: float
    crash_at: float
    stall_start: float
    stall_end: float
    horizon: float


QUICK = ChaosTimeline(
    probe_end=20.0, fault_start=30.0, fault_end=45.0,
    crash_at=28.0, stall_start=38.0, stall_end=40.0, horizon=60.0,
)
FULL = ChaosTimeline(
    probe_end=40.0, fault_start=55.0, fault_end=85.0,
    crash_at=53.0, stall_start=70.0, stall_end=72.0, horizon=110.0,
)


def build_fault_plan(timeline: ChaosTimeline, seed: int) -> FaultPlan:
    """The scripted window: errors + corruption + latency + 4x BW + stall."""
    t0, t1 = timeline.fault_start, timeline.fault_end
    plan = FaultPlan(seed=seed)
    plan.add(FaultWindow(FaultKind.READ_ERROR, t0, t1, probability=0.04))
    plan.add(FaultWindow(FaultKind.WRITE_ERROR, t0, t1, probability=0.04))
    plan.add(FaultWindow(FaultKind.CORRUPT_READ, t0, t1, probability=0.04))
    plan.add(FaultWindow(FaultKind.LATENCY, t0, t1, extra_latency=0.002))
    plan.add(FaultWindow(FaultKind.DEGRADED_BW, t0, t1, slowdown=4.0))
    plan.add(FaultWindow(FaultKind.STALL, timeline.stall_start, timeline.stall_end))
    return plan


@dataclass
class ChaosResult:
    """Everything the chaos run observed."""

    profile: str
    seed: int
    timeline: ChaosTimeline
    #: tenant -> phase -> combined normalized (1 KB) request units/s
    tenant_rates: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: tenant -> {retries, timeouts, errors, crashes, crash_waits, ...}
    request_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: device-level injected-fault counters
    device_faults: Dict[str, float] = field(default_factory=dict)
    #: engine-level failure-handling counters, summed over tenants
    engine_faults: Dict[str, int] = field(default_factory=dict)
    #: acknowledged PUT keys per tenant / those lost after recovery
    acked_puts: Dict[str, int] = field(default_factory=dict)
    lost_acks: Dict[str, int] = field(default_factory=dict)
    #: requests whose retries were exhausted (surfaced to the app)
    surfaced_errors: Dict[str, int] = field(default_factory=dict)
    torn_records: int = 0
    replayed_records: int = 0
    min_scale: float = 1.0
    final_scale: float = 1.0
    min_effective_capacity: float = 0.0
    capacity_vops: float = 0.0
    capacity_reestimates: int = 0
    verified: bool = False

    @property
    def total_lost(self) -> int:
        return sum(self.lost_acks.values())

    def dip_ratio(self, tenant: str) -> float:
        """Fault-window throughput over steady throughput."""
        steady = self.tenant_rates[tenant]["steady"]
        return self.tenant_rates[tenant]["fault"] / steady if steady else 0.0

    def recovery_ratio(self, tenant: str) -> float:
        """Post-window throughput over steady throughput."""
        steady = self.tenant_rates[tenant]["steady"]
        return self.tenant_rates[tenant]["recovery"] / steady if steady else 0.0


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 29, jobs: int = 1
) -> ChaosResult:
    """Run the chaos experiment; deterministic in ``seed``.

    ``jobs`` is accepted for CLI uniformity but unused: the experiment
    is one continuous fault timeline on a single node and cannot be
    split without changing what it measures.
    """
    timeline = QUICK if quick else FULL
    sim = Simulator()
    profile = get_profile(profile_name).with_capacity(768 * MIB)
    plan = build_fault_plan(timeline, seed)
    node = StorageNode(
        sim,
        profile=profile,
        config=NodeConfig(request_timeout=0.75, max_retries=8),
        seed=seed,
        fault_plan=plan,
    )
    specs: List[KvTenantSpec] = []
    for tenant, group in TENANTS:
        spec = spec_for(tenant, group)
        specs.append(spec)
        node.add_tenant(tenant, Reservation(gets=1.0, puts=1.0))
        bootstrap_tenant(node.engines[tenant], spec.n_keys // 2, spec.get_size)
    spec_by_name = {s.name: s for s in specs}

    series = SeriesSet()
    acked: Dict[str, Set[int]] = {s.name: set() for s in specs}
    surfaced: Dict[str, int] = {s.name: 0 for s in specs}

    def worker(tenant: str, widx: int):
        spec = spec_by_name[tenant]
        rng = random.Random(f"chaos:{seed}:{tenant}:{widx}")
        half = spec.n_keys // 2
        while sim.now < timeline.horizon:
            try:
                if rng.random() < spec.get_fraction:
                    # GETs hit the bootstrapped lower half of the keyspace.
                    yield from node.get(tenant, rng.randrange(half))
                else:
                    key = half + rng.randrange(half)
                    yield from node.put(tenant, key, value_size(spec, key))
                    # Only reached once the node acknowledged the write.
                    acked[tenant].add(key)
            except StorageFault:
                surfaced[tenant] += 1

    def sampler():
        baselines = {s.name: node.stats(s.name).snapshot() for s in specs}
        vop_base = {
            s.name: node.scheduler.usage(s.name).snapshot() for s in specs
        }
        while sim.now < timeline.horizon:
            yield sim.timeout(1.0)
            series.add("scale", sim.now, node.policy.last_scale)
            series.add("effcap", sim.now, node.policy.effective_capacity)
            for s in specs:
                current = node.stats(s.name)
                delta = current.delta(baselines[s.name])
                baselines[s.name] = current.snapshot()
                usage = node.scheduler.usage(s.name)
                vdelta = usage.delta(vop_base[s.name])
                vop_base[s.name] = usage.snapshot()
                series.add(f"get:{s.name}", sim.now, delta.get_units)
                series.add(f"put:{s.name}", sim.now, delta.put_units)
                series.add(f"vops:{s.name}", sim.now, vdelta.vops)

    result = ChaosResult(
        profile=profile_name, seed=seed, timeline=timeline,
        capacity_vops=node.capacity_vops,
    )

    def chaos_script():
        yield sim.timeout(timeline.crash_at)
        # Land the crash on a moment with a group commit in flight so the
        # torn-tail path (unacknowledged writers failing + re-issuing) is
        # actually exercised, not just possible.
        engine = node.engines[CRASH_TENANT]
        while not engine.wal.busy and sim.now < timeline.crash_at + 3.0:
            yield sim.timeout(0.001)
        result.torn_records = node.crash(CRASH_TENANT)
        replayed = yield from node.restart(CRASH_TENANT)
        result.replayed_records = replayed

    for s in specs:
        for widx in range(s.workers):
            sim.process(worker(s.name, widx), name=f"chaos.{s.name}.{widx}")
    sim.process(sampler(), name="chaos.sampler")
    sim.process(chaos_script(), name="chaos.script")

    sim.run(until=timeline.probe_end)
    window = (timeline.probe_end * 2 / 3, timeline.probe_end)
    for tenant, reservation in derive_reservations(
        node.capacity_vops, series, [s.name for s in specs], window
    ).items():
        node.set_reservation(tenant, reservation)
    sim.run(until=timeline.horizon)

    # -- verification: every acknowledged write must read back ------------
    lost: Dict[str, int] = {}
    verified_done: Dict[str, bool] = {}

    def verifier(tenant: str):
        spec = spec_by_name[tenant]
        lost[tenant] = yield from count_lost(
            lambda key: node.get(tenant, key),
            {key: value_size(spec, key) for key in acked[tenant]},
        )
        verified_done[tenant] = True

    for s in specs:
        sim.process(verifier(s.name), name=f"chaos.verify.{s.name}")
    sim.run(until=timeline.horizon + 30.0)
    node.stop()

    # -- collect ----------------------------------------------------------
    t = timeline
    windows = {
        "steady": (t.probe_end + 2.0, t.fault_start),
        "fault": (t.fault_start + 1.0, t.fault_end),
        "recovery": (t.fault_end + 3.0, t.horizon),
    }
    for s in specs:
        result.tenant_rates[s.name] = {
            phase: series[f"get:{s.name}"].window_mean(*w)
            + series[f"put:{s.name}"].window_mean(*w)
            for phase, w in windows.items()
        }
        stats = node.stats(s.name)
        result.request_stats[s.name] = {
            "gets": stats.gets, "puts": stats.puts,
            "retries": stats.retries, "timeouts": stats.timeouts,
            "errors": stats.errors, "crashes": stats.crashes,
            "crash_waits": stats.crash_waits,
        }
        result.acked_puts[s.name] = len(acked[s.name])
        result.lost_acks[s.name] = lost.get(s.name, len(acked[s.name]))
        result.surfaced_errors[s.name] = surfaced[s.name]
    dev = node.device.stats
    result.device_faults = {
        "read_faults": dev.read_faults,
        "write_faults": dev.write_faults,
        "corrupt_reads": dev.corrupt_reads,
        "degraded_ops": dev.degraded_ops,
        "stall_seconds": round(dev.stall_seconds, 6),
    }
    engines = [node.engines[s.name] for s in specs]
    for key in (
        "checksum_failures", "read_retries", "torn_records",
        "flush_retries", "compaction_aborts", "recoveries",
        "recovered_records",
    ):
        result.engine_faults[key] = sum(
            getattr(e.stats, key) for e in engines
        )
    scale = series["scale"]
    in_window = [
        v for tm, v in zip(scale.times, scale.values)
        if t.fault_start <= tm < t.fault_end + 3.0
    ]
    result.min_scale = min(in_window) if in_window else 1.0
    result.final_scale = scale.last() if len(scale) else 1.0
    effcap = series["effcap"]
    result.min_effective_capacity = min(effcap.values) if len(effcap) else 0.0
    result.capacity_reestimates = node.policy.capacity_reestimates
    result.verified = all(verified_done.get(s.name, False) for s in specs)
    return result


def render(result: ChaosResult) -> str:
    t = result.timeline
    blocks = [
        f"Chaos — fault window [{t.fault_start:.0f}s, {t.fault_end:.0f}s) "
        f"with {CRASH_TENANT} crash at {t.crash_at:.0f}s, {result.profile}",
    ]
    rows = []
    for tenant, _group in TENANTS:
        rates = result.tenant_rates[tenant]
        stats = result.request_stats[tenant]
        rows.append([
            tenant,
            rates["steady"], rates["fault"], rates["recovery"],
            f"{result.dip_ratio(tenant):.2f}",
            f"{result.recovery_ratio(tenant):.2f}",
            stats["retries"], stats["timeouts"], stats["crash_waits"],
            stats["errors"],
            result.acked_puts[tenant], result.lost_acks[tenant],
        ])
    blocks.append(format_table(
        ["tenant", "steady/s", "fault/s", "recov/s", "dip", "recov",
         "retries", "timeouts", "waits", "errors", "acked", "lost"],
        rows,
        title="per-tenant normalized request rates and failure handling",
    ))
    blocks.append(format_table(
        ["counter", "value"],
        sorted(result.device_faults.items()),
        title="device: injected faults",
    ))
    blocks.append(format_table(
        ["counter", "value"],
        sorted(result.engine_faults.items()),
        title="engines: failure handling (summed)",
    ))
    blocks.append(
        f"crash: {result.torn_records} records torn, "
        f"{result.replayed_records} replayed on recovery\n"
        f"policy: min scale {result.min_scale:.2f} in window, "
        f"final scale {result.final_scale:.2f}; effective capacity dipped to "
        f"{result.min_effective_capacity:.0f}/{result.capacity_vops:.0f} VOP/s "
        f"({result.capacity_reestimates} re-estimates)\n"
        f"acknowledged writes lost: {result.total_lost}"
        f" (verified={result.verified})"
    )
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover
    print(render(run(quick=True)))
