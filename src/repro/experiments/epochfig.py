"""Hybrid-simulation capstone: epoch fast-forward, quiet and fluid.

Not a figure from the paper — the provisioning-study machinery this
repo adds on top of it, exercised end to end in two parts:

**Part A — fast-forward agreement and speedup.**  Three open-loop
multi-tenant scenarios run twice each: pure event-by-event DES and
hybrid fast-forward (:func:`repro.workload.run_epoch_trial` with
``fast_forward=True``), same seed.

- *steady-read*: four read-only tenants well under their allocations —
  the whole horizon fast-forwards in one epoch;
- *mixed-gc*: 10% writes age the FTL until the GC low watermark trips —
  the monitor must hand control back to the DES mid-run;
- *rate-change*: a control-plane rate change lands mid-horizon — an
  epoch edge, not a fallback.

For each scenario the table reports task/VOP/byte agreement (exact by
construction — both modes pull identical arrival streams), the wall
times, the speedup, the fraction of simulated time covered
analytically, and the attached VOP audit's reconciliation ratio
(1.0000 in fast-forward epochs by construction).

**Part C — loaded backlogs through the fluid engine.**  Three
scenarios whose offered demand keeps per-tenant queues persistently
non-empty (rates computed from the cost model to hit a target VOP
utilisation), so the quiet eligibility class never applies: coverage
comes from the stable-backlog (fluid) regime replaying arrivals
through the analytic DDRR round schedule.  The table adds the fluid
share of simulated time and a breakdown of where event-by-event time
was still spent (the monitor's per-reason rejection accounting) —
including a run on the multi-queue NVMe device, whose epoch hooks are
inherited from the base SSD model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..analysis.report import format_table
from ..core.calibration import reference_calibration
from ..core.tags import OpKind
from ..core.vop import make_cost_model
from ..ssd import get_profile
from ..workload import EpochTenantSpec, RateChange, run_epoch_trial
from ..workload.iobench import KIB
from .common import lost_to_label

__all__ = ["run", "render", "EpochFigResult"]


@dataclass
class ScenarioRow:
    name: str
    tasks_des: int
    tasks_ff: int
    vops_des: float
    vops_ff: float
    bytes_agree: bool
    wall_des: float
    wall_ff: float
    ff_fraction: float
    segments: int
    reconciliation: float
    audit_ok: bool
    #: Part C extras: fluid-engine share of simulated time and the
    #: monitor's per-reason breakdown of remaining DES seconds
    fluid_fraction: float = 0.0
    des_reasons: Optional[Dict[str, float]] = None

    @property
    def speedup(self) -> float:
        return self.wall_des / self.wall_ff if self.wall_ff > 0 else float("inf")

    @property
    def agree(self) -> bool:
        return (
            self.tasks_des == self.tasks_ff
            and self.bytes_agree
            and abs(self.vops_des - self.vops_ff) <= 1e-6 * max(self.vops_des, 1.0)
        )


@dataclass
class EpochFigResult:
    profile: str
    mode: str
    scenarios: List[ScenarioRow]
    #: Part C — loaded stable-backlog scenarios (fluid engine)
    loaded: List[ScenarioRow]


def _scenarios(profile_name: str, horizon: float):
    read_only = [
        EpochTenantSpec(name=f"t{i}", rate=2500.0, read_fraction=1.0)
        for i in range(4)
    ]
    mixed = [
        EpochTenantSpec(name=f"t{i}", rate=2500.0, read_fraction=0.5)
        for i in range(4)
    ]
    changing = [
        EpochTenantSpec(name=f"t{i}", rate=1500.0, read_fraction=1.0)
        for i in range(4)
    ]
    return [
        ("steady-read", read_only, horizon, ()),
        ("mixed-gc", mixed, horizon, ()),
        (
            "rate-change",
            changing,
            horizon,
            (RateChange(at=horizon / 2, tenant="t0", rate=4500.0),),
        ),
    ]


def _loaded_scenarios(profile_name: str):
    """Part C: rates derived from the cost model to hold a target
    utilisation, so queues stay persistently non-empty."""
    model = make_cost_model("exact", reference_calibration(profile_name))
    read_cost = model.cost(OpKind.READ, 4 * KIB)
    write_cost = model.cost(OpKind.WRITE, 4 * KIB)

    def specs(util: float, read_fraction: float):
        mean = read_fraction * read_cost + (1.0 - read_fraction) * write_cost
        rate = util * model.max_iop / mean / 4
        return [
            EpochTenantSpec(
                name=f"t{i}", rate=rate, read_fraction=read_fraction
            )
            for i in range(4)
        ]

    # (name, specs, NVMe queue count or None for the base profile).  One
    # queue runs on the SATA model (``make_device``), bit-identical to the
    # NVMe model by its degeneration guarantee.
    return [
        ("loaded-read", specs(0.75, 1.0), None),
        ("loaded-mixed", specs(0.65, 0.9), None),
        ("loaded-nvme", specs(0.75, 1.0), 1),
    ]


def _run_scenario(profile, name, specs, horizon, changes, seed) -> ScenarioRow:
    des = run_epoch_trial(
        profile, specs, horizon=horizon, seed=seed,
        fast_forward=False, rate_changes=changes, audit=True,
    )
    ff = run_epoch_trial(
        profile, specs, horizon=horizon, seed=seed,
        fast_forward=True, rate_changes=changes, audit=True,
    )
    return ScenarioRow(
        name=name,
        tasks_des=des.total_tasks,
        tasks_ff=ff.total_tasks,
        vops_des=des.total_vops,
        vops_ff=ff.total_vops,
        bytes_agree=des.total_bytes == ff.total_bytes,
        wall_des=des.wall_seconds,
        wall_ff=ff.wall_seconds,
        ff_fraction=ff.ff_fraction,
        segments=len(ff.segments),
        reconciliation=ff.audit_summary["reconciliation"],
        audit_ok=ff.audit_summary["ok"] and des.audit_summary["ok"],
        fluid_fraction=ff.fluid_fraction,
        des_reasons=dict(ff.des_reasons),
    )


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 7,
    jobs: int = 1,
) -> EpochFigResult:
    """Run both parts serially (``jobs`` is accepted for CLI uniformity)."""
    profile = get_profile(profile_name)
    horizon = 4.0 if quick else 12.0

    scenarios = [
        _run_scenario(profile, name, specs, h, changes, seed)
        for name, specs, h, changes in _scenarios(profile_name, horizon)
    ]
    loaded = [
        _run_scenario(
            profile if queues is None else profile.with_queues(queues),
            name, specs, horizon, (), seed,
        )
        for name, specs, queues in _loaded_scenarios(profile_name)
    ]
    return EpochFigResult(
        profile=profile_name,
        mode="quick" if quick else "full",
        scenarios=scenarios,
        loaded=loaded,
    )


def render(result: EpochFigResult) -> str:
    parts = [
        f"epochfig — hybrid simulation on {result.profile} ({result.mode} mode)",
        "",
        format_table(
            ["scenario", "tasks", "agree", "ff%", "segs",
             "wall des", "wall ff", "speedup", "recon", "audit"],
            [
                [
                    row.name,
                    row.tasks_ff,
                    "yes" if row.agree else "NO",
                    f"{row.ff_fraction * 100:.1f}",
                    row.segments,
                    f"{row.wall_des:.2f}s",
                    f"{row.wall_ff:.2f}s",
                    f"{row.speedup:.1f}x",
                    f"{row.reconciliation:.4f}",
                    "ok" if row.audit_ok else "FLAGGED",
                ]
                for row in result.scenarios
            ],
            title="Part A — DES vs fast-forward (same seed, shared arrival streams)",
        ),
        "",
        format_table(
            ["scenario", "tasks", "agree", "ff%", "fluid%",
             "wall des", "wall ff", "speedup", "recon", "des time lost to"],
            [
                [
                    row.name,
                    row.tasks_ff,
                    "yes" if row.agree else "NO",
                    f"{row.ff_fraction * 100:.1f}",
                    f"{row.fluid_fraction * 100:.1f}",
                    f"{row.wall_des:.2f}s",
                    f"{row.wall_ff:.2f}s",
                    f"{row.speedup:.1f}x",
                    f"{row.reconciliation:.4f}",
                    lost_to_label(row.des_reasons),
                ]
                for row in result.loaded
            ],
            title=(
                "Part C — loaded stable backlogs via the fluid DDRR engine "
                "(same exactness contract)"
            ),
        ),
    ]
    return "\n".join(parts)
