"""Figure 12: adapting to shifting tenant demand.

Timeline (compressed from the paper's 100-400 s):

1. probe → evenly-dividing reservations → steady phase (aligned);
2. **workload swap**: read-heavy and write-heavy tenants exchange
   workloads while keeping their old reservations (misaligned) — large
   PUT reservations now cover expensive read-heavy-style PUTs and vice
   versa, so total VOP demand exceeds the provisionable capacity, the
   policy scales everyone down proportionally (overflow notifications
   fire), and the unchanged mixed tenants' reservations are violated;
3. **reservation swap**: reservations realign with the new demand and
   every group meets its reservation again.

The per-request cost profiles (bottom of the paper's figure) are
tracked throughout: tenants that turn write-heavy see their GET cost
amplified by the larger eligible-file set, with drops after COMPACTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..analysis.report import format_table
from ..core.policy import OverflowReport
from .kvdynamic import ALT_REGION_BASE, GROUPS, build_scenario, group_of, spec_for

__all__ = ["run", "render", "Fig12Result"]

PHASES = ("aligned", "misaligned", "realigned")


@dataclass
class Fig12Result:
    profile: str
    #: group -> phase -> (units/s achieved, units/s reserved)
    throughput: Dict[str, Dict[str, Tuple[float, float]]]
    #: phase -> overflow notifications during the phase
    overflows: Dict[str, int]
    #: phase -> mean proportional scale-down applied by the policy
    #: (1.0 = reservations fit within the provisionable capacity)
    scales: Dict[str, float]
    #: group -> phase -> (GET cost, PUT total cost) VOP per unit
    costs: Dict[str, Dict[str, Tuple[float, float]]]

    def satisfied(self, group: str, phase: str, slack: float = 0.9) -> bool:
        achieved, reserved = self.throughput[group][phase]
        return achieved >= reserved * slack


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 19, jobs: int = 1
) -> Fig12Result:
    """Regenerate the Figure 12 dynamic-demand experiment.

    ``jobs`` is accepted for CLI uniformity but unused: the experiment
    is one continuous timeline (probe → swap → realign) on a single
    node and cannot be split without changing what it measures.
    """
    if quick:
        probe_end, swap_work_at, swap_res_at, end_at = 35.0, 65.0, 95.0, 125.0
    else:
        probe_end, swap_work_at, swap_res_at, end_at = 60.0, 130.0, 200.0, 270.0
    overflow_log: List[OverflowReport] = []
    sim, node, load, reservations = build_scenario(
        profile_name, True, seed, on_overflow=overflow_log.append, horizon=end_at,
        probe_end=probe_end,
    )
    sim.run(until=swap_work_at)
    marks = {"aligned_end": len(overflow_log)}

    # Workload swap: rh tenants now run the write-heavy workload shape
    # and vice versa; reservations stay put (misaligned).
    swapped_group = {"read-heavy": "write-heavy", "write-heavy": "read-heavy"}
    for spec in load.specs:
        group = group_of(spec.name)
        if group in swapped_group:
            load.retarget(
                spec_for(spec.name, swapped_group[group], key_base=ALT_REGION_BASE)
            )
    sim.run(until=swap_res_at)
    marks["misaligned_end"] = len(overflow_log)

    # Reservation swap: realign with the new demand.
    realigned = {
        receiver: reservations[donor]
        for old_group, new_group in swapped_group.items()
        for receiver, donor in zip(GROUPS[old_group][0], GROUPS[new_group][0])
    }
    for receiver, reservation in realigned.items():
        node.set_reservation(receiver, reservation)
    sim.run(until=end_at)
    marks["realigned_end"] = len(overflow_log)
    node.stop()

    def reserved_units(tenant: str, phase: str) -> float:
        res = reservations[tenant]
        if phase == "realigned":
            res = realigned.get(tenant, res)
        return res.gets + res.puts

    windows = {
        "aligned": (probe_end + (swap_work_at - probe_end) / 2, swap_work_at),
        "misaligned": (swap_work_at + (swap_res_at - swap_work_at) / 2, swap_res_at),
        "realigned": (swap_res_at + (end_at - swap_res_at) / 2, end_at),
    }
    throughput: Dict[str, Dict[str, Tuple[float, float]]] = {}
    costs: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for group, (names, *_rest) in GROUPS.items():
        throughput[group] = {}
        costs[group] = {}
        for phase, window in windows.items():
            achieved = sum(
                load.series[f"get:{t}"].window_mean(*window)
                + load.series[f"put:{t}"].window_mean(*window)
                for t in names
            )
            reserved = sum(reserved_units(t, phase) for t in names)
            throughput[group][phase] = (achieved, reserved)
            get_cost = sum(
                load.series[f"cost:GET:{t}"].window_mean(*window) for t in names
            ) / len(names)
            put_cost = sum(
                load.series[f"cost:PUT:{t}"].window_mean(*window)
                + load.series[f"cost:PUT:FLUSH:{t}"].window_mean(*window)
                + load.series[f"cost:PUT:COMPACT:{t}"].window_mean(*window)
                for t in names
            ) / len(names)
            costs[group][phase] = (get_cost, put_cost)
    overflows = {
        "aligned": marks["aligned_end"],
        "misaligned": marks["misaligned_end"] - marks["aligned_end"],
        "realigned": marks["realigned_end"] - marks["misaligned_end"],
    }
    scales = {
        phase: load.series["scale"].window_mean(*window) if "scale" in load.series.names() else 1.0
        for phase, window in windows.items()
    }
    return Fig12Result(
        profile=profile_name,
        throughput=throughput,
        overflows=overflows,
        costs=costs,
        scales=scales,
    )


def render(result: Fig12Result) -> str:
    blocks = [f"Figure 12 — shifting tenant demand, {result.profile}"]
    rows = []
    for group in sorted(result.throughput):
        for phase in PHASES:
            achieved, reserved = result.throughput[group][phase]
            rows.append(
                [
                    group,
                    phase,
                    achieved,
                    reserved,
                    "yes" if result.satisfied(group, phase) else "NO",
                ]
            )
    blocks.append(
        format_table(
            ["group", "phase", "units/s", "reserved", "met(>=90%)"],
            rows,
            title="group-aggregate normalized request units vs reservations",
        )
    )
    blocks.append(
        "overflow notifications per phase: "
        + ", ".join(f"{phase}={result.overflows[phase]}" for phase in PHASES)
        + "\nmean allocation scale per phase: "
        + ", ".join(f"{phase}={result.scales[phase]:.2f}" for phase in PHASES)
    )
    rows = []
    for group in sorted(result.costs):
        for phase in PHASES:
            get_cost, put_cost = result.costs[group][phase]
            rows.append([group, phase, get_cost, put_cost])
    blocks.append(
        format_table(
            ["group", "phase", "GET VOP/unit", "PUT VOP/unit"],
            rows,
            title="mean per-request cost profiles (group labels are the *initial* roles)",
        )
    )
    return "\n\n".join(blocks)
