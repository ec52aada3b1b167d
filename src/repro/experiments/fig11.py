"""Figure 11: achieving app-request reservations, with and without
resource-profile tracking.

Timeline (compressed from the paper's 100-300 s):

1. probe phase under equal shares → derive evenly-dividing reservations;
2. steady phase: every group should meet its reservation;
3. reservation change: read-heavy tenants -50%, write-heavy +50%,
   mixed unchanged.

With profile tracking, Libra reprovisions VOPs for the *full* amplified
request cost and the write-heavy tenants reach their new reservations.
Without tracking ("No Profile"), allocations cover only direct object
IO; the write-heavy tenants fall short of their raised reservations
because FLUSH/COMPACT consumption is unprovisioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.report import format_table
from ..core.policy import Reservation
from .common import parallel_map
from .kvdynamic import build_scenario, derive_reservations, group_of

__all__ = ["run", "render", "Fig11Result"]

#: reservation scale at the change point, per group (the paper's ±50%)
CHANGE = {"read-heavy": 0.5, "mixed": 1.0, "write-heavy": 1.5}


@dataclass
class Fig11Result:
    profile: str
    #: variant ('tracking'|'no-profile') -> group -> phase ->
    #: (get rate, get reservation, put rate, put reservation), rates
    #: aggregated over the group's tenants (as the paper's plots are)
    phases: Dict[str, Dict[str, Dict[str, Tuple[float, float, float, float]]]]

    def satisfied(self, variant: str, group: str, phase: str, slack: float = 0.9) -> bool:
        """Reservation met on combined normalized units.

        Libra provisions VOPs for the reservation but "does not impose a
        request-specific VOP limit; tenants can freely consume their VOP
        allocation according to any GET/PUT distribution" (§6.4) — and a
        throttled closed-loop tenant's achieved mix drifts toward PUTs
        (its GETs queue at the device).  So the pass criterion compares
        total normalized request units against the total reserved.
        """
        gets, get_res, puts, put_res = self.phases[variant][group][phase]
        return (gets + puts) >= (get_res + put_res) * slack

    def satisfaction(self, variant: str, group: str, phase: str) -> float:
        """Achieved / reserved, on combined normalized units."""
        gets, get_res, puts, put_res = self.phases[variant][group][phase]
        reserved = get_res + put_res
        return (gets + puts) / reserved if reserved > 0 else 1.0


def _run_variant(
    track_indirect: bool,
    profile_name: str,
    probe_end: float,
    change_at: float,
    end_at: float,
    seed: int,
) -> Dict[str, Dict[str, Tuple[float, float, float, float]]]:
    sim, node, load = build_scenario(
        profile_name, track_indirect=track_indirect, seed=seed
    )
    from ..workload.generator import start_kv_load

    start_kv_load(load, horizon=end_at, seed=seed)
    sim.run(until=probe_end)
    reservations = derive_reservations(
        node.capacity_vops, load.series, [spec.name for spec in load.specs],
        (probe_end * 2 / 3, probe_end),
    )
    for tenant, reservation in reservations.items():
        node.set_reservation(tenant, reservation)
    sim.run(until=change_at)
    changed = {
        tenant: reservation.scaled(CHANGE[group_of(tenant)])
        for tenant, reservation in reservations.items()
    }
    for tenant, reservation in changed.items():
        node.set_reservation(tenant, reservation)
    sim.run(until=end_at)
    node.stop()

    steady_window = (change_at - (change_at - probe_end) / 2, change_at)
    changed_window = (end_at - (end_at - change_at) / 2, end_at)
    out = {}
    groups = sorted({group_of(spec.name) for spec in load.specs})
    for group in groups:
        members = [spec.name for spec in load.specs if group_of(spec.name) == group]

        def phase_tuple(window, res_map):
            gets = sum(load.series[f"get:{m}"].window_mean(*window) for m in members)
            puts = sum(load.series[f"put:{m}"].window_mean(*window) for m in members)
            res_g = sum(res_map[m].gets for m in members)
            res_p = sum(res_map[m].puts for m in members)
            return gets, res_g, puts, res_p

        out[group] = {
            "steady": phase_tuple(steady_window, reservations),
            "changed": phase_tuple(changed_window, changed),
        }
    return out


def _variant(args) -> Dict[str, Dict[str, Tuple[float, float, float, float]]]:
    """One tracking variant on its own node (the unit of parallelism)."""
    return _run_variant(*args)


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 17, jobs: int = 1
) -> Fig11Result:
    """Regenerate Figure 11 (both variants).

    The two variants are independent scenarios; ``jobs >= 2`` runs them
    concurrently with byte-identical merged results.
    """
    if quick:
        probe_end, change_at, end_at = 35.0, 70.0, 105.0
    else:
        probe_end, change_at, end_at = 60.0, 140.0, 220.0
    tasks = [
        (True, profile_name, probe_end, change_at, end_at, seed),
        (False, profile_name, probe_end, change_at, end_at, seed),
    ]
    tracking, no_profile = parallel_map(_variant, tasks, jobs=jobs)
    return Fig11Result(
        profile=profile_name, phases={"tracking": tracking, "no-profile": no_profile}
    )


def render(result: Fig11Result) -> str:
    blocks = [f"Figure 11 — app-request reservations, {result.profile}"]
    for variant, groups in result.phases.items():
        rows = []
        for group in sorted(groups):
            for phase in ("steady", "changed"):
                gets, get_res, puts, put_res = groups[group][phase]
                rows.append(
                    [
                        group,
                        phase,
                        gets, get_res,
                        puts, put_res,
                        "yes" if result.satisfied(variant, group, phase) else "NO",
                    ]
                )
        blocks.append(
            format_table(
                ["group", "phase",
                 "GET/s", "GET res", "PUT/s", "PUT res", "met(>=90%)"],
                rows,
                title=f"[{variant}] group-aggregate normalized (1KB) request rates",
            )
        )
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover
    print(render(run(quick=True)))
