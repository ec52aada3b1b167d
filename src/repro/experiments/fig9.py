"""Figure 9: allocation accuracy per cost model.

Reruns the Figure 7 workload grid — plus read-read and write-write
pairings — under each of the five cost models, and summarizes two
accuracies per (model, workload class):

- **IOP insulation MMR**: min-max ratio of per-tenant IOP throughput
  ratios — how well the model's notion of cost translates into fair
  *physical* throughput;
- **VOP allocation MMR**: min-max ratio of per-tenant VOP consumption
  as charged by the scheduler's own model — how faithfully the
  scheduler enforces the shares it is asked to enforce.

Expected shape: exact and fitted lead both metrics (median ≈ 0.9+ /
0.98); linear trails on insulation (mid-size deviation); constant keeps
rough balance but over-charges; fixed skews toward large-IOP tenants.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, List, Optional, Tuple

from ..obs.metrics import mmr, percentile
from ..analysis.report import format_table
from ..core.capacity import reference_capacity
from ..core.tags import OpKind
from ..core.vop import COST_MODEL_NAMES
from ..ssd import get_profile
from ..workload.iobench import DeviceEnv, TenantSpec, isolated_iops, run_raw_trial
from .common import ExperimentMode, mode_for, parallel_map

__all__ = ["run", "render", "Fig9Result"]

CATEGORIES = ("rr", "ww", "rw")


@dataclass
class Fig9Result:
    profile: str
    mode: str
    #: (model, category) -> list of (iop insulation MMR, vop alloc MMR)
    samples: Dict[Tuple[str, str], List[Tuple[float, float]]]

    def summary(self, model: str, category: str, which: int) -> Tuple[float, float, float]:
        """(median, min, max) of one metric (0=IOP, 1=VOP)."""
        values = [s[which] for s in self.samples[(model, category)]]
        return percentile(values, 50), min(values), max(values)


def equal_shares(
    profile_name: str, category: str, size_a: int, size_b: int
) -> Tuple[List[TenantSpec], Dict[str, float]]:
    """One workload pairing's eight tenants, each allocated an equal
    eighth of the profile's VOP floor.

    ``rw`` pits four ``size_a`` readers against four ``size_b``
    writers; ``rr``/``ww`` pit four ``size_a`` tenants against four
    ``size_b`` tenants of the same kind.
    """
    if category == "rw":
        groups = (("r", 1.0, size_a, size_b), ("w", 0.0, size_a, size_b))
    else:
        fraction = 1.0 if category == "rr" else 0.0
        groups = (("a", fraction, size_a, size_a), ("b", fraction, size_b, size_b))
    specs = [
        TenantSpec(f"{prefix}{i}", read_fraction, read_size=read_size, write_size=write_size)
        for prefix, read_fraction, read_size, write_size in groups
        for i in range(4)
    ]
    floor = reference_capacity(profile_name).floor_vops
    return specs, {s.name: floor / len(specs) for s in specs}


def equal_share_trial(
    profile_name: str,
    category: str,
    size_a: int,
    size_b: int,
    env: DeviceEnv,
    duration: float,
    warmup: float,
    seed: int,
    cost_model: str,
) -> Tuple[TrialResult, Dict[str, float]]:
    """Run one :func:`equal_shares` pairing on ``env``.

    Returns the trial and each tenant's IOP throughput ratio: its
    achieved op/s over its expected share (isolated rate / 8).
    """
    specs, allocations = equal_shares(profile_name, category, size_a, size_b)
    trial = run_raw_trial(
        get_profile(profile_name),
        specs,
        duration=duration,
        warmup=warmup,
        seed=seed,
        cost_model=cost_model,
        allocations=allocations,
        env=env,
    )
    ratios = {}
    for name, tenant in trial.tenants.items():
        spec = tenant.spec
        kind = OpKind.READ if spec.read_fraction == 1.0 else OpKind.WRITE
        size = spec.read_size if kind == OpKind.READ else spec.write_size
        expected = isolated_iops(profile_name, kind, size) / len(specs)
        ratios[name] = tenant.iops_per_sec(trial.duration) / expected
    return trial, ratios


def _model_samples(args) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """One cost model's whole workload grid (the unit of parallelism).

    Each model already ran on its own freshly seeded device env before
    this figure was parallelized, so fanning models out over workers
    reproduces the serial trajectory exactly.
    """
    profile_name, model, sizes, duration, warmup, seed = args
    env = DeviceEnv(get_profile(profile_name), seed=seed)
    samples: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for category in CATEGORIES:
        pairs: List[Tuple[int, int]] = (
            [(a, b) for a in sizes for b in sizes]
            if category == "rw"
            else list(combinations_with_replacement(sizes, 2))
        )
        for size_a, size_b in pairs:
            trial, iop_ratios = equal_share_trial(
                profile_name, category, size_a, size_b, env, duration, warmup,
                seed, model,
            )
            vop_rates = [t.vops for t in trial.tenants.values()]
            samples.setdefault((model, category), []).append(
                (mmr(iop_ratios.values()), mmr(vop_rates))
            )
    return samples


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 7,
    jobs: int = 1,
    mode: Optional[ExperimentMode] = None,
) -> Fig9Result:
    """Regenerate Figure 9 (workload grid × five cost models).

    ``jobs`` fans the five cost models out over worker processes; the
    merged result is byte-identical for any ``jobs``.
    """
    mode = mode or mode_for(quick)
    tasks = [
        (profile_name, model, tuple(mode.sizes), mode.duration, mode.warmup, seed)
        for model in COST_MODEL_NAMES
    ]
    samples: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for model_samples in parallel_map(_model_samples, tasks, jobs=jobs):
        samples.update(model_samples)
    return Fig9Result(profile=profile_name, mode=mode.name, samples=samples)


def render(result: Fig9Result) -> str:
    blocks = [
        f"Figure 9 — allocation accuracy by cost model, "
        f"{result.profile} ({result.mode})"
    ]
    panels = ((0, "IOP insulation accuracy (MMR)"), (1, "VOP allocation accuracy (MMR)"))
    for which, label in panels:
        rows = []
        for model in COST_MODEL_NAMES:
            row: List[object] = [model]
            for category in CATEGORIES:
                med, lo, hi = result.summary(model, category, which)
                row.append(f"{med:.2f} [{lo:.2f},{hi:.2f}]")
            rows.append(row)
        blocks.append(
            format_table(
                ["model", "read-read", "write-write", "read-write"],
                rows,
                title=label + "  (median [min,max])",
            )
        )
    return "\n\n".join(blocks)
