"""Figure 2: app-request IO consumption vs request size.

A single backlogged tenant runs a 50:50 GET/PUT workload over uniform
keys at each request size; the harness measures steady-state VOP/s
broken down by component: GET read IO, PUT write IO (WAL), FLUSH
read/write IO, COMPACT read/write IO.  The final point reproduces the
paper's split workload — 32K GETs against a pre-existing indexed region
while 128K PUTs stress a different region — where GET amplification
collapses to a single-file probe.

Expected shape: PUT (WAL) IO dominates at small sizes; its share falls
as cost-per-byte drops with size; FLUSH stays roughly constant;
COMPACT grows with write bandwidth; GET IO swells at large request
sizes (more eligible files) except in the split workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..analysis.report import format_table
from ..core.tags import InternalOp, IoTag, OpKind, RequestClass
from .common import KIB, parallel_map, size_label, stack_point

__all__ = ["run", "render", "Fig2Result", "COMPONENTS"]

COMPONENTS = (
    "GET read IO",
    "PUT write IO",
    "FLUSH read IO",
    "FLUSH write IO",
    "COMPACT read IO",
    "COMPACT write IO",
)


@dataclass
class Fig2Result:
    profile: str
    #: point label -> component -> VOP/s
    points: Dict[str, Dict[str, float]]


def _component(tag: IoTag, kind: OpKind) -> Optional[str]:
    if tag.internal == InternalOp.FLUSH:
        return f"FLUSH {kind.value} IO"
    if tag.internal == InternalOp.COMPACT:
        return f"COMPACT {kind.value} IO"
    if tag.request == RequestClass.GET:
        return "GET read IO"
    if tag.request in (RequestClass.PUT, RequestClass.DELETE):
        return "PUT write IO"
    return None


def _point(args) -> Dict[str, float]:
    """One workload point on its own simulator (the unit of parallelism)."""
    profile_name, get_size, put_size, horizon, warmup, seed = args
    breakdown: Dict[str, float] = {c: 0.0 for c in COMPONENTS}

    def note(tag, kind, cost):
        component = _component(tag, kind)
        if component is not None:
            breakdown[component] += cost

    stack_point(
        profile_name, capacity_vops=26_000.0, get_fraction=0.5, get_size=get_size,
        put_size=put_size, sigma=0, horizon=horizon, warmup=warmup, seed=seed, note=note,
    )
    duration = horizon - warmup
    return {c: v / duration for c, v in breakdown.items()}


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 5,
    jobs: int = 1,
) -> Fig2Result:
    """Regenerate the Figure 2 amplification breakdown.

    Every point runs on a fresh simulator, so ``jobs`` fans them out
    over worker processes with byte-identical merged results.
    """
    sizes = (
        [1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 128 * KIB]
        if quick
        else [1 * KIB, 4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB, 64 * KIB, 128 * KIB]
    )
    horizon = 20.0 if quick else 40.0
    warmup = 8.0 if quick else 15.0
    labels = [size_label(size) for size in sizes] + ["32K/128K"]
    tasks = [(profile_name, size, size, horizon, warmup, seed) for size in sizes]
    tasks.append((profile_name, 32 * KIB, 128 * KIB, horizon, warmup, seed))
    results = parallel_map(_point, tasks, jobs=jobs)
    return Fig2Result(profile=profile_name, points=dict(zip(labels, results)))


def render(result: Fig2Result) -> str:
    rows = []
    for label, comps in result.points.items():
        rows.append(
            [label]
            + [comps[c] / 1e3 for c in COMPONENTS]
            + [sum(comps.values()) / 1e3]
        )
    return format_table(
        ["req size"] + [c.replace(" IO", "") for c in COMPONENTS] + ["total"],
        rows,
        title=(
            f"Figure 2 — app-request VOP consumption (kop/s) by component, "
            f"50:50 GET/PUT, {result.profile}"
        ),
    )
