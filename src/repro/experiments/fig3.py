"""Figure 3: SSD IOP/s and bandwidth vs op size (random and sequential).

Runs backlogged pure read and pure write sweeps at queue depth 32 over
the op-size grid, in both random-access and sequential-access modes,
and reports op/s and MB/s per point.  Expected shape: IOP throughput
peaks at small sizes (controller bound) and decays sub-linearly;
bandwidth saturates around 64 KB for reads and 32 KB for writes;
sequential is no worse than random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from ..analysis.report import format_table
from ..core.tags import OpKind
from ..sim import Simulator
from ..ssd import get_profile, make_device
from .common import MIB, mode_for, size_label

__all__ = ["run", "render"]


@dataclass
class Fig3Result:
    profile: str
    mode: str
    #: (kind, access, size) -> (iops, bandwidth bytes/s)
    points: Dict[Tuple[str, str, int], Tuple[float, float]]


def _sweep_point(sim, device, kind: OpKind, size: int, sequential: bool,
                 duration: float, warmup: float, seed: int) -> Tuple[float, float]:
    profile = device.profile
    rng = random.Random(seed)
    page = profile.page_size
    max_slot = (profile.logical_capacity - size) // page
    start = sim.now
    horizon = start + warmup + duration
    done = {"n": 0}
    seq_cursor = {"off": 0}

    def next_offset() -> int:
        if sequential:
            off = seq_cursor["off"]
            seq_cursor["off"] = (off + size) % (max_slot * page)
            return (off // page) * page
        return rng.randrange(0, max_slot) * page

    def worker():
        while sim.now < horizon:
            off = next_offset()
            if kind == OpKind.READ:
                yield device.read(off, size)
            else:
                yield device.write(off, size)
            if sim.now >= start + warmup:
                done["n"] += 1

    for _ in range(profile.queue_depth):
        sim.process(worker())
    sim.run(until=horizon)
    iops = done["n"] / duration
    return iops, iops * size


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 21, jobs: int = 1
) -> Fig3Result:
    """Regenerate Figure 3 for one device profile.

    ``jobs`` is accepted for CLI uniformity but unused: the sweep
    deliberately reuses one continuously aging device across all points
    (like benchmarking a single physical drive), so the points form one
    sequential chain.
    """
    mode = mode_for(quick)
    profile = get_profile(profile_name)
    sim = Simulator()
    device = make_device(sim, profile, seed=seed)
    points = {}
    for kind in (OpKind.READ, OpKind.WRITE):
        for access, sequential in (("rand", False), ("seq", True)):
            for size in mode.sizes:
                points[(kind.value, access, size)] = _sweep_point(
                    sim, device, kind, size, sequential,
                    mode.duration, mode.warmup, seed,
                )
    return Fig3Result(profile=profile_name, mode=mode.name, points=points)


def render(result: Fig3Result) -> str:
    sizes = sorted({s for (_k, _a, s) in result.points})
    rows = []
    for size in sizes:
        row = [size_label(size)]
        for kind in ("read", "write"):
            for access in ("rand", "seq"):
                iops, bw = result.points[(kind, access, size)]
                row += [iops / 1e3, bw / MIB]
        rows.append(row)
    headers = [
        "size",
        "rd-rand kop/s", "rd-rand MB/s", "rd-seq kop/s", "rd-seq MB/s",
        "wr-rand kop/s", "wr-rand MB/s", "wr-seq kop/s", "wr-seq MB/s",
    ]
    return format_table(
        headers, rows,
        title=f"Figure 3 — {result.profile} IO performance vs op size ({result.mode})",
    )
