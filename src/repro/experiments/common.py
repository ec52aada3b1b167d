"""Shared experiment scaffolding.

Every figure module exposes ``run(quick=True, ...) -> result`` and
``render(result) -> str``.  ``quick`` mode trims grids and measurement
windows so the full suite regenerates in minutes; ``full`` mode matches
the paper's grids (every power-of-two size from 1 KB to 256 KB, all six
mix ratios) at longer windows.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from ..faults import StorageFault

__all__ = [
    "ExperimentMode",
    "QUICK",
    "FULL",
    "size_label",
    "KIB",
    "MIB",
    "derive_seed",
    "parallel_map",
    "count_lost",
    "value_size",
]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class ExperimentMode:
    """Grid densities and window lengths for an experiment run."""

    name: str
    sizes: Sequence[int]
    #: read fraction per mixed-ratio experiment; None = exclusive halves
    ratios: Sequence[Optional[float]]
    sigmas: Sequence[int]
    duration: float
    warmup: float
    #: steady-state horizon for the KV time-series experiments
    kv_horizon: float

    def label(self) -> str:
        return self.name


QUICK = ExperimentMode(
    name="quick",
    sizes=tuple(2**i * KIB for i in (0, 2, 4, 6, 8)),  # 1,4,16,64,256 KB
    ratios=(None, 0.99, 0.75, 0.5, 0.25, 0.01),
    sigmas=(4 * KIB, 32 * KIB),
    duration=0.4,
    warmup=0.15,
    kv_horizon=60.0,
)

FULL = ExperimentMode(
    name="full",
    sizes=tuple(2**i * KIB for i in range(9)),  # 1..256 KB
    ratios=(None, 0.99, 0.75, 0.5, 0.25, 0.01),
    sigmas=(4 * KIB, 32 * KIB, 256 * KIB),
    duration=0.8,
    warmup=0.2,
    kv_horizon=120.0,
)


def mode_for(quick: bool) -> ExperimentMode:
    return QUICK if quick else FULL


def size_label(size: int) -> str:
    """1024 -> '1K', 262144 -> '256K'."""
    return f"{size // KIB}K"


def ratio_label(ratio: Optional[float]) -> str:
    """Read fraction -> the paper's 'R:W' labels (None = '1:1 mix')."""
    if ratio is None:
        return "1:1-mix"
    r = int(round(ratio * 100))
    return f"{r}:{100 - r}"


def value_size(op_index: int) -> int:
    """Deterministic per-write object size: ``op_index`` picks one of
    seven sizes 512 bytes apart, so a stale or misrouted read comes back
    at the wrong size and cannot hide."""
    return 2048 + (op_index % 7) * 512


def count_lost(read, expected: Dict[int, int]):
    """DES generator: read every acknowledged write back, in sorted key
    order; returns how many keys fail or come back at another size.

    ``read(key)`` is a generator returning the stored size;
    ``expected`` maps each acknowledged key to its last acknowledged
    size.
    """
    missing = 0
    for key in sorted(expected):
        try:
            size = yield from read(key)
        except StorageFault:
            size = None
        if size != expected[key]:
            missing += 1
    return missing


# ---------------------------------------------------------------------------
# Parallel grid execution
# ---------------------------------------------------------------------------

_T = TypeVar("_T")
_R = TypeVar("_R")


def derive_seed(seed: int, index: int) -> int:
    """Mix a work-unit index into a base seed, deterministically.

    Grid cells that run in their own simulation environment get
    ``derive_seed(seed, cell_index)`` so (a) no two cells share an RNG
    stream and (b) the derived seed depends only on ``(seed, index)`` —
    never on which worker process computed the cell or in what order.
    A splitmix-style integer mix keeps nearby indices uncorrelated.
    """
    x = (seed & 0xFFFFFFFF) ^ ((0x9E3779B9 * (index + 1)) & 0xFFFFFFFF)
    x = ((x ^ (x >> 16)) * 0x85EBCA6B) & 0xFFFFFFFF
    x = ((x ^ (x >> 13)) * 0xC2B2AE35) & 0xFFFFFFFF
    return (x ^ (x >> 16)) & 0x7FFFFFFF


def _effective_jobs(jobs: Optional[int], n_items: int) -> int:
    """Worker count after clamping to the work and the machine.

    Requesting more workers than the host has CPUs never helps a
    CPU-bound grid — the workers time-slice one another and the fork /
    IPC overhead is pure loss (``--jobs 4`` on a 1-CPU container
    benchmarked *slower* than serial).  The clamp is
    ``min(jobs, n_items, os.cpu_count())``; a result of ≤ 1 falls back
    to the plain serial loop.
    """
    if jobs is None or jobs <= 1:
        return 1
    return min(jobs, n_items, os.cpu_count() or 1)


def parallel_map(fn: Callable[[_T], _R], items: Sequence[_T], jobs: int = 1) -> List[_R]:
    """Ordered map over independent work units, optionally multiprocess.

    The contract every figure grid relies on:

    - each item is self-contained (module-level ``fn``, picklable args,
      its own simulator/device seeded from the item itself), so results
      do not depend on which worker runs them;
    - results come back **in input order** regardless of completion
      order (``Pool.map`` preserves it), so the merged output — and the
      rendered report — is byte-identical to a ``jobs=1`` run.

    ``jobs`` is clamped to the item count and the host's CPU count
    (:func:`_effective_jobs`); an effective count of 1 short-circuits to
    a plain in-process loop, so the serial path stays free of
    multiprocessing overhead and import-time side effects, and is the
    reference the parallel path is tested against.
    """
    items = list(items)
    effective = _effective_jobs(jobs, len(items))
    if effective <= 1:
        return [fn(item) for item in items]
    # Prefer fork (cheap, inherits the loaded modules); fall back to the
    # platform default (spawn) where fork is unavailable.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ctx.Pool(processes=effective) as pool:
        return pool.map(fn, items)
