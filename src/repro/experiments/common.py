"""Shared experiment scaffolding.

Every figure module exposes ``run(quick=True, ...) -> result`` and
``render(result) -> str``.  ``quick`` mode trims grids and measurement
windows so the full suite regenerates in minutes; ``full`` mode matches
the paper's grids (every power-of-two size from 1 KB to 256 KB, all six
mix ratios) at longer windows.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from ..core.policy import Reservation
from ..core.tags import IoTag, OpKind
from ..faults import StorageFault
from ..node import NodeConfig, StorageNode
from ..sim import Simulator
from ..ssd import get_profile
from ..workload.generator import KvLoad, KvTenantSpec, bootstrap_tenant, start_kv_load

__all__ = [
    "ExperimentMode",
    "QUICK",
    "FULL",
    "size_label",
    "KIB",
    "MIB",
    "derive_seed",
    "parallel_map",
    "check_schedule",
    "AckedWrites",
    "value_size",
    "kv_node",
    "stack_point",
    "demand_vops",
    "rpc_round_trips",
    "write_amplification",
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


QUICK = ExperimentMode(
    name="quick",
    sizes=tuple(2**i * KIB for i in (0, 2, 4, 6, 8)),  # 1,4,16,64,256 KB
    ratios=(None, 0.99, 0.75, 0.5, 0.25, 0.01),
    sigmas=(4 * KIB, 32 * KIB),
    duration=0.4,
    warmup=0.15,
)

FULL = ExperimentMode(
    name="full",
    sizes=tuple(2**i * KIB for i in range(9)),  # 1..256 KB
    ratios=(None, 0.99, 0.75, 0.5, 0.25, 0.01),
    sigmas=(4 * KIB, 32 * KIB, 256 * KIB),
    duration=0.8,
    warmup=0.2,
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


def check_schedule(schedule, rules: Sequence[Tuple[str, bool, str]]) -> None:
    """Refuse a schedule dataclass with a time that is not finite and
    >= 0 (a negative sleep), or that breaks one of its ``(field, ok,
    requirement)`` rules (a window the run reads that would be empty or
    reversed).  The ``ValueError`` names the field."""
    owner = type(schedule).__name__
    for spec in fields(schedule):
        value = getattr(schedule, spec.name)
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{owner}.{spec.name} {value!r} must be finite and >= 0")
    for name, ok, requirement in rules:
        if not ok:
            raise ValueError(
                f"{owner}.{name} {getattr(schedule, name)!r} must be {requirement}"
            )


class AckedWrites:
    """Acknowledged writes per group, and their read-back verdict.

    A group is whatever owns a key range (a tenant, a client side);
    ``expected[group]`` maps each acknowledged key to its last
    acknowledged size.  A group whose read-back has not finished counts
    as all lost, so an unfinished verification can never pass as clean.
    """

    def __init__(self, groups: Iterable[str]):
        self.expected: Dict[str, Dict[int, int]] = {group: {} for group in groups}
        self._lost: Dict[str, int] = {}

    def ack(self, group: str, key: int, size: int) -> None:
        self.expected[group][key] = size

    def read_back(self, group: str, read):
        """DES generator: read ``group``'s acknowledged writes back in
        sorted key order (``read(key)`` returns the stored size) and
        count the keys that fail or come back at another size."""
        expected = self.expected[group]
        missing = 0
        for key in sorted(expected):
            try:
                size = yield from read(key)
            except StorageFault:
                size = None
            if size != expected[key]:
                missing += 1
        self._lost[group] = missing

    def verify(self, sim: Simulator, read, name: str, until: float) -> None:
        """Read every group back, one process per group (``name.group``),
        with ``read(group, key)``; runs the simulation to ``until``."""
        for group in self.expected:
            sim.process(
                self.read_back(group, lambda key, group=group: read(group, key)),
                name=f"{name}.{group}",
            )
        sim.run(until=until)

    def lost(self, group: str) -> int:
        return self._lost.get(group, len(self.expected[group]))

    @property
    def verified(self) -> bool:
        """Whether every group's read-back finished."""
        return len(self._lost) == len(self.expected)


def kv_node(sim: Simulator, profile_name: str, seed: int, **kwargs) -> StorageNode:
    """A storage node on a 768 MiB device of ``profile_name``: room for
    every KV experiment's data plus LSM slack."""
    return StorageNode(
        sim, profile=get_profile(profile_name).with_capacity(768 * MIB), seed=seed, **kwargs
    )


def stack_point(
    profile_name: str,
    capacity_vops: float,
    get_fraction: float,
    get_size: int,
    put_size: int,
    sigma: int,
    horizon: float,
    warmup: float,
    seed: int,
    note: Callable[[IoTag, OpKind, float], None],
) -> None:
    """One backlogged single-tenant KV workload on a fresh 768 MiB node.

    Eight workers issue ``get_fraction`` GETs of ``get_size`` and PUTs
    of ``put_size`` over uniform keys, in separate regions when the
    sizes differ; the GET region is preloaded so lookups hit indexed
    data from the start.  ``note(tag, kind, cost)`` sees every IO the
    scheduler charges between ``warmup`` and ``horizon``.
    """
    sim = Simulator()
    node = kv_node(sim, profile_name, seed, config=NodeConfig(capacity_vops=capacity_vops))
    measuring = False
    downstream = node.tracker.note_io

    def observer(tag, kind, size, cost):
        downstream(tag, kind, size, cost)
        if measuring:
            note(tag, kind, cost)

    node.scheduler.io_observer = observer
    # Keyspace sized to ~10% of the device so data plus LSM slack fits.
    n_keys = max(min(96 * MIB // max(get_size, put_size), 8000), 256)
    spec = KvTenantSpec(
        name="t0", get_fraction=get_fraction, get_size=get_size, put_size=put_size,
        sigma=sigma, n_keys=n_keys, workers=8, reservation=Reservation(gets=1, puts=1),
        separate_regions=get_size != put_size,
    )
    node.add_tenant(spec.name, spec.reservation)
    if get_fraction > 0:
        preload = n_keys // 2 if spec.separate_regions else n_keys
        bootstrap_tenant(node.engines[spec.name], preload, get_size)
    start_kv_load(KvLoad(sim, node, [spec]), horizon=horizon, seed=seed)
    sim.run(until=warmup)
    measuring = True
    sim.run(until=horizon)


# ---------------------------------------------------------------------------
# Cluster-wide tallies
# ---------------------------------------------------------------------------


def demand_vops(cluster) -> float:
    """Libra's VOP demand estimate, summed over every node and tenant."""
    return sum(
        sum(node.policy.estimated_demand().values())
        for node in cluster.nodes.values()
    )


def rpc_round_trips(cluster, clients: Iterable) -> int:
    """Completed RPC round trips over the replica services and clients."""
    return sum(
        service.rpc.stats.round_trips for service in cluster.services.values()
    ) + sum(client.rpc.stats.round_trips for client in clients)


def write_amplification(cluster, tenants: Iterable[str], acked: int) -> float:
    """Cluster-wide durable WAL records per acknowledged write."""
    durable = sum(
        sum(cluster.durable_record_counts(tenant).values()) for tenant in tenants
    )
    return round(durable / acked, 6) if acked else 0.0


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
