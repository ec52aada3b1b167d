"""Key-value workload drivers for the full-stack experiments.

Closed-loop tenant drivers issue GET/PUT requests against a
``StorageNode`` (or router) with the paper's workload parameters:
GET/PUT mix ratio, log-normal request sizes, uniform or Zipfian key
popularity, and a bounded worker pool per tenant.  A sampler process
records per-interval normalized throughput and cost profiles for the
time-series figures (11-12).

``bootstrap_tenant`` pre-populates a tenant's tree with an L1 of
indexed data files *without* simulating the load IO — the "pre-existing
indexed data file" state §3.1's last workload relies on — by building
table metadata directly and allocating (but not writing) file extents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..analysis.timeseries import SeriesSet
from ..core.policy import Reservation
from ..core.tags import InternalOp, RequestClass
from ..engine import INDEX_ENTRY_BYTES, LsmEngine, SsTable
from ..engine.sstable import BLOCK_SIZE
from ..node.server import StorageNode
from ..sim import Simulator
from .distributions import BlockStream, LogNormalSize, Uniform01, UniformKeys

__all__ = ["KvTenantSpec", "KvLoad", "bootstrap_tenant", "start_kv_load"]

KIB = 1024


@dataclass(frozen=True)
class KvTenantSpec:
    """One tenant's KV workload + reservation."""

    name: str
    get_fraction: float
    get_size: int
    put_size: int
    sigma: float = 1 * KIB
    n_keys: int = 4000
    workers: int = 4
    reservation: Reservation = field(default_factory=Reservation)
    #: GETs sample keys from [0, get_key_fraction * n_keys); PUTs from
    #: the complementary tail when separate_regions is set (the §3.1
    #: "different regions" workload).
    separate_regions: bool = False
    #: offset added to every key — lets one tenant host disjoint
    #: keyspace regions for different workload shapes (Fig 12 swaps)
    key_base: int = 0

    def key_sampler(self):
        return UniformKeys(self.n_keys)


class KvLoad:
    """Handle for a running KV load: workers + sampler + series."""

    def __init__(self, sim: Simulator, node: StorageNode, specs: Sequence[KvTenantSpec]):
        self.sim = sim
        self.node = node
        self.specs = list(specs)
        self.series = SeriesSet()
        self.horizon: float = 0.0
        self._spec_by_name = {s.name: s for s in specs}

    def spec(self, name: str) -> KvTenantSpec:
        return self._spec_by_name[name]

    def retarget(self, spec: KvTenantSpec) -> None:
        """Swap a tenant's workload parameters mid-run (Fig 12 swaps).

        Workers read their spec through this handle each iteration, so
        the change takes effect on their next request.
        """
        if spec.name not in self._spec_by_name:
            raise KeyError(f"unknown tenant {spec.name!r}")
        self._spec_by_name[spec.name] = spec


def bootstrap_tenant(
    engine: LsmEngine, n_keys: int, value_size: int, key_base: int = 0
) -> None:
    """Instantly install an L1 of indexed files holding every key.

    Emulates a tenant whose data was loaded long ago: GETs find their
    key after probing a single indexed file.  Extents are allocated but
    not written (reads of never-written pages behave like any mapped
    page at the device level).
    """
    max_file_bytes = engine.config.max_output_file_bytes
    per_file = max(max_file_bytes // value_size, 16)
    tables: List[SsTable] = []
    key = 0
    while key < n_keys:
        keys = list(range(key_base + key, key_base + min(key + per_file, n_keys)))
        sizes = [value_size] * len(keys)
        index_region = (
            (len(keys) * INDEX_ENTRY_BYTES + BLOCK_SIZE - 1) // BLOCK_SIZE
        ) * BLOCK_SIZE
        offsets = []
        pos = index_region
        for size in sizes:
            offsets.append(pos)
            pos += size
        file = engine.fs.create(engine._next_file_name())
        engine.fs._extend(file, pos)
        file.size = pos
        tables.append(SsTable(file, keys, sizes, offsets, len(keys) * INDEX_ENTRY_BYTES))
        key += per_file
    engine.version.install(1, tables)


def start_kv_load(
    load: KvLoad,
    horizon: float,
    seed: int = 13,
    sample_interval: float = 1.0,
) -> KvLoad:
    """Spawn tenant workers and the throughput/profile sampler.

    Records, per tenant and interval: normalized GET/s and PUT/s
    (``get:<t>`` / ``put:<t>``), the tenant's VOP allocation
    (``alloc:<t>``), and its current PUT cost breakdown
    (``cost:PUT:<t>``, ``cost:PUT:FLUSH:<t>``, ``cost:PUT:COMPACT:<t>``)
    and GET cost (``cost:GET:<t>``).
    """
    sim, node = load.sim, load.node
    load.horizon = horizon
    rng = random.Random(seed)

    samplers: Dict[int, Tuple] = {}

    def spec_streams(spec: KvTenantSpec) -> Tuple:
        """Batched key/size/mix streams, cached per spec object
        (retarget-aware).

        All streams share the load's one seeded RNG, so draws interleave
        in request order; batching refills each stream a block at a time
        instead of paying a sampler call per request.
        """
        cached = samplers.get(id(spec))
        if cached is None:
            cached = (
                BlockStream(spec.key_sampler(), rng),
                BlockStream(LogNormalSize(spec.put_size, spec.sigma), rng),
                BlockStream(Uniform01(), rng),
            )
            samplers[id(spec)] = cached
        return cached

    def worker(tenant: str):
        while sim.now < load.horizon:
            # Re-read the spec each request so retarget() takes effect.
            spec = load.spec(tenant)
            keys, put_sizes, mix = spec_streams(spec)
            key = keys.next()
            if spec.separate_regions:
                key = key % (spec.n_keys // 2)
            if mix.next() < spec.get_fraction:
                # GETs stay in the (preloaded) lower half of the keyspace.
                yield from node.get(tenant, spec.key_base + key)
            else:
                if spec.separate_regions:
                    key += spec.n_keys // 2  # PUTs stress the tail
                yield from node.put(tenant, spec.key_base + key, put_sizes.next())

    def sampler():
        baselines = {
            spec.name: node.stats(spec.name).snapshot() for spec in load.specs
        }
        vop_baselines = {
            spec.name: node.scheduler.usage(spec.name).snapshot()
            for spec in load.specs
        }
        while sim.now < load.horizon:
            yield sim.timeout(sample_interval)
            load.series.add("scale", sim.now, node.policy.last_scale)
            for spec in load.specs:
                tenant = spec.name
                current = node.stats(tenant)
                delta = current.delta(baselines[tenant])
                baselines[tenant] = current.snapshot()
                usage = node.scheduler.usage(tenant)
                vop_delta = usage.delta(vop_baselines[tenant])
                vop_baselines[tenant] = usage.snapshot()
                load.series.add(f"get:{tenant}", sim.now, delta.get_units / sample_interval)
                load.series.add(f"put:{tenant}", sim.now, delta.put_units / sample_interval)
                load.series.add(f"vops:{tenant}", sim.now, vop_delta.vops / sample_interval)
                load.series.add(f"alloc:{tenant}", sim.now, node.scheduler.allocation(tenant))
                get_profile = node.tracker.profile(tenant, RequestClass.GET)
                put_profile = node.tracker.profile(tenant, RequestClass.PUT)
                load.series.add(f"cost:GET:{tenant}", sim.now, get_profile.total)
                load.series.add(f"cost:PUT:{tenant}", sim.now, put_profile.direct)
                load.series.add(
                    f"cost:PUT:FLUSH:{tenant}",
                    sim.now,
                    put_profile.indirect.get(InternalOp.FLUSH, 0.0),
                )
                load.series.add(
                    f"cost:PUT:COMPACT:{tenant}",
                    sim.now,
                    put_profile.indirect.get(InternalOp.COMPACT, 0.0),
                )

    for spec in load.specs:
        for _ in range(spec.workers):
            sim.process(worker(spec.name), name=f"kv.{spec.name}")
    sim.process(sampler(), name="kv.sampler")
    return load
