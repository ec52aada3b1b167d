"""Shared scaffolding for the dynamic multi-tenant experiments (Figs 11-12;
chaosfig and clusterfig borrow its workload groups and probe).

Both figures run the same 8-tenant scenario on one node:

- 3 *read-heavy* tenants: 90:10 GET/PUT, ~4K GETs / ~16K PUTs;
- 2 *mixed* tenants: 50:50, ~64K GETs / ~16K PUTs;
- 3 *write-heavy* tenants: 10:90, ~128K GETs and PUTs;

request sizes log-normal with σ = 1K, keys uniform, all tenants
backlogged through bounded worker pools.  Each tenant's GET region is
bootstrapped with indexed data so lookups hit from the start.

Reservations "evenly divide the underlying IO resources given their
full (amplified) IO cost": we derive them the same way the paper's
authors must have — run a probe phase under equal proportional shares,
measure each tenant's achieved normalized GET/s / PUT/s, and reserve
exactly those rates.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Sequence, Tuple

from ..analysis.timeseries import SeriesSet
from ..core.policy import Reservation
from ..node import NodeConfig, StorageNode
from ..sim import Simulator
from ..workload.generator import KvLoad, KvTenantSpec, bootstrap_tenant, start_kv_load
from .common import KIB, AckedWrites, kv_node

__all__ = [
    "ALT_REGION_BASE",
    "GROUPS",
    "build_scenario",
    "group_of",
    "kv_request",
    "reserve_from_probe",
    "value_size",
]

#: group -> (tenant names, get_fraction, get_size, put_size, n_keys)
GROUPS: Dict[str, Tuple[Tuple[str, ...], float, int, int, int]] = {
    "read-heavy": (("rh0", "rh1", "rh2"), 0.9, 4 * KIB, 16 * KIB, 3000),
    "mixed": (("mx0", "mx1"), 0.5, 64 * KIB, 16 * KIB, 600),
    "write-heavy": (("wh0", "wh1", "wh2"), 0.1, 128 * KIB, 128 * KIB, 300),
}


def group_of(tenant: str) -> str:
    for group, (names, *_rest) in GROUPS.items():
        if tenant in names:
            return group
    raise KeyError(tenant)


#: key offset of the alternate-shape region used after a workload swap
ALT_REGION_BASE = 1_000_000


def spec_for(tenant: str, group: str, key_base: int = 0) -> KvTenantSpec:
    """The canonical workload spec of ``group``, bound to ``tenant``."""
    names, fraction, get_size, put_size, n_keys = GROUPS[group]
    return KvTenantSpec(
        name=tenant,
        get_fraction=fraction,
        get_size=get_size,
        put_size=put_size,
        sigma=1 * KIB,
        n_keys=n_keys,
        workers=4,
        separate_regions=True,
        key_base=key_base,
    )


def build_scenario(
    profile_name: str,
    track_indirect: bool,
    seed: int,
    on_overflow,
    horizon: float,
    probe_end: float,
) -> Tuple[Simulator, StorageNode, KvLoad, Dict[str, Reservation]]:
    """Assemble node + tenants + bootstrapped data, start the load to
    ``horizon`` and run the probe phase; returns the reservations it
    set (:func:`reserve_from_probe`)."""
    sim = Simulator()
    node = kv_node(
        sim, profile_name, seed,
        config=NodeConfig(track_indirect=track_indirect), on_overflow=on_overflow,
    )
    specs: List[KvTenantSpec] = []
    for group, (names, *_rest) in GROUPS.items():
        for name in names:
            spec = spec_for(name, group)
            specs.append(spec)
            # Probe-phase reservations: tiny equal rates, so allocations
            # are equal and the work-conserving scheduler splits the
            # device evenly while profiles are learned.
            node.add_tenant(name, Reservation(gets=1.0, puts=1.0))
            bootstrap_tenant(node.engines[name], spec.n_keys // 2, spec.get_size)
            # Read-heavy and write-heavy tenants also get a preloaded
            # region shaped for the *other* workload so the Fig 12 swap
            # has size-matched data to read.
            if group in ("read-heavy", "write-heavy"):
                other = "write-heavy" if group == "read-heavy" else "read-heavy"
                alt = spec_for(name, other, key_base=ALT_REGION_BASE)
                bootstrap_tenant(
                    node.engines[name], alt.n_keys // 2, alt.get_size,
                    key_base=ALT_REGION_BASE,
                )
    load = KvLoad(sim, node, specs)
    start_kv_load(load, horizon=horizon, seed=seed)
    reservations = reserve_from_probe(
        sim, node, load.series, [spec.name for spec in load.specs], probe_end
    )
    return sim, node, load, reservations


def reserve_from_probe(
    sim: Simulator, node: StorageNode, series: SeriesSet, names: Sequence[str],
    probe_end: float,
) -> Dict[str, Reservation]:
    """Run the equal-share probe phase to ``probe_end``, then reserve
    each tenant's probe rates, scaled into the VOP floor.

    The probe phase is work-conserving, so its aggregate VOP rate can
    exceed the *provisionable* capacity.  Reservations are the probe
    throughputs (``get:``/``put:`` series over the probe's last third)
    scaled by floor/probe-rate (×0.8), i.e. the rates that evenly
    divide the provisionable IO resources.  Returns them as set.
    """
    sim.run(until=probe_end)
    window = (probe_end * 2 / 3, probe_end)
    probe_vops = sum(series[f"vops:{name}"].window_mean(*window) for name in names)
    factor = 0.8 * min(node.capacity_vops / probe_vops, 1.0) if probe_vops else 0.8
    reservations = {
        name: Reservation(
            gets=series[f"get:{name}"].window_mean(*window),
            puts=series[f"put:{name}"].window_mean(*window),
        ).scaled(factor)
        for name in names
    }
    for name, reservation in reservations.items():
        node.set_reservation(name, reservation)
    return reservations


def value_size(spec: KvTenantSpec, key: int) -> int:
    """Deterministic object size per key.

    A verification pass recomputes a key's expected size from the key
    alone, so a duplicate (re-issued after a timeout, crash or
    failover) can never masquerade as a lost write.
    """
    return spec.put_size + (key % 5) * max(spec.put_size // 8, 512)


def kv_request(store, spec: KvTenantSpec, rng: Random, acks: AckedWrites):
    """DES generator: one closed-loop request of ``spec`` against
    ``store`` (a node or a cluster client).  GETs hit the bootstrapped
    lower half of the keyspace; PUTs go to the upper half at
    :func:`value_size` and land in ``acks`` once acknowledged.  Returns
    whether the request was an acknowledged PUT."""
    half = spec.n_keys // 2
    if rng.random() < spec.get_fraction:
        yield from store.get(spec.name, rng.randrange(half))
        return False
    key = half + rng.randrange(half)
    size = value_size(spec, key)
    yield from store.put(spec.name, key, size)
    acks.ack(spec.name, key, size)
    return True
