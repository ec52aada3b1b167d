"""The five kvbench workloads: specs, set-up, closed-loop clients, checks.

Every workload is a closed loop: each simulated client is a DES
coroutine that issues its next request when the previous reply arrives
(the paper's YCSB-style callers).  All randomness is spent in set-up —
per-client op/key plans are numpy draws turned into plain lists — so
the timed loop holds no RNG and the program under test sees only
generated inputs.  Only public APIs are driven: ``StorageNode.get/put/
scan`` and ``StorageCluster.make_client()`` -> ``ClusterClient.get/put``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import Reservation
from repro.faults import StorageFault
from repro.net import NetConfig
from repro.node import NodeConfig, StorageCluster, StorageNode
from repro.sim import Simulator

KIB = 1024
MIB = 1024 * KIB

GET, PUT, SCAN = 0, 1, 2

#: ops per client plan; a client that runs off the end wraps around
PLAN_LEN = 1 << 16
#: ``scan(k, k + SCAN_SPAN, limit=SCAN_LIMIT)``
SCAN_SPAN = 64
SCAN_LIMIT = 32
#: concurrent preload coroutines; each PUTs every LOADERS-th key
LOADERS = 8
#: set-up stages the preload is cut into
PRELOAD_STAGES = 24
#: untimed simulated seconds the clients run before the timed window
WARMUP = 1.0
WARMUP_STAGES = 10
#: simulated seconds the cluster settles after its clients stop
DRAIN = 1.0


@dataclass(frozen=True)
class Spec:
    """One workload: the inputs the system's behaviour depends on."""

    name: str
    why: str
    #: (tenant, reservation weight); one engine partition set per tenant
    tenants: Tuple[Tuple[str, int], ...]
    keys: int  # preloaded keys per tenant
    value_bytes: int
    clients_per_tenant: int
    read_frac: float
    #: simulated seconds of the timed window at ``--seconds 10``
    horizon: float
    read_op: int = GET
    zipf: float = 0.0  # 0 = uniform keys
    cache_bytes: int = 0
    cluster: bool = False


FOUR_TENANTS = (("t0", 4), ("t1", 2), ("t2", 1), ("t3", 1))

WORKLOADS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="node_get",
            why="cache off, 4 tenants 4:2:1:1, uniform 95% GET: every request walks "
                "engine, filesystem, Libra scheduler and device; net idle",
            tenants=FOUR_TENANTS, keys=5000, value_bytes=KIB,
            clients_per_tenant=2, read_frac=0.95, horizon=3.0,
        ),
        Spec(
            name="node_hot",
            why="Zipf 0.99 over data 2.5x the 8 MiB object cache: ~80% of requests end "
                "in node, bypassing engine/core/ssd; pairs with node_get",
            tenants=(("t0", 1),), keys=20000, value_bytes=KIB,
            clients_per_tenant=8, read_frac=0.95, horizon=2.5,
            zipf=0.99, cache_bytes=8 * MIB,
        ),
        Spec(
            name="node_put",
            why="80% PUT of 4 KiB, device saturated: WAL group commit, FLUSH, COMPACT, "
                "chunking and FTL GC cycle many times; reservations bind",
            tenants=FOUR_TENANTS, keys=5000, value_bytes=4 * KIB,
            clients_per_tenant=2, read_frac=0.20, horizon=10.0,
        ),
        Spec(
            name="node_scan",
            why="90% scan(k, k+64, limit=32) beside 10% PUT: engine iterator/merge cost "
                "no point lookup exercises, with memtable/L0 churn live",
            tenants=(("t0", 1),), keys=20000, value_bytes=KIB,
            clients_per_tenant=4, read_frac=0.90, horizon=4.0, read_op=SCAN,
        ),
        Spec(
            name="cluster_rf3",
            why="3 nodes, rf=3 primary-backup, majority quorum, 50/50 through "
                "ClusterClient: fabric, RPC and replication on every request",
            tenants=(("t0", 1),), keys=2048, value_bytes=4 * KIB,
            clients_per_tenant=8, read_frac=0.50, horizon=3.5, cluster=True,
        ),
    )
}


def value_size(spec: Spec, key: int) -> int:
    """The size every PUT of ``key`` writes.

    A function of the key alone, so a GET racing another client's PUT of
    the same key still has exactly one right answer, and a reply that
    carries another key's record is caught.
    """
    return spec.value_bytes - 16 * (key % 8)


def make_plans(spec: Spec, seed: int) -> List[Tuple[str, List[int], List[int]]]:
    """Per-client ``(tenant, ops, keys)`` plans, a function of the seed."""
    plans = []
    for t_idx, (tenant, _weight) in enumerate(spec.tenants):
        for c_idx in range(spec.clients_per_tenant):
            rng = np.random.default_rng([seed, t_idx, c_idx])
            ops = np.where(rng.random(PLAN_LEN) < spec.read_frac, spec.read_op, PUT)
            if spec.zipf:
                # Bounded Zipf by inverse CDF over popularity ranks; a
                # per-tenant permutation scatters the hot ranks over the
                # keyspace so they do not share SSTable blocks.
                weights = 1.0 / np.arange(1, spec.keys + 1) ** spec.zipf
                cdf = np.cumsum(weights / weights.sum())
                ranks = np.minimum(np.searchsorted(cdf, rng.random(PLAN_LEN)), spec.keys - 1)
                keys = np.random.default_rng([seed, t_idx]).permutation(spec.keys)[ranks]
            else:
                # Scans start where a full span still fits in the keyspace.
                top = spec.keys - SCAN_SPAN if spec.read_op == SCAN else spec.keys
                keys = rng.integers(0, top, PLAN_LEN)
            plans.append((tenant, ops.tolist(), keys.tolist()))
    return plans


class World:
    """One system under test plus the simulated clients driving it.

    The constructor only builds the stack; :meth:`set_up` preloads,
    starts the clients and warms up.
    """

    def __init__(self, spec: Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.sim = Simulator()
        self.sizes = [value_size(spec, key) for key in range(spec.keys)]
        self.cluster = None
        node_config = NodeConfig(cache_bytes=spec.cache_bytes)
        if spec.cluster:
            self.cluster = StorageCluster(
                self.sim, n_nodes=3, profile="intel320", config=node_config,
                partitions_per_tenant=6, seed=seed, net=NetConfig(rf=3),
            )
            self.nodes = list(self.cluster.nodes.values())
            for tenant, weight in spec.tenants:
                self.cluster.add_tenant(tenant, _reservation(weight))
        else:
            node = StorageNode(self.sim, profile="intel320", config=node_config, seed=seed)
            self.nodes = [node]
            for tenant, weight in spec.tenants:
                node.add_tenant(tenant, _reservation(weight))
        #: ClusterClient per simulated client (cluster workload only)
        self.clients = []
        # Tallies the clients update; the harness reads window deltas.
        self.failed = 0
        self.wrong = 0  # replies that failed an output check
        self.app_bytes = 0
        self.put_bytes = 0
        self.acked_puts = 0
        self.read_lat: List[float] = []
        self.write_lat: List[float] = []
        self.stopping = False
        self.active = 0  # client coroutines still running

    def set_up(self):
        """Preload every key, start the clients, warm up.

        A generator that yields after each stage of roughly 0.1 CPU-s,
        so the harness can meter the host's speed around every stage.
        """
        target = self.cluster.make_client("preload") if self.cluster else self.nodes[0]
        loaders = [self.sim.process(self._loader(target, j)) for j in range(LOADERS)]
        total = len(self.spec.tenants) * self.spec.keys
        for stage in range(1, PRELOAD_STAGES + 1):
            # The nodes' periodic loops keep the queue non-empty forever,
            # so the stop condition is progress, not an empty queue.
            self.sim.step_while(
                lambda: self.acked_puts < total * stage // PRELOAD_STAGES
                and all(loader.is_alive or loader.ok for loader in loaders)
            )
            yield
        self._finish(loaders)
        for tenant, ops, keys in make_plans(self.spec, self.seed):
            self.active += 1
            if self.cluster:
                target = self.cluster.make_client()
                self.clients.append(target)
            self.sim.process(self._client(target, tenant, ops, keys))
        for _ in range(WARMUP_STAGES):
            self.sim.run(until=self.sim.now + WARMUP / WARMUP_STAGES)
            yield

    def _finish(self, processes) -> None:
        """Run until the processes end; re-raise what killed any of them."""
        self.sim.step_while(lambda: any(proc.is_alive for proc in processes))
        for proc in processes:
            if not proc.ok:
                raise proc.value

    def _loader(self, target, lane: int):
        """PUT every LOADERS-th key, through the same public API."""
        for tenant, _weight in self.spec.tenants:
            for key in range(lane, self.spec.keys, LOADERS):
                yield from target.put(tenant, key, self.sizes[key])
                self.acked_puts += 1

    def _client(self, target, tenant: str, ops: List[int], keys: List[int]):
        sim = self.sim
        sizes = self.sizes
        read_lat = self.read_lat
        write_lat = self.write_lat
        i = 0
        while not self.stopping:
            op = ops[i]
            key = keys[i]
            i += 1
            if i == PLAN_LEN:
                i = 0
            started = sim.now
            try:
                if op == GET:
                    size = yield from target.get(tenant, key)
                    if size == sizes[key]:
                        self.app_bytes += size
                    else:
                        self.wrong += 1
                    read_lat.append(sim.now - started)
                elif op == PUT:
                    size = sizes[key]
                    yield from target.put(tenant, key, size)
                    self.acked_puts += 1
                    self.app_bytes += size
                    self.put_bytes += size
                    write_lat.append(sim.now - started)
                else:
                    pairs = yield from target.scan(
                        tenant, key, key + SCAN_SPAN, limit=SCAN_LIMIT
                    )
                    # Every key is preloaded and none is deleted, so the
                    # reply is exactly the first SCAN_LIMIT keys from the
                    # start: sorted, inside the range, within the limit.
                    if pairs == [(k, sizes[k]) for k in range(key, key + SCAN_LIMIT)]:
                        self.app_bytes += sum(size for _key, size in pairs)
                    else:
                        self.wrong += 1
                    read_lat.append(sim.now - started)
            except StorageFault:
                self.failed += 1
        self.active -= 1

    @property
    def completed(self) -> int:
        """Requests answered so far: each one logged exactly one latency."""
        return len(self.read_lat) + len(self.write_lat)

    def final_checks(self) -> List[str]:
        """Stop the clients and verify the end state; returns violations."""
        problems = []
        if self.wrong:
            problems.append(f"{self.wrong} replies failed their output check")
        if self.failed:
            problems.append(f"{self.failed} requests raised StorageFault")
        if self.cluster is None:
            return problems
        # Zero lost acked writes: let in-flight requests and replica
        # ships land, then read every key back through a client and
        # compare durable WAL records with rf x acked PUTs.
        self.stopping = True
        self.sim.run(until=self.sim.now + DRAIN)
        if self.active:
            problems.append(f"{self.active} clients still mid-request after the drain")
        stale = []
        self._finish([self.sim.process(self._read_back(stale))])
        if stale:
            problems.append(f"{len(stale)} acked keys did not read back, e.g. {stale[:3]}")
        durable = sum(
            sum(self.cluster.durable_record_counts(tenant).values())
            for tenant, _weight in self.spec.tenants
        )
        if durable != self.cluster.rf * self.acked_puts:
            problems.append(
                f"{durable} durable records != {self.cluster.rf} x {self.acked_puts} acked PUTs"
            )
        return problems

    def _read_back(self, stale: list):
        client = self.clients[0]
        for tenant, _weight in self.spec.tenants:
            for key, size in enumerate(self.sizes):
                got = yield from client.get(tenant, key)
                if got != size:
                    stale.append((tenant, key, got))


def _reservation(weight: int) -> Reservation:
    # Normalized (1 KiB) requests/s; the 4:2:1:1 weights sum to roughly
    # the node's provisionable floor on the GET-heavy mixes and exceed
    # it on node_put, where the policy scales them down in proportion.
    return Reservation(gets=1500.0 * weight, puts=500.0 * weight)
