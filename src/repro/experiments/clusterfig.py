"""Cluster experiment: replicated tenants, a mid-run node kill, failover.

Not a figure from the paper — the cluster-layer capstone over the
:mod:`repro.net` substrate.  Two tenants (a mixed and a write-heavy
fig11 workload) run closed-loop through :class:`~repro.net.ClusterClient`
endpoints against a three-node cluster, once per replication factor
RF ∈ {1, 2, 3}.  Mid-run, ``node0`` is killed outright: the heartbeat
detector notices the silence, promotes the max-applied-sequence backup
for every partition the dead node led, and the cluster re-splits the
affected reservations.

What the sweep demonstrates, per RF:

- **durability**: with RF ≥ 2 every acknowledged write reads back after
  the kill (zero lost acks); with RF = 1 the dead node's partitions are
  gone and their acknowledged writes are unreachable — the contrast the
  replication factor buys;
- **availability**: with RF ≥ 2 both tenants keep serving after
  failover (post-kill throughput > 0) while RF = 1 loses a third of the
  keyspace;
- **the cost**: replication multiplies durable WAL records (write
  amplification ≈ RF) and backup applies consume real VOPs, so Libra's
  per-node demand estimates — and therefore the PUT reservations the
  cluster provisions — grow with RF;
- **tail latency and SLO attainment**: client-observed latency includes
  NIC serialization, propagation, quorum waits, and failover retries;
  the detection window shows up in the PUT tail.

Everything is seed-deterministic: two same-seed runs return equal
:class:`ClusterResult` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.report import format_table
from ..core.policy import Reservation
from ..faults import StorageFault
from ..net import NetConfig
from ..node import StorageCluster
from ..obs.metrics import slo_attainment
from ..sim import Simulator
from ..workload.generator import KvTenantSpec, bootstrap_tenant
from .common import (
    AckedWrites,
    check_schedule,
    demand_vops,
    derive_seed,
    parallel_map,
    rpc_round_trips,
    write_amplification,
)
from .kvdynamic import kv_request, spec_for

__all__ = ["run", "render", "ClusterResult", "ClusterCell"]

#: the replication factors swept (one independent cluster each)
RF_SWEEP: Tuple[int, ...] = (1, 2, 3)
N_NODES = 3
PARTITIONS = 6
KILLED = "node0"
#: per-tenant request SLO (seconds): generous enough for quorum writes,
#: tight enough that the failover detection window degrades attainment
SLO_SECONDS = 0.100

TENANTS: Tuple[Tuple[str, str], ...] = (
    ("mx0", "mixed"),
    ("wh0", "write-heavy"),
)


@dataclass(frozen=True)
class ClusterTimeline:
    """The experiment's schedule, in simulated seconds."""

    kill_at: float
    horizon: float
    #: settle time after the kill before "post-kill" rates are counted
    settle: float = 2.0

    def __post_init__(self):
        check_schedule(self, (
            ("kill_at", self.kill_at >= 1, ">= 1 (demand is sampled 1 s before the kill)"),
            ("horizon", self.horizon > self.kill_at + self.settle, "> kill_at + settle"),
        ))


QUICK = ClusterTimeline(kill_at=10.0, horizon=25.0)
FULL = ClusterTimeline(kill_at=20.0, horizon=50.0)


@dataclass
class ClusterCell:
    """One RF's complete outcome."""

    rf: int
    seed: int
    #: tenant -> acknowledged PUT keys / those unreadable afterwards
    acked: Dict[str, int] = field(default_factory=dict)
    lost: Dict[str, int] = field(default_factory=dict)
    #: tenant -> requests whose failover retries were exhausted
    surfaced: Dict[str, int] = field(default_factory=dict)
    #: tenant -> kind -> (p50_ms, p99_ms) client-observed latency
    latency_ms: Dict[str, Dict[str, Tuple[float, float]]] = field(default_factory=dict)
    #: tenant -> fraction of client requests inside SLO_SECONDS
    slo: Dict[str, float] = field(default_factory=dict)
    #: tenant -> acks/s in the settled post-kill window
    post_kill_rate: Dict[str, float] = field(default_factory=dict)
    #: seconds from the kill to the detector's failover record
    detection_s: float = -1.0
    promotions: int = 0
    #: cluster-wide durable WAL records per acknowledged client write
    write_amplification: float = 0.0
    #: backup replica applies, summed over nodes and tenants
    repl_applies: int = 0
    #: cluster-wide Libra VOP demand estimate sampled just before the
    #: kill — the provisioning-visible cost of replication
    prekill_demand_vops: float = 0.0
    #: completed RPC round trips, summed over node endpoints
    rpc_round_trips: int = 0
    verified: bool = False


@dataclass
class ClusterResult:
    profile: str
    seed: int
    timeline: ClusterTimeline
    cells: List[ClusterCell] = field(default_factory=list)

    def cell(self, rf: int) -> ClusterCell:
        for cell in self.cells:
            if cell.rf == rf:
                return cell
        raise KeyError(f"no RF={rf} cell")

    @property
    def replicated_lost(self) -> int:
        """Lost acked writes summed over the RF >= 2 cells."""
        return sum(
            sum(cell.lost.values()) for cell in self.cells if cell.rf >= 2
        )


def _run_cell(args: Tuple[int, ClusterTimeline, str, int]) -> ClusterCell:
    """One RF's full simulation: load, kill, failover, verify."""
    rf, timeline, profile_name, seed = args
    cell = ClusterCell(rf=rf, seed=seed)
    sim = Simulator()
    net = NetConfig(rf=rf)
    cluster = StorageCluster(
        sim, n_nodes=N_NODES, profile=profile_name, partitions_per_tenant=PARTITIONS,
        seed=seed, net=net,
    )
    specs: List[KvTenantSpec] = []
    for tenant, group in TENANTS:
        spec = spec_for(tenant, group)
        specs.append(spec)
        # Reservations sized to the workload's rough appetite; the
        # interesting part is how the cluster splits them (PUT share ×
        # replica count) and re-splits after the failover.
        cluster.add_tenant(
            tenant, Reservation(gets=spec.workers * 150.0, puts=spec.workers * 150.0)
        )
        for node in cluster.nodes.values():
            if tenant in node.engines:
                bootstrap_tenant(node.engines[tenant], spec.n_keys // 2, spec.get_size)

    clients = {s.name: cluster.make_client(f"app.{s.name}") for s in specs}
    acks = AckedWrites(s.name for s in specs)
    ack_count: Dict[str, int] = {s.name: 0 for s in specs}
    late_acks: Dict[str, int] = {s.name: 0 for s in specs}
    cell.surfaced = {s.name: 0 for s in specs}
    settle_at = timeline.kill_at + timeline.settle

    def worker(spec: KvTenantSpec, widx: int):
        tenant = spec.name
        rng = random.Random(f"cluster:{seed}:{rf}:{tenant}:{widx}")
        while sim.now < timeline.horizon:
            try:
                if (yield from kv_request(clients[tenant], spec, rng, acks)):
                    ack_count[tenant] += 1
                    # An ack that lands during the read-back is outside
                    # the post-kill window the rate is taken over.
                    if settle_at <= sim.now <= timeline.horizon:
                        late_acks[tenant] += 1
            except StorageFault:
                cell.surfaced[tenant] += 1
            # A sliver of think time bounds the closed loop's event rate.
            yield sim.timeout(0.001 + rng.random() * 0.002)

    def killer():
        yield sim.timeout(timeline.kill_at - 1.0)
        # Sample Libra's demand estimates while every node is healthy:
        # with RF > 1 the backup applies are in here, which is exactly
        # "replication cost visible to provisioning".
        cell.prekill_demand_vops = demand_vops(cluster)
        yield sim.timeout(1.0)
        cluster.kill_node(KILLED)

    for s in specs:
        for widx in range(s.workers):
            sim.process(worker(s, widx), name=f"cluster.{s.name}.{widx}")
    sim.process(killer(), name="cluster.killer")
    sim.run(until=timeline.horizon)

    # -- verify: every acknowledged write must still read back ------------
    # A single-round client fails fast on known-dead primaries, so the
    # RF=1 cell's unreachable partitions do not stall the verdict.
    verify_client = cluster.make_client("verify")
    verify_client.resolve_rounds = 1
    acks.verify(sim, verify_client.get, "cluster.verify", timeline.horizon + 60.0)
    cluster.stop()

    # -- collect ----------------------------------------------------------
    for s in specs:
        recorder = clients[s.name].latencies.get(s.name)
        kinds: Dict[str, Tuple[float, float]] = {}
        samples: List[float] = []
        if recorder is not None:
            for kind in recorder.kinds():
                kinds[kind] = (
                    round(recorder.percentile(kind, 50) * 1e3, 3),
                    round(recorder.percentile(kind, 99) * 1e3, 3),
                )
                samples.extend(recorder.samples(kind))
        cell.latency_ms[s.name] = kinds
        cell.slo[s.name] = round(slo_attainment(samples, SLO_SECONDS), 6)
        cell.acked[s.name] = len(acks.expected[s.name])
        cell.lost[s.name] = acks.lost(s.name)
        cell.post_kill_rate[s.name] = round(
            late_acks[s.name] / (timeline.horizon - settle_at), 6
        )
    if cluster.detector.failovers:
        record = cluster.detector.failovers[0]
        cell.detection_s = round(record.at - timeline.kill_at, 6)
        cell.promotions = sum(
            len(r.promotions) for r in cluster.detector.failovers
        )
    cell.write_amplification = write_amplification(
        cluster, [s.name for s in specs], sum(ack_count.values())
    )
    cell.repl_applies = sum(
        cluster.total_stats(s.name).repl_applies for s in specs
    )
    cell.rpc_round_trips = rpc_round_trips(cluster, clients.values())
    cell.verified = acks.verified
    return cell


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 31, jobs: int = 1
) -> ClusterResult:
    """Run the RF sweep; each cell is an independent simulation, so the
    sweep parallelizes over ``jobs`` with byte-identical results."""
    timeline = QUICK if quick else FULL
    result = ClusterResult(profile=profile_name, seed=seed, timeline=timeline)
    cells = [
        (rf, timeline, profile_name, derive_seed(seed, rf)) for rf in RF_SWEEP
    ]
    result.cells = parallel_map(_run_cell, cells, jobs=jobs)
    return result


def render(result: ClusterResult) -> str:
    t = result.timeline
    blocks = [
        f"Cluster failover sweep — {N_NODES} nodes, RF ∈ "
        f"{{{', '.join(str(c.rf) for c in result.cells)}}}, {KILLED} killed at "
        f"{t.kill_at:.0f}s of {t.horizon:.0f}s, {result.profile}",
    ]
    rows = []
    for cell in result.cells:
        for tenant, _group in TENANTS:
            put_p = cell.latency_ms[tenant].get("put", (0.0, 0.0))
            get_p = cell.latency_ms[tenant].get("get", (0.0, 0.0))
            rows.append([
                f"rf{cell.rf}", tenant,
                cell.acked[tenant], cell.lost[tenant], cell.surfaced[tenant],
                f"{cell.post_kill_rate[tenant]:.1f}",
                f"{get_p[0]:.1f}/{get_p[1]:.1f}",
                f"{put_p[0]:.1f}/{put_p[1]:.1f}",
                f"{cell.slo[tenant] * 100:.1f}%",
            ])
    blocks.append(format_table(
        ["rf", "tenant", "acked", "lost", "errors", "post-kill/s",
         "get p50/p99 ms", "put p50/p99 ms", f"SLO<{SLO_SECONDS * 1e3:.0f}ms"],
        rows,
        title="per-tenant durability, availability, and client latency",
    ))
    rows = [
        [
            f"rf{cell.rf}",
            f"{cell.detection_s:.2f}" if cell.detection_s >= 0 else "-",
            cell.promotions,
            f"{cell.write_amplification:.2f}",
            cell.repl_applies,
            f"{cell.prekill_demand_vops:.0f}",
            cell.rpc_round_trips,
        ]
        for cell in result.cells
    ]
    blocks.append(format_table(
        ["rf", "detect s", "promotions", "write amp", "repl applies",
         "demand VOP/s", "rpc round trips"],
        rows,
        title="failover and replication cost (cluster-wide)",
    ))
    blocks.append(
        f"acknowledged writes lost at RF>=2: {result.replicated_lost} "
        f"(verified={all(c.verified for c in result.cells)})"
    )
    return "\n\n".join(blocks)
