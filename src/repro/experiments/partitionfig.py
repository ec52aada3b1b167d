"""Partition experiment: consistency levels priced in VOPs.

Not a figure from the paper — the robustness capstone over the
:mod:`repro.net` substrate.  One tenant runs closed-loop from *two*
client endpoints — one caught on the minority side of a network
partition with ``node0``/``node1``, one on the majority side — against
a five-node RF=3 cluster, once per cell of the sweep

    consistency (W, R) ∈ {1, quorum, all}  ×
    replication mode ∈ {primary-backup, leaderless}.

A :data:`~repro.faults.FaultKind.NET_PARTITION` window bidirectionally
severs the groups mid-run; after the heal the run drains until replicas
converge, then every acknowledged write is read back.

What the sweep demonstrates, per cell:

- **lost acked writes**: primary-backup W=1 loses acks accepted by a
  not-yet-demoted minority primary (split-brain: the majority promotes
  a backup that never saw them); leaderless sloppy quorums lose
  nothing — unreachable homes are covered by hinted handoff and every
  hint is delivered after the heal (the acceptance bar: zero losses
  for W ≥ 2);
- **availability**: primary-backup W ≥ 2 minority writes stall (no
  reachable quorum through the partition map), leaderless coordinates
  on whichever side the client can reach;
- **staleness**: read-your-writes misses at R=1 versus R+W > RF;
- **time to convergence**: how long read repair + hinted handoff +
  anti-entropy take to make every home replica's version store agree
  after the heal (leaderless only);
- **the headline: demand VOPs per consistency level** — replica reads,
  repair, handoff, and anti-entropy transfers all run the full charged
  engine path, so Libra's demand estimates price each consistency
  choice, not just its latency.

Everything is seed-deterministic: two same-seed runs return equal
:class:`PartitionResult` values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.report import format_table
from ..core.policy import Reservation
from ..faults import FaultKind, FaultPlan, FaultWindow, StorageFault
from ..net import NetConfig
from ..node import NodeConfig, StorageCluster
from ..sim import Simulator
from .common import count_lost, derive_seed, parallel_map

__all__ = ["run", "render", "PartitionResult", "PartitionCell"]

N_NODES = 5
PARTITIONS = 8
RF = 3
TENANT = "pt0"
#: nodes cut off with the minority-side client during the window
MINORITY = ("node0", "node1")
MINORITY_CLIENT = "app.min"
MAJORITY_CLIENT = "app.maj"
VALUE_BASE = 2048

#: (label, write quorum, read quorum) — quorum = majority of RF
LEVELS: Tuple[Tuple[str, int, int], ...] = (
    ("W1/R1", 1, 1),
    ("quorum", RF // 2 + 1, RF // 2 + 1),
    ("all", RF, RF),
)
MODES: Tuple[str, ...] = ("primary-backup", "leaderless")


@dataclass(frozen=True)
class PartitionTimeline:
    """The experiment's schedule, in simulated seconds."""

    part_start: float
    part_end: float
    #: closed-loop workload stops here
    horizon: float
    #: extra drain after the horizon for handoff/anti-entropy/verify
    drain: float


QUICK = PartitionTimeline(part_start=3.0, part_end=10.0, horizon=16.0, drain=30.0)
FULL = PartitionTimeline(part_start=5.0, part_end=22.0, horizon=32.0, drain=60.0)


@dataclass
class PartitionCell:
    """One (mode, consistency level) outcome."""

    mode: str
    level: str
    w: int
    r: int
    seed: int
    #: side -> acknowledged writes / write errors surfaced to the app
    acked: Dict[str, int] = field(default_factory=dict)
    #: side -> writes acknowledged *inside* the partition window — the
    #: availability measure (primary-backup minority stalls here)
    window_acked: Dict[str, int] = field(default_factory=dict)
    errors: Dict[str, int] = field(default_factory=dict)
    #: acked-but-unreadable keys after heal + convergence (per side)
    lost: Dict[str, int] = field(default_factory=dict)
    #: read-your-own-acked-write probes and how many came back stale
    reads: int = 0
    stale_reads: int = 0
    #: seconds from the heal until every home replica agrees (leaderless;
    #: -1 = not measured / did not converge inside the drain)
    converge_s: float = -1.0
    #: cluster-wide Libra VOP demand estimate sampled post-heal, while
    #: repair/handoff/anti-entropy traffic is part of the demand
    demand_vops: float = 0.0
    #: leaderless repair machinery counters, summed over nodes
    hints_stored: int = 0
    hints_delivered: int = 0
    read_repairs: int = 0
    handoffs_received: int = 0
    ae_received: int = 0
    revivals: int = 0
    #: replica engine work: backup/store applies and replica-local reads
    repl_applies: int = 0
    repl_reads: int = 0
    #: cluster-wide durable WAL records per acknowledged write
    write_amplification: float = 0.0
    put_p50_ms: float = 0.0
    put_p99_ms: float = 0.0
    rpc_round_trips: int = 0
    verified: bool = False

    @property
    def total_lost(self) -> int:
        return sum(self.lost.values())


@dataclass
class PartitionResult:
    profile: str
    seed: int
    timeline: PartitionTimeline
    cells: List[PartitionCell] = field(default_factory=list)

    def cell(self, mode: str, level: str) -> PartitionCell:
        for cell in self.cells:
            if cell.mode == mode and cell.level == level:
                return cell
        raise KeyError(f"no ({mode}, {level}) cell")

    @property
    def sloppy_quorum_lost(self) -> int:
        """Lost acked writes over the leaderless W >= 2 cells — the
        acceptance bar requires this to be zero."""
        return sum(
            cell.total_lost
            for cell in self.cells
            if cell.mode == "leaderless" and cell.w >= 2
        )


def _value_size(op_index: int) -> int:
    """Deterministic per-write object size (a stale read can't hide)."""
    return VALUE_BASE + (op_index % 7) * 512


def _run_cell(args: Tuple[str, str, int, int, bool, str, int]) -> PartitionCell:
    """One (mode, level) simulation: load, partition, heal, verify."""
    mode, level, w, r, quick, profile_name, seed = args
    timeline = QUICK if quick else FULL
    cell = PartitionCell(mode=mode, level=level, w=w, r=r, seed=seed)
    sim = Simulator()
    plan = FaultPlan(seed=seed).add(
        FaultWindow(
            FaultKind.NET_PARTITION, timeline.part_start, timeline.part_end,
            groups=(MINORITY + (MINORITY_CLIENT,),),
        )
    )
    net = NetConfig(
        rf=RF,
        replication_mode=mode,
        write_quorum=w,
        read_quorum=r,
        rpc_timeout=0.15,
        rpc_retries=2,
        rpc_backoff=0.05,
        hint_interval=0.5,
        anti_entropy_interval=2.0,
        fault_plan=plan,
    )
    cluster = StorageCluster(
        sim,
        n_nodes=N_NODES,
        profile=profile_name,
        config=NodeConfig(cache_bytes=0),
        partitions_per_tenant=PARTITIONS,
        seed=seed,
        net=net,
    )
    cluster.add_tenant(TENANT, Reservation(gets=600.0, puts=600.0))
    clients = {
        "min": cluster.make_client(MINORITY_CLIENT),
        "maj": cluster.make_client(MAJORITY_CLIENT),
    }
    # Per-side disjoint key ranges, one fresh key per write: the last
    # acknowledged size per key is the ground truth verification reads
    # check against, with no cross-side overwrites to excuse a miss.
    expected: Dict[str, Dict[int, int]] = {"min": {}, "maj": {}}
    acked_order: Dict[str, List[int]] = {"min": [], "maj": []}
    window_acked: Dict[str, int] = {"min": 0, "maj": 0}
    errors: Dict[str, int] = {"min": 0, "maj": 0}
    probes = {"reads": 0, "stale": 0}

    # Each side writes partitions whose *initial* primary sits on its
    # own side of the cut: minority-side writes keep acking against the
    # not-yet-demoted minority primaries during the detection window —
    # the split-brain acks whose fate the sweep contrasts — instead of
    # the worker stalling its whole window on unreachable majority
    # primaries.
    side_partitions = {
        "min": [
            p.index
            for p in cluster.partition_map.partitions(TENANT)
            if p.node in MINORITY
        ],
        "maj": [
            p.index
            for p in cluster.partition_map.partitions(TENANT)
            if p.node not in MINORITY
        ],
    }

    def worker(side: str):
        client = clients[side]
        rng = random.Random(f"part:{seed}:{mode}:{level}:{side}")
        base = 0 if side == "min" else 1_000_000
        offsets = side_partitions[side]
        op = 0
        while sim.now < timeline.horizon:
            op += 1
            key = base + op * PARTITIONS + offsets[op % len(offsets)]
            size = _value_size(op)
            try:
                yield from client.put(TENANT, key, size)
                expected[side][key] = size
                acked_order[side].append(key)
                if timeline.part_start <= sim.now <= timeline.part_end:
                    window_acked[side] += 1
            except StorageFault:
                errors[side] += 1
            # Read-your-writes probe: re-read one recently acked key.
            recent = acked_order[side]
            if recent and rng.random() < 0.5:
                back = rng.randrange(min(8, len(recent)))
                probe_key = recent[len(recent) - 1 - back]
                try:
                    got = yield from client.get(TENANT, probe_key)
                    probes["reads"] += 1
                    if got != expected[side][probe_key]:
                        probes["stale"] += 1
                except StorageFault:
                    errors[side] += 1
            yield sim.timeout(0.015 + rng.random() * 0.015)

    def demand_sampler():
        # Post-heal, pre-horizon: handoff and anti-entropy catch-up are
        # live demand here, which is the point — consistency repair is
        # work Libra's provisioning sees.
        yield sim.timeout(timeline.horizon - 0.5)
        cell.demand_vops = sum(
            sum(node.policy.estimated_demand().values())
            for node in cluster.nodes.values()
        )

    def convergence_monitor():
        if not net.leaderless:
            return
        yield sim.timeout(timeline.part_end)
        deadline = timeline.horizon + timeline.drain - 2.0
        while sim.now < deadline:
            settled = cluster.converged(TENANT) and not any(
                service.hints for service in cluster.services.values()
            )
            if settled:
                cell.converge_s = round(sim.now - timeline.part_end, 6)
                return
            yield sim.timeout(0.25)

    for side in ("min", "maj"):
        sim.process(worker(side), name=f"part.worker.{side}")
    sim.process(demand_sampler(), name="part.demand")
    sim.process(convergence_monitor(), name="part.converge")
    sim.run(until=timeline.horizon + timeline.drain - 2.0)

    # -- verify: every acknowledged write must still read back ------------
    verify_client = cluster.make_client("verify")
    lost: Dict[str, int] = {}
    verified: Dict[str, bool] = {}

    def verifier(side: str):
        lost[side] = yield from count_lost(
            lambda key: verify_client.get(TENANT, key), expected[side]
        )
        verified[side] = True

    for side in ("min", "maj"):
        sim.process(verifier(side), name=f"part.verify.{side}")
    sim.run(until=timeline.horizon + timeline.drain + 120.0)
    cluster.stop()

    # -- collect ----------------------------------------------------------
    for side in ("min", "maj"):
        cell.acked[side] = len(expected[side])
        cell.window_acked[side] = window_acked[side]
        cell.errors[side] = errors[side]
        cell.lost[side] = lost.get(side, len(expected[side]))
    cell.reads = probes["reads"]
    cell.stale_reads = probes["stale"]
    services = cluster.services.values()
    if net.leaderless:
        cell.hints_stored = sum(s.hints_stored for s in services)
        cell.hints_delivered = sum(s.hints_delivered for s in services)
        cell.read_repairs = sum(s.read_repairs_sent for s in services)
        cell.handoffs_received = sum(s.handoffs_received for s in services)
        cell.ae_received = sum(s.ae_received for s in services)
    cell.revivals = cluster.membership.revivals
    stats = cluster.total_stats(TENANT)
    cell.repl_applies = stats.repl_applies
    cell.repl_reads = stats.repl_reads
    total_acked = sum(cell.acked.values())
    durable = sum(cluster.durable_record_counts(TENANT).values())
    cell.write_amplification = (
        round(durable / total_acked, 6) if total_acked else 0.0
    )
    put_samples: List[float] = []
    for client in clients.values():
        recorder = client.latencies.get(TENANT)
        if recorder is not None:
            put_samples.extend(recorder.samples("put"))
    if put_samples:
        from ..obs.metrics import Histogram

        hist = Histogram()
        for sample in put_samples:
            hist.observe(sample)
        cell.put_p50_ms = round(hist.percentile(50) * 1e3, 3)
        cell.put_p99_ms = round(hist.percentile(99) * 1e3, 3)
    cell.rpc_round_trips = sum(
        service.rpc.stats.round_trips for service in services
    ) + sum(client.rpc.stats.round_trips for client in clients.values())
    cell.verified = all(verified.get(side, False) for side in ("min", "maj"))
    return cell


def run(
    quick: bool = True, profile_name: str = "intel320", seed: int = 47, jobs: int = 1
) -> PartitionResult:
    """Run the consistency sweep; each cell is an independent simulation,
    so the grid parallelizes over ``jobs`` with byte-identical results."""
    timeline = QUICK if quick else FULL
    result = PartitionResult(profile=profile_name, seed=seed, timeline=timeline)
    cells = []
    for index, mode in enumerate(MODES):
        for jndex, (level, w, r) in enumerate(LEVELS):
            cells.append((
                mode, level, w, r, quick, profile_name,
                derive_seed(seed, index * len(LEVELS) + jndex),
            ))
    result.cells = parallel_map(_run_cell, cells, jobs=jobs)
    return result


def render(result: PartitionResult) -> str:
    t = result.timeline
    blocks = [
        f"Partition sweep — {N_NODES} nodes, RF={RF}, "
        f"{{{', '.join(MINORITY)}}} + minority client severed "
        f"{t.part_start:.0f}s..{t.part_end:.0f}s of {t.horizon:.0f}s, "
        f"{result.profile}",
    ]
    rows = []
    for cell in result.cells:
        stale = (
            f"{cell.stale_reads}/{cell.reads}" if cell.reads else "-"
        )
        rows.append([
            cell.mode, cell.level,
            f"{cell.acked['min']}+{cell.acked['maj']}",
            f"{cell.window_acked['min']}+{cell.window_acked['maj']}",
            f"{cell.errors['min']}+{cell.errors['maj']}",
            cell.lost["min"], cell.lost["maj"],
            stale,
            f"{cell.converge_s:.2f}" if cell.converge_s >= 0 else "-",
        ])
    blocks.append(format_table(
        ["mode", "W/R", "acked min+maj", "in-window", "errors",
         "lost min", "lost maj", "stale reads", "converge s"],
        rows,
        title="durability, availability, and staleness under partition",
    ))
    rows = [
        [
            cell.mode, cell.level,
            f"{cell.demand_vops:.0f}",
            f"{cell.write_amplification:.2f}",
            cell.repl_applies, cell.repl_reads,
            cell.hints_stored, cell.hints_delivered,
            cell.read_repairs, cell.ae_received,
            f"{cell.put_p50_ms:.1f}/{cell.put_p99_ms:.1f}",
        ]
        for cell in result.cells
    ]
    blocks.append(format_table(
        ["mode", "W/R", "demand VOP/s", "write amp", "repl applies",
         "repl reads", "hints", "delivered", "repairs", "ae",
         "put p50/p99 ms"],
        rows,
        title="the cost of consistency, priced in VOPs (cluster-wide)",
    ))
    blocks.append(
        f"acked writes lost at leaderless W>=2: {result.sloppy_quorum_lost} "
        f"(verified={all(c.verified for c in result.cells)})"
    )
    return "\n\n".join(blocks)


if __name__ == "__main__":  # pragma: no cover
    print(render(run(quick=True)))
