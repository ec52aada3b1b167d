"""Elasticity experiment: the control plane under live traffic.

Not a figure from the paper — the capstone over :mod:`repro.control`.
Two independent scenarios, each its own simulation cell (so ``--jobs``
parallelizes them with byte-identical results):

- **grow** — a 5-node RF=2 cluster quadruples to 20 nodes while a
  closed-loop client writes continuously, with a hot-partition split
  dropped mid-growth.  Every node added triggers minimal-movement live
  migrations (snapshot ship + WAL tail replay + fenced cutover), each
  with its own atomic map version bump.  The acceptance bars: **zero
  acknowledged writes lost**, every acknowledged key reads back after
  the final cutover, and every node's :class:`~repro.obs.VopAudit`
  reconciles scheduler charges against device work at 1.0000 *with the
  migration traffic included* — movement is charged in VOPs like any
  other work, so provisioning sees it.

- **churn** — the :mod:`repro.control.churn` lifecycle driver runs a
  seeded tenant-arrival plan (arrivals, departures, scheduled
  rebalances) across a multi-node cluster, every op through its owner
  node's Libra scheduler and device.

Everything is seed-deterministic: a serial and a ``--jobs`` run
return equal outcomes (wall-clock fields aside).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..analysis.report import format_table
from ..control.churn import ChurnConfig, run_churn_trial
from ..core.policy import Reservation
from ..faults import StorageFault
from ..net import NetConfig
from ..node import StorageCluster
from ..obs import Observability
from ..sim import Simulator
from .common import AckedWrites, check_schedule, derive_seed, parallel_map, value_size

__all__ = ["run", "render", "ScaleResult", "GrowCell", "ChurnCell"]

TENANT = "elastic"
RF = 2
START_NODES = 5
END_NODES = 20
PARTITIONS = 8
KEY_SPACE = 1 << 16


@dataclass(frozen=True)
class GrowPlan:
    """The grow scenario's schedule, in simulated seconds."""

    grow_interval: float
    #: closed-loop writer think gap
    write_gap: float
    #: extra run time after the last grow before verification
    settle: float
    end_nodes: int = END_NODES

    def __post_init__(self):
        whole = isinstance(self.end_nodes, int) and not isinstance(self.end_nodes, bool)
        check_schedule(self, (
            ("end_nodes", whole and self.end_nodes > START_NODES, f"an int > {START_NODES}"),
        ))


#: smoke < quick < full: same scenario shape, lighter schedules
SMOKE = GrowPlan(grow_interval=0.6, write_gap=0.02, settle=2.0, end_nodes=8)
QUICK = GrowPlan(grow_interval=0.8, write_gap=0.012, settle=3.0)
FULL = GrowPlan(grow_interval=2.0, write_gap=0.004, settle=6.0)


@dataclass
class GrowCell:
    """Outcome of the grow-under-traffic scenario."""

    seed: int
    start_nodes: int = START_NODES
    end_nodes: int = END_NODES
    acked: int = 0
    errors: int = 0
    #: acked-but-unreadable keys after the final cutover (the bar: 0)
    lost: int = 0
    migrations: int = 0
    splits: int = 0
    snapshot_records: int = 0
    tail_records: int = 0
    map_version: int = 0
    fence_seconds_total: float = 0.0
    #: per-node VopAudit reconciliation extremes (the bar: 1.0 ± tol)
    reconciliation_min: float = 1.0
    reconciliation_max: float = 1.0
    audit_ok: bool = False
    #: cluster-wide VOPs charged, and the share replica applies booked
    #: (migration ship lands through ``apply_replica``)
    total_vops: float = 0.0
    repl_applies: int = 0
    verified: bool = False


@dataclass
class ChurnCell:
    """Outcome of the tenant-churn scenario."""

    seed: int
    tasks: int = 0
    ops: int = 0
    bytes: int = 0
    map_version: int = 0
    admitted: int = 0
    departed: int = 0
    rebalances: int = 0
    moved_bytes: int = 0
    wall_seconds: float = 0.0
    #: canonical agreement key (repr'd) for run-to-run comparison
    key: str = ""


@dataclass
class ScaleResult:
    profile: str
    seed: int
    mode: str  # "smoke" | "quick" | "full"
    grow: Optional[GrowCell] = None
    churn: Optional[ChurnCell] = None


def _run_grow(args: Tuple[str, GrowPlan, int]) -> GrowCell:
    """One grow-under-traffic simulation: 5 -> N nodes + a hot split."""
    profile_name, plan, seed = args
    cell = GrowCell(seed=seed, end_nodes=plan.end_nodes)
    sim = Simulator()
    net = NetConfig(rf=RF, replication_mode="primary-backup", write_quorum=RF)
    cluster = StorageCluster(
        sim, n_nodes=START_NODES, profile=profile_name, partitions_per_tenant=PARTITIONS,
        seed=seed, net=net, obs=Observability(audit=True),
    )
    cluster.enable_control(key_space=KEY_SPACE, vnodes=32)
    cluster.add_ranged_tenant(TENANT, Reservation(gets=400.0, puts=400.0))
    client = cluster.make_client("app")
    acks = AckedWrites((TENANT,))
    state = {"errors": 0, "stop": False}

    def writer():
        rng = random.Random(f"scale:{seed}:writer")
        op = 0
        while not state["stop"]:
            op += 1
            key = rng.randrange(KEY_SPACE)
            size = value_size(op)
            try:
                yield from client.put(TENANT, key, size)
                acks.ack(TENANT, key, size)
            except StorageFault:
                state["errors"] += 1
            yield sim.timeout(plan.write_gap)

    def controller():
        n_grows = plan.end_nodes - START_NODES
        split_after = n_grows // 2
        for i in range(n_grows):
            yield sim.timeout(plan.grow_interval)
            yield from cluster.grow()
            if i == split_after:
                # Split the widest range mid-growth — the control
                # plane's two mechanisms compose on one live map.
                pm = cluster.partition_map
                widest = max(
                    pm.partitions(TENANT), key=lambda p: (p.width, -p.index)
                )
                yield from cluster.split_partition(TENANT, widest.index)
                cell.splits += 1
        yield sim.timeout(plan.settle)
        state["stop"] = True

    def verifier():
        # After the writer stops: every acknowledged key must read back
        # at its last acknowledged size through the *final* map.
        while not state["stop"]:
            yield sim.timeout(0.25)
        yield sim.timeout(0.5)
        check = cluster.make_client("verify")
        yield from acks.read_back(TENANT, lambda key: check.get(TENANT, key))

    sim.process(writer(), name="scale.writer")
    sim.process(controller(), name="scale.controller")
    sim.process(verifier(), name="scale.verify")
    horizon = (plan.end_nodes - START_NODES) * plan.grow_interval + plan.settle
    sim.run(until=horizon + 60.0)
    cell.verified = acks.verified
    cell.lost = acks.lost(TENANT)
    cluster.stop()
    sim.run(until=sim.now + 1.0)

    # -- collect -----------------------------------------------------------
    cell.acked = len(acks.expected[TENANT])
    cell.errors = state["errors"]
    cell.map_version = cluster.partition_map.version
    reports = cluster.reshard.reports
    cell.migrations = sum(1 for r in reports if r.kind == "move")
    cell.snapshot_records = sum(r.snapshot_records for r in reports)
    cell.tail_records = sum(r.tail_records for r in reports)
    cell.fence_seconds_total = round(
        sum(r.fence_seconds for r in reports), 9
    )
    summaries = [node.audit.summary() for node in cluster.nodes.values() if node.audit is not None]
    recs = [summary["reconciliation"] for summary in summaries]
    if recs:
        cell.reconciliation_min = round(min(recs), 6)
        cell.reconciliation_max = round(max(recs), 6)
    cell.audit_ok = all(summary["ok"] for summary in summaries)
    cell.total_vops = round(
        sum(
            node.scheduler.usage(TENANT).vops
            for node in cluster.nodes.values()
            if TENANT in node.tenants
        ),
        6,
    )
    cell.repl_applies = cluster.total_stats(TENANT).repl_applies
    return cell


def _churn_config(mode: str, seed: int) -> ChurnConfig:
    if mode == "smoke":
        return ChurnConfig(
            n_nodes=8, n_tenants=120, horizon=90.0, arrival_rate=3.0,
            mean_lifetime=45.0, rebalance_interval=15.0, seed=seed,
        )
    if mode == "quick":
        return ChurnConfig(
            n_nodes=12, n_tenants=300, horizon=180.0, arrival_rate=4.0,
            mean_lifetime=80.0, rebalance_interval=20.0, seed=seed,
        )
    return ChurnConfig(seed=seed)  # full: 50 nodes, 1000 tenants, 600s


def _run_churn(args: Tuple[str, int]) -> ChurnCell:
    """One churn run at ``scale_mode`` ("smoke" | "quick" | "full")."""
    scale_mode, seed = args
    result = run_churn_trial(_churn_config(scale_mode, seed))
    return ChurnCell(
        seed=seed,
        tasks=result.total_tasks,
        ops=result.total_ops,
        bytes=result.total_bytes,
        map_version=result.map_version,
        admitted=result.admitted,
        departed=result.departed,
        rebalances=result.rebalances,
        moved_bytes=result.moved_bytes,
        wall_seconds=round(result.wall_seconds, 3),
        key=repr(result.agreement_key()),
    )


def _cell(task):
    """One scenario (the unit of parallelism): ``(runner, args)``."""
    scenario, args = task
    return scenario(args)


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 53,
    jobs: int = 1,
    smoke: bool = False,
) -> ScaleResult:
    """Run both elasticity scenarios; the cells are independent
    simulations, so the grid parallelizes over ``jobs`` with
    byte-identical results.  ``smoke`` shrinks both scenarios to a
    CI-sized footprint (a few seconds total)."""
    mode = "smoke" if smoke else ("quick" if quick else "full")
    plan = {"smoke": SMOKE, "quick": QUICK, "full": FULL}[mode]
    result = ScaleResult(profile=profile_name, seed=seed, mode=mode)
    result.grow, result.churn = parallel_map(
        _cell,
        [(_run_grow, (profile_name, plan, derive_seed(seed, 0))),
         (_run_churn, (mode, derive_seed(seed, 1)))],
        jobs=jobs,
    )
    return result


def render(result: ScaleResult) -> str:
    g = result.grow
    blocks = [
        f"Elasticity — grow {g.start_nodes}->{g.end_nodes} nodes + hot "
        f"split under closed-loop writes, RF={RF}, {result.profile} "
        f"({result.mode})",
    ]
    blocks.append(format_table(
        ["acked", "errors", "lost", "migrations", "splits",
         "snapshot recs", "tail recs", "map version",
         "fence total ms", "audit min/max", "ok"],
        [[
            g.acked, g.errors, g.lost, g.migrations, g.splits,
            g.snapshot_records, g.tail_records, g.map_version,
            f"{g.fence_seconds_total * 1e3:.2f}",
            f"{g.reconciliation_min:.4f}/{g.reconciliation_max:.4f}",
            g.audit_ok and g.verified,
        ]],
        title="grow under traffic: durability and VOP conservation",
    ))
    c = result.churn
    blocks.append(format_table(
        ["tasks", "ops", "bytes", "admitted", "departed",
         "rebalances", "map ver", "wall s"],
        [[
            c.tasks, c.ops, c.bytes, c.admitted, c.departed,
            c.rebalances, c.map_version, f"{c.wall_seconds:.2f}",
        ]],
        title="tenant churn: arrivals, departures and rebalances",
    ))
    blocks.append(
        f"acked writes lost across {g.migrations} live migrations + "
        f"{g.splits} splits: {g.lost}"
    )
    return "\n\n".join(blocks)
