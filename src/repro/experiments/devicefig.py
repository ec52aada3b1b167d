"""devicefig: which Libra conclusions survive a device-generation change?

The paper's provisioning results were measured on single-NCQ SATA-era
SSDs.  This figure re-runs a fig4-style interference probe and a
fig9-style cost-model accuracy probe across the device design space:

- **queue architecture** — the SATA :class:`~repro.ssd.SsdDevice`
  versus the multi-queue :class:`~repro.ssd.NvmeDevice` at 1, 4, and 8
  SQ/CQ pairs (all sharing the intel320 flash constants, so queue
  structure is the only variable);
- **FTL policy** — greedy, cost-benefit, and hot/cold-stream GC
  (:mod:`repro.ssd.ftl_policy`);
- **overprovisioning** — 7%, 14%, and 28% spare capacity.

Each cell reports: pure-read VOP/s, 1:1-mix VOP/s at the paper's valley
point (4K reads vs 32K writes), the *valley ratio* (mix / pure-read —
higher means flatter valley), write amplification during the mix, and
the per-group IOP-insulation MMR under the SATA-calibrated exact cost
model (does the paper's pricing still insulate tenants?).

Cells hold the number of *spare* erase blocks constant (112) across
overprovision points and pin the GC watermarks to fractions of the
achievable free space — the stock profile watermarks are fractions of
total capacity and are unreachable below ~12% OP.  So the logical
capacity varies per OP point while GC trigger/target (in blocks) stays
fixed; utilization is the isolated variable, as in FTL studies.

A pinned acceptance leg runs after the sweep on an NVMe cell: a
:class:`~repro.obs.VopAudit` that must reconcile at 1.0000.

Every cell owns an aged device seeded from ``derive_seed(seed, index)``
so ``--jobs N`` fans cells over workers byte-identically; ``--smoke``
shrinks the grid to 4 cells for CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, Optional, Tuple

from ..analysis.report import format_table
from ..core.calibration import reference_calibration
from ..core.vop import make_cost_model
from ..obs.metrics import mmr
from ..ssd import get_profile
from ..workload.iobench import DeviceEnv, run_interference_trial
from .common import KIB, derive_seed, parallel_map

__all__ = ["run", "render", "DeviceFigResult"]

#: (label, queue count) — 0 keeps the base (SATA) profile.  ``make_device``
#: builds one queue as the SATA model, bit-identical to a one-queue NvmeDevice.
DEVICES: Tuple[Tuple[str, int], ...] = (
    ("sata", 0), ("nvme x1", 1), ("nvme x4", 4), ("nvme x8", 8),
)
POLICIES: Tuple[str, ...] = ("greedy", "costbenefit", "hotcold")
OVERPROVISIONS: Tuple[float, ...] = (0.07, 0.14, 0.28)

#: spare erase blocks held constant across overprovision points
SPARE_BLOCKS = 112
#: the paper's fig4 valley point: small reads against mid-size writes
READ_SIZE = 4 * KIB
WRITE_SIZE = 32 * KIB


@dataclass
class DeviceFigResult:
    profile: str
    mode: str
    #: (device label, policy, overprovision) -> metrics dict with keys
    #: read_vops, mix_vops, valley, write_amp, insulation
    cells: Dict[Tuple[str, str, float], Dict[str, float]]
    #: pinned VopAudit leg: (cell key, audit summary dict)
    audit_cell: Tuple[str, str, float]
    audit: Dict[str, object]

    def mean(self, metric: str, device: Optional[str] = None,
             policy: Optional[str] = None, op: Optional[float] = None) -> float:
        """Mean of one metric over the cells matching the given axes."""
        values = [
            m[metric] for (d, p, o), m in self.cells.items()
            if (device is None or d == device)
            and (policy is None or p == policy)
            and (op is None or o == op)
        ]
        return sum(values) / len(values)


def _cell_profile(profile_name: str, queues: int, policy: str, op: float):
    """The device profile for one design-space cell (see module docstring)."""
    base = get_profile(profile_name)
    logical_blocks = int(round(SPARE_BLOCKS / op))
    profile = base.with_capacity(logical_blocks * base.block_size)
    free_max = op / (1.0 + op)  # achievable free-block fraction
    profile = replace(
        profile,
        overprovision=op,
        ftl_policy=policy,
        gc_low_watermark=0.30 * free_max,
        gc_high_watermark=0.55 * free_max,
    )
    if queues:
        profile = profile.with_queues(queues)
    return profile


def _cell(args) -> Dict[str, float]:
    """One design-space cell: interference probe + model-accuracy probe.

    The unit of parallelism: owns a freshly aged device seeded from the
    cell index, runs a pure-read trial then the 1:1-mix valley trial on
    it (in that order, so GC churn from the mix never pollutes the read
    baseline), and derives every reported metric locally.
    """
    profile_name, queues, policy, op, index, duration, warmup, seed = args
    profile = _cell_profile(profile_name, queues, policy, op)
    env = DeviceEnv(profile, seed=derive_seed(seed, index))
    trial = partial(
        run_interference_trial, profile, read_size=READ_SIZE, write_size=WRITE_SIZE,
        duration=duration, warmup=warmup, seed=seed, env=env,
    )
    read_trial = trial(read_fraction=1.0)
    before = env.device.stats.snapshot()
    mix_trial = trial(read_fraction=None)
    after = env.device.stats
    host_pages = (after.write_bytes - before.write_bytes) / profile.page_size
    copied = after.gc_pages_copied - before.gc_pages_copied
    write_amp = 1.0 + (copied / host_pages if host_pages else 0.0)
    readers = [t for t in mix_trial.tenants.values() if t.spec.read_fraction == 1.0]
    writers = [t for t in mix_trial.tenants.values() if t.spec.read_fraction == 0.0]
    insulation = min(
        mmr([t.iops_per_sec(mix_trial.duration) for t in readers]),
        mmr([t.iops_per_sec(mix_trial.duration) for t in writers]),
    )
    read_vops = read_trial.total_vops_per_sec
    mix_vops = mix_trial.total_vops_per_sec
    return {
        "read_vops": read_vops,
        "mix_vops": mix_vops,
        "valley": mix_vops / read_vops if read_vops else 0.0,
        "write_amp": write_amp,
        "insulation": insulation,
    }


def _audit_leg(profile_name: str, cell, duration: float, seed: int):
    """VopAudit reconciliation on one NVMe cell (fresh env, per audit docs)."""
    from ..obs import VopAudit

    _label, queues, policy, op = cell
    profile = _cell_profile(profile_name, queues, policy, op)
    cost_model = make_cost_model("exact", reference_calibration(profile.name))
    audit = VopAudit(cost_model)
    env = DeviceEnv(profile, seed=seed)
    run_interference_trial(
        profile, read_size=READ_SIZE, write_size=WRITE_SIZE,
        read_fraction=None, duration=duration, warmup=0.05, seed=seed,
        cost_model=cost_model, env=env, audit=audit,
    )
    # The trial's fixed drain window can be too short for a deep NVMe
    # queue under GC backpressure; reconciliation is only meaningful
    # once every dispatched op has completed.
    for _ in range(200):
        if env.device.in_flight == 0:
            break
        env.sim.run(until=env.sim.now + 0.05)
    return audit.summary(env.sim.now)


def run(
    quick: bool = True,
    profile_name: str = "intel320",
    seed: int = 17,
    jobs: int = 1,
    smoke: bool = False,
) -> DeviceFigResult:
    """Run the device design-space sweep.

    ``smoke`` shrinks to a 4-cell CI grid; ``quick`` (the default) runs
    a 24-cell subset (two overprovision points); full mode runs the
    whole 36-cell {device} x {policy} x {overprovision} grid.  Results
    are byte-identical for any ``jobs``.
    """
    if smoke:
        mode = "smoke"
        devices = (DEVICES[0], DEVICES[3])
        policies = ("greedy", "hotcold")
        ops = (0.14,)
        duration, warmup = 0.15, 0.05
        audit_duration = 0.1
    elif quick:
        mode = "quick"
        devices = DEVICES
        policies = POLICIES
        ops = (0.07, 0.28)
        duration, warmup = 0.2, 0.08
        audit_duration = 0.15
    else:
        mode = "full"
        devices = DEVICES
        policies = POLICIES
        ops = OVERPROVISIONS
        duration, warmup = 0.4, 0.15
        audit_duration = 0.3

    grid = [
        (label, queues, policy, op)
        for label, queues in devices
        for policy in policies
        for op in ops
    ]
    tasks = [
        (profile_name, queues, policy, op, index, duration, warmup, seed)
        for index, (_label, queues, policy, op) in enumerate(grid)
    ]
    cells = {
        (label, policy, op): metrics
        for (label, _q, policy, op), metrics in zip(
            grid, parallel_map(_cell, tasks, jobs=jobs)
        )
    }

    # Pinned acceptance leg on the highest-queue NVMe cell in the grid.
    nvme_cells = [c for c in grid if c[1] > 1] or [c for c in grid if c[1] == 1]
    pinned = max(nvme_cells, key=lambda c: c[1])
    audit = _audit_leg(profile_name, pinned, audit_duration, derive_seed(seed, 101))
    return DeviceFigResult(
        profile=profile_name, mode=mode, cells=cells,
        audit_cell=(pinned[0], pinned[2], pinned[3]), audit=audit,
    )


def render(result: DeviceFigResult) -> str:
    rows = []
    for (device, policy, op), m in result.cells.items():
        rows.append([
            device, policy, f"{op:.0%}",
            f"{m['read_vops'] / 1e3:.1f}", f"{m['mix_vops'] / 1e3:.1f}",
            f"{m['valley']:.3f}", f"{m['write_amp']:.2f}",
            f"{m['insulation']:.3f}",
        ])
    devices = [d for d, _q in DEVICES if any(k[0] == d for k in result.cells)]
    policies = [p for p in POLICIES if any(k[1] == p for k in result.cells)]
    ops = sorted({k[2] for k in result.cells})

    lines = [
        f"devicefig — device design space on {result.profile} flash "
        f"({result.mode} mode, {len(result.cells)} cells)",
        "",
        format_table(
            ["device", "ftl", "op", "read kop/s", "mix kop/s",
             "valley", "WA", "MMR"],
            rows,
            title="fig4 valley point (4K reads vs 32K writes) per design cell",
        ),
        "",
        "Conclusions (which paper results survive the device change):",
    ]
    sata_valley = result.mean("valley", device="sata")
    top = devices[-1]
    top_valley = result.mean("valley", device=top)
    flattens = top_valley > sata_valley + 0.05
    lines.append(
        f"- fig4 interference valley: mix/read = {sata_valley:.3f} on sata "
        f"vs {top_valley:.3f} on {top} — "
        + ("the valley FLATTENS under multi-queue parallelism"
           if flattens else "the valley PERSISTS across queue architectures")
    )
    scaling = ", ".join(
        f"{d}: {result.mean('mix_vops', device=d) / 1e3:.1f}" for d in devices
    )
    lines.append(f"- mixed-workload VOP/s by queue architecture: {scaling} kop/s")
    wa = ", ".join(
        f"{p}: {result.mean('write_amp', policy=p):.2f}" for p in policies
    )
    lines.append(f"- write amplification by FTL policy (mean): {wa}")
    wa_op = ", ".join(
        f"{op:.0%}: {result.mean('write_amp', op=op):.2f}" for op in ops
    )
    lines.append(f"- write amplification by overprovisioning (mean): {wa_op}")
    sata_ins = result.mean("insulation", device="sata")
    top_ins = result.mean("insulation", device=top)
    survives = top_ins >= sata_ins - 0.1
    lines.append(
        f"- SATA-calibrated exact-model insulation MMR: {sata_ins:.3f} on "
        f"sata vs {top_ins:.3f} on {top} — the cost model "
        + ("SURVIVES" if survives else "DEGRADES")
    )
    dev_label, policy, op = result.audit_cell
    lines.append(
        f"- VOP audit on ({dev_label}, {policy}, {op:.0%}): reconciliation "
        f"{result.audit['reconciliation']:.4f}, "
        + ("ok" if result.audit["ok"] else "FLAGGED")
    )
    return "\n".join(lines)
