"""Measure one kvbench workload.

Host cost is ``time.process_time()`` — the program is single-process,
single-thread and pure CPU — converted to reference-host seconds by
:mod:`refhost`, because on a shared host even CPU time swings with the
neighbours.  (A change that adds worker processes must extend this
benchmark first: their CPU is invisible to this clock.)

The timed window is a fixed *simulated* horizon, so a seed fixes the
work exactly and every simulated statistic repeats bit for bit.  It is
cut into seven equal segments of five slices each, ``sim.run(until=...)``
back to back: the host's speed is sampled between slices, digests are
taken at segment ends, and the traced run covers the first two segments.
An end-to-end run sets up and measures the same seed ``REPEATS`` times:
the set-ups give ``setup_s`` its median, equal digests prove the
simulations identical, and each slice is charged the median of what the
repeats spent on it — identical work, so the median drops a repeat that
a burst of interference hit.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import layers as layering
from .refhost import HostMeter
from .workloads import Spec, World

SEGMENTS = 7
SLICES_PER_SEGMENT = 5
#: segments the traced run profiles (the profiler costs ~3x)
TRACED_SEGMENTS = 2
#: same-seed set-up + window repeats per end-to-end run
REPEATS = 3
#: ``--seconds`` the workload horizons are sized for
NOMINAL_SECONDS = 10

#: per-layer name -> (source file suffix, function name) of a public
#: entry point; reported as ``<name>.calls_per_req``/``.cum_us_per_call``
ENTRY_POINTS = {
    "net.client_get": ("repro/net/client.py", "get"),
    "net.client_put": ("repro/net/client.py", "put"),
    "net.rpc_call": ("repro/net/rpc.py", "call"),
    "net.fabric_send": ("repro/net/fabric.py", "send"),
    "node.get": ("repro/node/server.py", "get"),
    "node.put": ("repro/node/server.py", "put"),
    "node.scan": ("repro/node/server.py", "scan"),
    "node.apply_replica": ("repro/node/server.py", "apply_replica"),
    "engine.get": ("repro/engine/db.py", "get"),
    "engine.put": ("repro/engine/db.py", "put"),
    "engine.scan": ("repro/engine/db.py", "scan"),
    "engine.wal_append": ("repro/engine/wal.py", "append"),
    "core.read": ("repro/core/scheduler.py", "read"),
    "core.write": ("repro/core/scheduler.py", "write"),
    "ssd.submit": ("repro/ssd/device.py", "submit"),
    "ssd.fs_read": ("repro/ssd/filesystem.py", "read"),
    "ssd.fs_append": ("repro/ssd/filesystem.py", "append"),
}
_HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")


def timed_setup(spec: Spec, seed: int, meter: HostMeter):
    """Build, preload, plan and warm up a world, metering every stage.

    Returns ``(world, reference-host seconds, wall seconds)``.
    """
    gc.collect()
    wall0 = time.perf_counter()
    meter.sample()
    cpu0 = time.process_time()
    world = World(spec, seed)
    ref_s = meter.charge(time.process_time() - cpu0)
    cpu0 = time.process_time()
    for _stage in world.set_up():
        ref_s += meter.charge(time.process_time() - cpu0)
        cpu0 = time.process_time()
    return world, ref_s, time.perf_counter() - wall0


# -- the layers' public statistics ------------------------------------------


def snapshot(world: World) -> dict:
    """Every cumulative counter the layers publish, keyed for diffing."""
    snap: dict = {
        "now": world.sim.now,
        "driver/tallies": {
            name: getattr(world, name)
            for name in ("completed", "failed", "wrong", "app_bytes", "put_bytes", "acked_puts")
        },
    }
    for node in world.nodes:
        snap[f"ssd/{node.name}"] = {
            k: v for k, v in vars(node.device.stats).items() if isinstance(v, (int, float))
        }
        for tenant in node.tenants:
            snap[f"usage/{node.name}/{tenant}"] = dict(vars(node.scheduler.usage(tenant)))
            snap[f"engine/{node.name}/{tenant}"] = dict(vars(node.engines[tenant].stats))
            stats = node.request_stats[tenant]
            snap[f"requests/{node.name}/{tenant}"] = {k: getattr(stats, k) for k in stats.FIELDS}
    if world.cluster is not None:
        endpoints = [service.rpc for service in world.cluster.services.values()]
        endpoints += [client.rpc for client in world.clients]
        for rpc in endpoints:
            snap[f"rpc/{rpc.name}"] = dict(vars(rpc.stats))
        for (src, dst), link in world.cluster.fabric.link_stats.items():
            snap[f"link/{src}/{dst}"] = dict(vars(link))
    return snap


def digest(snap: dict) -> str:
    """Hash of a snapshot: equal digests mean the simulation took the
    same path (floats are hashed by ``repr``, i.e. bit for bit)."""
    return hashlib.sha256(json.dumps(snap, sort_keys=True).encode()).hexdigest()[:16]


# -- the timed window -----------------------------------------------------------


@dataclass
class Window:
    """What one pass over the timed window observed."""

    horizon: float
    before: dict
    after: dict = field(default_factory=dict)
    #: per slice: process-CPU seconds, the same in reference-host
    #: seconds, wall seconds, requests completed
    slice_cpu: List[float] = field(default_factory=list)
    slice_ref: List[float] = field(default_factory=list)
    slice_wall: List[float] = field(default_factory=list)
    slice_done: List[int] = field(default_factory=list)
    #: segment number -> sim_digest at its end
    digests: Dict[int, str] = field(default_factory=dict)
    read_lat: List[float] = field(default_factory=list)
    write_lat: List[float] = field(default_factory=list)

    def total(self, group: str, name: str) -> float:
        """Window delta of one counter, summed over a group's members
        (``ssd``, ``usage``, ``engine``, ``requests``, ``rpc``, ``link``
        or the benchmark's own ``driver`` tallies)."""
        total = 0
        for key, counters in self.after.items():
            if key.startswith(group + "/"):
                total += counters[name] - self.before.get(key, {}).get(name, 0)
        return total


def run_window(
    world: World, horizon: float, meter: HostMeter, segments: int = SEGMENTS,
    profiler: Optional[cProfile.Profile] = None,
) -> Window:
    """Run the first ``segments`` of the window's seven segments."""
    sim = world.sim
    window = Window(horizon=horizon * segments / SEGMENTS, before=snapshot(world))
    start = sim.now
    reads0, writes0 = len(world.read_lat), len(world.write_lat)
    slices = SEGMENTS * SLICES_PER_SEGMENT
    gc.collect()
    meter.sample()
    for k in range(1, segments * SLICES_PER_SEGMENT + 1):
        done = world.completed
        cpu0, wall0 = time.process_time(), time.perf_counter()
        if profiler is not None:
            profiler.enable()
        sim.run(until=start + horizon * k / slices)
        if profiler is not None:
            profiler.disable()
        window.slice_cpu.append(time.process_time() - cpu0)
        window.slice_wall.append(time.perf_counter() - wall0)
        window.slice_ref.append(meter.charge(window.slice_cpu[-1]))
        window.slice_done.append(world.completed - done)
        if k in (TRACED_SEGMENTS * SLICES_PER_SEGMENT, slices):
            window.digests[k // SLICES_PER_SEGMENT] = digest(snapshot(world))
    window.after = snapshot(world)
    window.read_lat = world.read_lat[reads0:]
    window.write_lat = world.write_lat[writes0:]
    return window


def window_ref_s(windows: List[Window]) -> float:
    """Reference-host seconds one pass over the window costs: per
    slice, the median of what the same-seed repeats spent on it."""
    return sum(
        statistics.median(costs) for costs in zip(*(window.slice_ref for window in windows))
    )


def _quantile(sorted_samples: List[float], q: float) -> float:
    """Nearest-rank quantile of exact samples (no bucketing)."""
    return sorted_samples[min(len(sorted_samples) - 1, int(q * len(sorted_samples)))]


def latency_summary(window: Window) -> Dict[str, Dict[str, float]]:
    """Simulated latency per op and over all requests, in ms, with the
    sample counts the percentiles stand on."""
    summary = {}
    for name, samples in (
        ("read", window.read_lat), ("write", window.write_lat),
        ("all", window.read_lat + window.write_lat),
    ):
        ordered = sorted(samples)
        summary[name] = {"samples": len(ordered), "mean_ms": 1e3 * sum(ordered) / len(ordered)}
        for q in (50, 90, 99):
            summary[name][f"p{q}_ms"] = 1e3 * _quantile(ordered, q / 100)
    return summary


def end_to_end(windows: List[Window], setup_s: float, latency: dict) -> Dict[str, float]:
    """The end-to-end metrics: three on the host clock, six simulated
    (those are the same in every repeat, so the first one's are used;
    ``latency`` is its :func:`latency_summary`)."""
    window = windows[0]
    total = window.total
    completed = total("driver", "completed")
    return {
        "req_per_cpu_s": completed / window_ref_s(windows),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_req_per_s": completed / window.horizon,
        # Means per op, the tail over all requests: across seeds, the p99
        # of a workload's minority op (5-10% of its requests) spreads by
        # 10-20%, and the read median is exactly 0 where the cache hits.
        "sim_read_mean_ms": latency["read"]["mean_ms"],
        "sim_write_mean_ms": latency["write"]["mean_ms"],
        "sim_p99_ms": latency["all"]["p99_ms"],
        "io_amp": (total("ssd", "read_bytes") + total("ssd", "write_bytes"))
        / total("driver", "app_bytes"),
        "vop_per_req": total("usage", "vops") / completed,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_counters(window: Window, world: World) -> Dict[str, float]:
    """Deterministic per-layer counters, as deltas over the window."""
    total = window.total
    reqs = total("driver", "completed")
    msgs = total("link", "messages")
    chunks = total("usage", "ops")
    device_writes = total("ssd", "write_bytes")
    profile = world.nodes[0].profile
    device_seconds = window.horizon * len(world.nodes)
    # Insulation: each tenant's achieved share of VOPs over its reserved
    # share, worst tenant against best (1.0 = shares match reservations).
    weights = dict(world.spec.tenants)
    achieved = {
        tenant: sum(
            counters["vops"] - window.before[key]["vops"]
            for key, counters in window.after.items()
            if key.startswith("usage/") and key.endswith("/" + tenant)
        )
        for tenant in weights
    }
    fairness = [
        _ratio(achieved[t], sum(achieved.values())) / (weights[t] / sum(weights.values()))
        for t in weights
    ]
    return {
        "net.round_trips_per_req": _ratio(total("rpc", "round_trips"), reqs),
        "net.msgs_per_req": _ratio(msgs, reqs),
        "net.bytes_per_req": _ratio(total("link", "bytes"), reqs),
        "net.retries_per_kreq": _ratio(1e3 * total("rpc", "retries"), reqs),
        "net.nic_wait_us_per_msg": _ratio(1e6 * total("link", "queue_wait"), msgs),
        "node.cache_hit_rate": _ratio(total("requests", "cache_hits"), total("requests", "gets")),
        "node.retries_per_kreq": _ratio(1e3 * total("requests", "retries"), reqs),
        "node.repl_applies_per_put": _ratio(
            total("requests", "repl_applies"), total("requests", "puts")
        ),
        "engine.index_probes_per_get": _ratio(
            total("engine", "index_probes"), total("engine", "gets")
        ),
        "engine.index_cache_hit_rate": _ratio(
            total("engine", "index_cache_hits"), total("engine", "index_probes")
        ),
        "engine.flushes": total("engine", "flushes"),
        "engine.compactions": total("engine", "compactions"),
        "engine.compaction_bytes_per_user_byte": _ratio(
            total("engine", "compaction_input_bytes"), total("driver", "put_bytes")
        ),
        "engine.put_stalls": total("engine", "put_stalls"),
        "engine.scanned_entries_per_scan": _ratio(
            total("engine", "scanned_entries"), total("engine", "scans")
        ),
        "core.chunks_per_req": _ratio(chunks, reqs),
        "core.tasks_per_req": _ratio(total("usage", "tasks"), reqs),
        "core.vop_per_chunk": _ratio(total("usage", "vops"), chunks),
        "core.failed_ops": total("usage", "failed_ops"),
        "core.share_mmr": _ratio(min(fairness), max(fairness)),
        "ssd.ops_per_req": _ratio(total("ssd", "reads") + total("ssd", "writes"), reqs),
        "ssd.bytes_per_req": _ratio(total("ssd", "read_bytes") + device_writes, reqs),
        "ssd.write_amp": _ratio(
            device_writes + total("ssd", "gc_pages_copied") * profile.page_size, device_writes
        ),
        "ssd.gc_runs": total("ssd", "gc_runs"),
        "ssd.gc_pages_per_kreq": _ratio(1e3 * total("ssd", "gc_pages_copied"), reqs),
        "ssd.controller_busy_frac": total("ssd", "controller_busy") / device_seconds,
        "ssd.channel_busy_frac": total("ssd", "channel_busy")
        / (device_seconds * profile.channels),
    }


def traced_layers(stats: dict, traced: Window):
    """Per-layer host cost from the profile table of the traced window;
    returns the metrics and the bucketed table they came from."""
    metrics: Dict[str, float] = {}
    table = layering.bucket(stats)
    requests = traced.total("driver", "completed")
    # The profiler's seconds, like the window's, are the host's: scale
    # them by the host speed metered over the same slices.
    to_ref_us = 1e6 * sum(traced.slice_ref) / sum(traced.slice_cpu)
    for name, layer in table.items():
        metrics[f"{name}.self_us_per_req"] = to_ref_us * layer["self_s"] / requests
        metrics[f"{name}.self_share"] = layer["self_share"]
        metrics[f"{name}.calls_per_req"] = layer["calls"] / requests
    for name, (suffix, func) in ENTRY_POINTS.items():
        calls, cum_s = layering.frame_cost(stats, suffix, func)
        metrics[f"{name}.calls_per_req"] = calls / requests
        metrics[f"{name}.cum_us_per_call"] = _ratio(to_ref_us * cum_s, calls)
    pushes = stats[_HEAPPUSH][1] if _HEAPPUSH in stats else 0
    metrics["sim.events_per_req"] = pushes / requests
    metrics["host.attributed_frac"] = 1.0 - table["other"]["self_share"]
    return metrics, table
