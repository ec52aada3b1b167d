"""Deterministic fault schedules.

A :class:`FaultPlan` is a list of :class:`FaultWindow` entries, each
making one misbehavior active over an interval of *simulated* time:
transient read/write errors (per-op probability), silently corrupted
reads (caught by checksums upstream), added per-op latency, a
bandwidth-degradation factor, and full stalls.  Because the windows are
data — not code — a chaos experiment is a value that can be printed,
diffed, and replayed bit-for-bit.

Schedules can be written literally or generated from a seed with
:meth:`FaultPlan.generate`; either way all randomness flows through an
explicit ``random.Random`` (the repo-wide determinism rule), so a given
seed always yields the same chaos.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Tuple

__all__ = ["FaultKind", "FaultWindow", "FaultPlan"]


class FaultKind(str, Enum):
    """What a fault window does to ops submitted while it is active."""

    #: reads fail with :class:`DeviceReadError` (probability per op)
    READ_ERROR = "read-error"
    #: writes fail with :class:`DeviceWriteError` (probability per op)
    WRITE_ERROR = "write-error"
    #: reads complete but deliver corrupt data (checksum catches it)
    CORRUPT_READ = "corrupt-read"
    #: every op's completion is delayed by ``extra_latency`` seconds
    LATENCY = "latency"
    #: channel service times are multiplied by ``slowdown``
    DEGRADED_BW = "degraded-bw"
    #: the device accepts no new ops until the window closes
    STALL = "stall"
    # -- network message faults (evaluated by repro.net's fabric) ----------
    #: messages are dropped in flight (probability per message)
    MSG_DROP = "msg-drop"
    #: messages are delayed by ``extra_latency`` extra seconds
    MSG_DELAY = "msg-delay"
    #: messages are delivered twice (probability per message)
    MSG_DUP = "msg-duplicate"
    #: endpoint ``groups`` are bidirectionally severed from each other
    #: (every cross-group message is dropped, deterministically)
    NET_PARTITION = "net-partition"


@dataclass(frozen=True)
class FaultWindow:
    """One misbehavior, active on ops arriving in [start, end)."""

    kind: FaultKind
    start: float
    end: float
    #: per-op failure probability (error/corruption kinds)
    probability: float = 1.0
    #: seconds added to each op's completion (LATENCY kind)
    extra_latency: float = 0.0
    #: service-time multiplier (DEGRADED_BW kind, >= 1)
    slowdown: float = 1.0
    #: endpoint groups severed from each other (NET_PARTITION kind).
    #: Endpoints not named in any group form an implicit final group —
    #: a window with ``(("node0",),)`` isolates node0 from everyone.
    groups: Tuple[Tuple[str, ...], ...] = ()

    def __post_init__(self):
        # Written so that NaN fails each check: a NaN edge would leave
        # the window silently inert, a NaN rate poison every op after it.
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"fault window [{self.start}, {self.end}) has a non-finite edge")
        if self.end <= self.start:
            raise ValueError(f"fault window [{self.start}, {self.end}) is empty")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability {self.probability} not in [0, 1]")
        if not (math.isfinite(self.extra_latency) and self.extra_latency >= 0):
            raise ValueError(f"extra latency {self.extra_latency} must be finite and >= 0")
        if not (math.isfinite(self.slowdown) and self.slowdown >= 1.0):
            raise ValueError(f"slowdown {self.slowdown} must be finite and >= 1")
        if self.kind == FaultKind.NET_PARTITION:
            if not self.groups:
                raise ValueError("NET_PARTITION window needs endpoint groups")
            seen = set()
            for group in self.groups:
                for name in group:
                    if name in seen:
                        raise ValueError(
                            f"endpoint {name!r} appears in two partition groups"
                        )
                    seen.add(name)
        elif self.groups:
            raise ValueError(f"groups only apply to NET_PARTITION, not {self.kind}")

    def severs(self, src: str, dst: str) -> bool:
        """True if this partition window cuts the ``src``→``dst`` link.

        Endpoints are assigned to their named group, or to the implicit
        "rest" group when unlisted; a message is severed iff its ends
        fall in different groups.
        """
        src_group = dst_group = -1  # -1 = the implicit rest group
        for i, group in enumerate(self.groups):
            if src in group:
                src_group = i
            if dst in group:
                dst_group = i
        return src_group != dst_group

    def active(self, now: float) -> bool:
        """True if an op arriving at ``now`` is subject to this window."""
        return self.start <= now < self.end


@dataclass
class FaultPlan:
    """A reproducible schedule of device misbehavior.

    ``seed`` feeds the injector's per-op RNG, so two devices running the
    same plan against the same op sequence inject identical faults.
    """

    windows: List[FaultWindow] = field(default_factory=list)
    seed: int = 0

    def add(self, window: FaultWindow) -> "FaultPlan":
        self.windows.append(window)
        return self

    def active(self, now: float, kind: FaultKind) -> List[FaultWindow]:
        """Windows of ``kind`` covering time ``now``."""
        return [w for w in self.windows if w.kind == kind and w.active(now)]

    def quiescent(self, now: float) -> bool:
        """True when no window of any kind covers ``now``.

        A quiescent plan is behaviorally absent for ops admitted at
        ``now``: no stall, unit service scale, zero extra latency, and —
        because the injector only draws while a window is active — no
        RNG consumption.  The device times an op admitted under a
        quiescent plan without consulting the injector.
        """
        for w in self.windows:
            if w.start <= now < w.end:
                return False
        return True

    @property
    def horizon(self) -> float:
        """Latest end time of any window (0 for an empty plan)."""
        return max((w.end for w in self.windows), default=0.0)

    def stall_until(self, now: float) -> float:
        """Latest end of any stall window covering ``now`` (else ``now``)."""
        ends = [w.end for w in self.active(now, FaultKind.STALL)]
        return max(ends, default=now)

    def service_scale(self, now: float) -> float:
        """Combined slowdown factor of active degraded-bandwidth windows."""
        scale = 1.0
        for window in self.active(now, FaultKind.DEGRADED_BW):
            scale *= window.slowdown
        return scale

    def extra_latency(self, now: float) -> float:
        """Summed added latency of active latency-spike windows."""
        return sum(w.extra_latency for w in self.active(now, FaultKind.LATENCY))

    @classmethod
    def generate(
        cls,
        seed: int,
        horizon: float,
        windows: int = 4,
        kinds: Iterable[FaultKind] = (
            FaultKind.READ_ERROR,
            FaultKind.WRITE_ERROR,
            FaultKind.CORRUPT_READ,
            FaultKind.LATENCY,
            FaultKind.DEGRADED_BW,
        ),
        duration_range: Tuple[float, float] = (0.5, 3.0),
        probability_range: Tuple[float, float] = (0.01, 0.2),
        latency_range: Tuple[float, float] = (0.0005, 0.005),
        slowdown_range: Tuple[float, float] = (2.0, 8.0),
    ) -> "FaultPlan":
        """Sample a random-but-reproducible schedule from ``seed``."""
        rng = random.Random(seed)
        kinds = tuple(kinds)
        plan = cls(seed=seed)
        for _ in range(windows):
            kind = kinds[rng.randrange(len(kinds))]
            duration = rng.uniform(*duration_range)
            start = rng.uniform(0.0, max(horizon - duration, 0.0))
            plan.add(
                FaultWindow(
                    kind=kind,
                    start=start,
                    end=start + duration,
                    probability=rng.uniform(*probability_range),
                    extra_latency=rng.uniform(*latency_range),
                    slowdown=rng.uniform(*slowdown_range),
                )
            )
        return plan
