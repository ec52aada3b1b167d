"""Per-device fault injector.

The injector owns the per-op randomness of a :class:`FaultPlan` and the
fault-side counters of :class:`~repro.ssd.stats.SsdStats`.  The device
consults it at op admission: arrival time decides which windows apply,
and a dedicated seeded ``random.Random`` draws the error outcomes.
Draws happen only while an applicable window is active, so runs without
faults consume no randomness and runs with the same plan, seed, and op
sequence inject byte-identical faults.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import CorruptionError, DeviceReadError, DeviceWriteError
from .plan import FaultKind, FaultPlan

__all__ = ["FaultInjector", "NetFaultInjector"]


class _WindowedDraws:
    """A plan plus the seeded RNG its windowed probability draws use.

    ``salt`` gives each injector its own stream, decoupled from the
    device/FTL seed and from the other injector, so adding one kind of
    fault never perturbs another's randomness.
    """

    def __init__(self, plan: FaultPlan, name: str, salt: int):
        self.plan = plan
        self.name = name
        self._rng = random.Random((plan.seed << 1) ^ salt)

    def _roll(self, now: float, kind: FaultKind) -> bool:
        """One draw per active ``kind`` window until one fires."""
        for window in self.plan.active(now, kind):
            if self._rng.random() < window.probability:
                return True
        return False


class FaultInjector(_WindowedDraws):
    """Evaluates a :class:`FaultPlan` against individual device ops."""

    def __init__(self, plan: FaultPlan, name: str = "ssd"):
        super().__init__(plan, name, 0x5EEDFA17)
        self.injected_read_errors = 0
        self.injected_write_errors = 0
        self.injected_corruptions = 0

    # -- timing effects --------------------------------------------------------

    def quiescent(self, now: float) -> bool:
        """True when no fault window covers ``now`` (see the plan)."""
        return self.plan.quiescent(now)

    def stall_until(self, now: float) -> float:
        """Admission time for an op arriving at ``now`` (>= now)."""
        return self.plan.stall_until(now)

    def service_scale(self, now: float) -> float:
        return self.plan.service_scale(now)

    def extra_latency(self, now: float) -> float:
        return self.plan.extra_latency(now)

    # -- error outcomes --------------------------------------------------------

    def draw_read_fault(self, now: float, offset: int, size: int) -> Optional[Exception]:
        """Fault (if any) for a read admitted at ``now``.

        Device errors take precedence over corruption: an op that fails
        outright never delivers data to corrupt.
        """
        if self._roll(now, FaultKind.READ_ERROR):
            self.injected_read_errors += 1
            return DeviceReadError(
                f"{self.name}: injected read error at t={now:.6f} "
                f"(offset={offset}, size={size})"
            )
        if self._roll(now, FaultKind.CORRUPT_READ):
            self.injected_corruptions += 1
            return CorruptionError(
                f"{self.name}: injected corrupt read at t={now:.6f} "
                f"(offset={offset}, size={size})"
            )
        return None

    def draw_write_fault(self, now: float, offset: int, size: int) -> Optional[Exception]:
        """Fault (if any) for a write admitted at ``now``."""
        if self._roll(now, FaultKind.WRITE_ERROR):
            self.injected_write_errors += 1
            return DeviceWriteError(
                f"{self.name}: injected write error at t={now:.6f} "
                f"(offset={offset}, size={size})"
            )
        return None


class NetFaultInjector(_WindowedDraws):
    """Evaluates a :class:`FaultPlan`'s message windows per message.

    The network fabric consults it at send time: the message's send
    time decides which MSG_* windows apply, and a dedicated seeded RNG
    (decoupled from the device injector's stream, so adding network
    chaos never perturbs device fault draws) decides drop/duplicate
    outcomes.  Like the device injector, draws happen only while an
    applicable window is active — fault-free runs consume no
    randomness.
    """

    def __init__(self, plan: FaultPlan, name: str = "net"):
        super().__init__(plan, name, 0x0DDBA11)
        self.dropped_messages = 0
        self.duplicated_messages = 0
        self.delayed_messages = 0
        self.partitioned_messages = 0

    def severed(self, now: float, src: str, dst: str) -> bool:
        """True if an active NET_PARTITION window cuts ``src``→``dst``.

        Severance is total and deterministic — no RNG draw — so a
        partition window never perturbs the drop/dup random streams.
        """
        for window in self.plan.active(now, FaultKind.NET_PARTITION):
            if window.severs(src, dst):
                self.partitioned_messages += 1
                return True
        return False

    def drop(self, now: float) -> bool:
        """True if a message sent at ``now`` is lost in flight."""
        if self._roll(now, FaultKind.MSG_DROP):
            self.dropped_messages += 1
            return True
        return False

    def duplicate(self, now: float) -> bool:
        """True if a message sent at ``now`` is delivered twice."""
        if self._roll(now, FaultKind.MSG_DUP):
            self.duplicated_messages += 1
            return True
        return False

    def extra_delay(self, now: float) -> float:
        """Added in-flight latency for a message sent at ``now``."""
        delay = sum(
            w.extra_latency for w in self.plan.active(now, FaultKind.MSG_DELAY)
        )
        if delay > 0:
            self.delayed_messages += 1
        return delay
