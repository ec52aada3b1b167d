"""VOP-accounting audit: do scheduler charges reconcile with the SSD?

Libra's argument is an accounting identity — application requests
decompose into IOs which decompose into virtual IOPs — so the repo
should be able to *check* the identity, not just assume it.  A
:class:`VopAudit` attaches to a :class:`~repro.core.scheduler.LibraScheduler`
(and its :class:`~repro.ssd.SsdDevice`) and observes three independent
streams:

- **dispatch**: every chunk's VOP cost the moment the deficit counter
  pays it (``scheduler.dispatch_observer``);
- **completion**: the cost reported to ``io_observer`` on success, or
  to ``fail_observer`` on a device fault — plus an independent
  re-evaluation of the cost model on the completed (kind, size);
- **device**: the SSD's own op stream (``device.op_observer``), priced
  with the same cost model.

Invariants checked (per :meth:`roll_window` window and at
:meth:`summary`):

1. *conservation* — charged = serviced + failed + outstanding; after a
   drained run outstanding must be zero (a dispatched chunk that never
   reports back is a **leak**);
2. *single evaluation* — the completion-reported cost must equal the
   independent re-evaluation for the same (kind, size); a skew means
   the cost model was consulted twice with different results or the
   charge was duplicated (a **double-charge** — exactly the PR 2
   ``io_observer`` bug, which recomputed the cost at completion);
3. *device reconciliation* — scheduler-side VOPs (serviced + failed)
   must match the device-observed stream priced identically, within
   ``tolerance`` (default 1%);
4. *usage consistency* — the scheduler's own ``TenantUsage.vops``
   totals must equal the dispatch-observed charges.

The audit never schedules simulator events (windows are rolled by the
caller), so attaching it cannot perturb a deterministic run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.tags import InternalOp, IoTag, OpKind, RequestClass

__all__ = ["AuditWindow", "LedgerEntry", "VopAudit"]

#: relative slack for exact-identity checks (pure float accumulation)
EXACT_EPS = 1e-6


@dataclass
class LedgerEntry:
    """Accumulated successful IO for one (tenant, request, internal) tag."""

    ops: int = 0
    bytes: int = 0
    vops: float = 0.0


@dataclass
class AuditWindow:
    """One reconciliation window's deltas and verdict."""

    t0: float
    t1: float
    charged: float
    serviced: float
    failed: float
    outstanding: float
    device_vops: float
    flags: List[str] = field(default_factory=list)

    @property
    def reconciliation(self) -> float:
        """Scheduler-side VOPs over device-side VOPs (1.0 = exact)."""
        if self.device_vops == 0.0:
            return 1.0 if self.serviced + self.failed == 0.0 else float("inf")
        return (self.serviced + self.failed) / self.device_vops

    @property
    def ok(self) -> bool:
        return not self.flags


class VopAudit:
    """Cross-layer VOP conservation checker (see module docstring)."""

    def __init__(self, cost_model, tolerance: float = 0.01):
        if not 0 < tolerance < 1:
            raise ValueError(f"tolerance {tolerance} not in (0, 1)")
        self.cost_model = cost_model
        self.tolerance = tolerance
        # -- cumulative scheduler-side streams
        self.charged = 0.0  # VOPs paid at dispatch
        self.serviced = 0.0  # VOPs reported at successful completion
        self.failed = 0.0  # VOPs of chunks whose device op faulted
        self.recomputed = 0.0  # completion stream re-priced independently
        self.dispatched_ops = 0
        self.completed_ops = 0
        self.failed_ops = 0
        # -- cumulative device-side stream
        self.device_vops = 0.0
        self.device_ops = 0
        #: successful IO per (tenant, request, internal) — the waterfall
        self.ledger: Dict[Tuple[str, RequestClass, Optional[InternalOp]], LedgerEntry] = {}
        self.windows: List[AuditWindow] = []
        self._window_started = 0.0
        self._window_base: Optional[Dict[str, float]] = None
        self._scheduler = None
        self._device = None

    # -- wiring ------------------------------------------------------------

    def attach(self, scheduler, device=None) -> None:
        """Hook into a scheduler's dispatch/complete/fail observers and,
        optionally, the device's op stream.

        Existing observers are chained, not replaced (the node's
        :class:`~repro.core.tracker.ResourceTracker` keeps seeing every
        completion).  Detach by rebuilding the scheduler; audits are
        per-trial objects.
        """
        self._scheduler = scheduler
        scheduler.dispatch_observer = _chain(scheduler.dispatch_observer, self.note_dispatch)
        scheduler.io_observer = _chain(scheduler.io_observer, self.note_complete)
        scheduler.fail_observer = _chain(scheduler.fail_observer, self.note_failed)
        if device is not None:
            self._device = device
            device.op_observer = _chain(device.op_observer, self.note_device_op)

    # -- observer hooks ----------------------------------------------------

    def note_dispatch(self, tag: IoTag, kind: OpKind, size: int, cost: float) -> None:
        self.charged += cost
        self.dispatched_ops += 1

    def note_complete(self, tag: IoTag, kind: OpKind, size: int, cost: float) -> None:
        self.serviced += cost
        self.recomputed += self.cost_model.cost(kind, size)
        self.completed_ops += 1
        key = (tag.tenant, tag.request, tag.internal)
        entry = self.ledger.get(key)
        if entry is None:
            entry = self.ledger[key] = LedgerEntry()
        entry.ops += 1
        entry.bytes += size
        entry.vops += cost

    def note_failed(self, tag: IoTag, kind: OpKind, size: int, cost: float) -> None:
        self.failed += cost
        self.failed_ops += 1

    def note_device_op(self, kind: str, size: int) -> None:
        """Price one device-observed op (``kind`` is ``"read"``/``"write"``)."""
        self.device_vops += self.cost_model.cost(OpKind(kind), size)
        self.device_ops += 1

    # -- derived state -----------------------------------------------------

    @property
    def outstanding(self) -> float:
        """VOPs charged at dispatch but not yet completed or failed."""
        return self.charged - self.serviced - self.failed

    @property
    def outstanding_ops(self) -> int:
        return self.dispatched_ops - self.completed_ops - self.failed_ops

    def _snapshot(self) -> Dict[str, float]:
        return {
            "charged": self.charged,
            "serviced": self.serviced,
            "failed": self.failed,
            "recomputed": self.recomputed,
            "device_vops": self.device_vops,
        }

    # -- windows and verdicts ----------------------------------------------

    def roll_window(self, now: float) -> AuditWindow:
        """Close the current window at simulated time ``now`` and check it."""
        base = self._window_base or dict.fromkeys(self._snapshot(), 0.0)
        snap = self._snapshot()
        delta = {k: snap[k] - base[k] for k in snap}
        window = AuditWindow(
            t0=self._window_started,
            t1=now,
            charged=delta["charged"],
            serviced=delta["serviced"],
            failed=delta["failed"],
            outstanding=self.outstanding,
            device_vops=delta["device_vops"],
        )
        window.flags = self._check(
            delta["charged"], delta["serviced"], delta["failed"],
            delta["recomputed"], delta["device_vops"], expect_drained=False,
        )
        self.windows.append(window)
        self._window_started = now
        self._window_base = snap
        return window

    def _check(
        self,
        charged: float,
        serviced: float,
        failed: float,
        recomputed: float,
        device_vops: float,
        expect_drained: bool,
    ) -> List[str]:
        flags: List[str] = []
        scale = max(charged, serviced, 1e-12)
        # 2. single evaluation: reported completion costs vs re-pricing.
        skew = serviced - recomputed
        if skew > EXACT_EPS * scale:
            flags.append(
                f"double-charge: completion reported {serviced:.4f} VOPs but "
                f"re-pricing the same ops gives {recomputed:.4f}"
            )
        elif skew < -EXACT_EPS * scale:
            flags.append(
                f"leak: completion reported {serviced:.4f} VOPs, below the "
                f"re-priced {recomputed:.4f}"
            )
        # 1. conservation (only exact once in-flight work has drained).
        if expect_drained:
            if self.outstanding_ops != 0 or abs(self.outstanding) > EXACT_EPS * scale:
                verb = "leak" if self.outstanding > 0 else "double-charge"
                flags.append(
                    f"{verb}: {self.outstanding:.4f} VOPs "
                    f"({self.outstanding_ops} ops) charged at dispatch never "
                    f"reconciled at completion"
                )
            # 3. device reconciliation across the whole run.
            if self.device_ops:
                ratio = (serviced + failed) / device_vops if device_vops else float("inf")
                if abs(ratio - 1.0) > self.tolerance:
                    flags.append(
                        f"unreconciled: scheduler charged {serviced + failed:.4f} "
                        f"VOPs vs {device_vops:.4f} observed at the device "
                        f"(ratio {ratio:.4f}, tolerance {self.tolerance:.0%})"
                    )
        # 4. usage consistency: the scheduler's own books vs our dispatch feed.
        if expect_drained and self._scheduler is not None:
            usage_total = sum(
                self._scheduler.usage(t).vops for t in self._scheduler.tenants
            )
            if abs(usage_total - self.charged) > EXACT_EPS * max(usage_total, 1e-12):
                flags.append(
                    f"usage-skew: scheduler TenantUsage totals {usage_total:.4f} "
                    f"VOPs vs {self.charged:.4f} observed at dispatch"
                )
        return flags

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Whole-run verdict (call after the trial drained its IO)."""
        flags = self._check(
            self.charged, self.serviced, self.failed,
            self.recomputed, self.device_vops, expect_drained=True,
        )
        window_flags = [f for w in self.windows for f in w.flags]
        reconciliation = (
            (self.serviced + self.failed) / self.device_vops
            if self.device_vops
            else 1.0
        )
        return {
            "t1": now,
            "charged_vops": self.charged,
            "serviced_vops": self.serviced,
            "failed_vops": self.failed,
            "outstanding_vops": self.outstanding,
            "device_vops": self.device_vops,
            "chunks": self.completed_ops,
            "device_ops": self.device_ops,
            "reconciliation": reconciliation,
            "flags": flags + window_flags,
            "ok": not (flags + window_flags),
        }

    # -- waterfall feed ----------------------------------------------------

    def ledger_rows(self) -> List[Tuple[str, str, str, LedgerEntry]]:
        """Sorted (tenant, request, internal, entry) rows for reports."""
        rows = []
        for (tenant, request, internal), entry in sorted(
            self.ledger.items(),
            key=lambda kv: (kv[0][0], kv[0][1].value, kv[0][2].value if kv[0][2] else ""),
        ):
            rows.append(
                (tenant, request.value, internal.value if internal else "direct", entry)
            )
        return rows


def _chain(existing, extra):
    """Compose two observer callbacks (None-tolerant)."""
    if existing is None:
        return extra

    def chained(*args):
        existing(*args)
        extra(*args)

    return chained
