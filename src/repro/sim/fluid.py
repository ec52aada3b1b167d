"""Steady-state detection for hybrid analytic/DES simulation.

A DES run spends most of its events on statistically boring stretches.
:class:`SteadyStateMonitor` recognises two eligibility classes the
hybrid driver (:mod:`repro.workload.hybrid`) may fast-forward through:

- **quiet** — every tenant's queue is empty, the device is idle, no
  fault window is open, and the offered load is comfortably under the
  provisioned VOP capacity.  The system is memoryless: each op
  arrives, is charged, is serviced, and completes before the next one,
  so the epoch's aggregate effect (completions, VOP charges, byte
  counters, latency mass) is computable analytically op by op.
- **stable backlog (fluid)** — queues are *not* empty, but the backlog
  has been drifting below tolerance over a confirmation window with no
  GC pressure, no fault edge, and demand under the VOP headroom.  The
  DDRR round schedule is then periodic, so the epoch can be replayed
  through the fluid engine's analytic round schedule instead of event
  by event.  Parked NVMe submission-queue commands are ordinary queue
  backlog here — the driver's handover drain empties the SQs before
  the replay starts, so "no SQ parking" holds at epoch start by
  construction.

The monitor never mutates the simulation; it answers:

- :meth:`eligible` — is the system quiet *right now*?
- :meth:`fluid_eligible` — is the backlog provably stable enough for a
  fluid epoch?  Rejections report the measured backlog-drift rate and
  the confirmation-window progress, not just an opaque label.
- :meth:`next_epoch` / :meth:`next_fluid_epoch` — how far can simulated
  time jump before the next "interesting" edge (fault-window
  start/end, scheduled rate change, projected GC watermark crossing,
  end of horizon)?

Every rejection carries a human-readable reason, and the driver feeds
segment outcomes back through :meth:`note_segment`, so trials can
report — per reason, in simulated seconds — *why* fast-forward
coverage was lost (:meth:`publish_metrics` exports the counters to a
:class:`~repro.obs.metrics.MetricsRegistry`).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, Optional, Sequence, Tuple

__all__ = ["SteadyStateMonitor", "reason_stem"]


def reason_stem(reason: str) -> str:
    """Collapse a detailed reason ("drift(+612/s>400/s)") to its stem."""
    cut = reason.find("(")
    return reason if cut < 0 else reason[:cut]


class SteadyStateMonitor:
    """Decides when the DES may fast-forward through an epoch.

    Parameters
    ----------
    sim:
        The :class:`~repro.sim.core.Simulator` whose clock gates the
        decision.
    scheduler:
        The :class:`~repro.core.scheduler.LibraScheduler`; its backlog
        must be zero for a *quiet* epoch and drift-stable for a *fluid*
        one.
    device:
        The device under the scheduler.  Structural SSDs expose
        ``gc_running`` and an ``ftl`` with watermarks; a device
        without them (a test double) skips the GC checks (``getattr``
        guards below).
    fault_plan:
        Optional :class:`~repro.faults.plan.FaultPlan`.  Epochs never
        span a window edge and never start inside a window.
    headroom:
        Fraction of the cost model's ``max_iop`` the offered demand may
        reach before the analytic model is distrusted (queues only
        provably stay bounded when arrivals are slower than service).
    confirm_window:
        Seconds of backlog samples required before a fluid epoch is
        granted (the stationarity confirmation window).
    confirm_samples:
        Minimum number of samples the window must hold.
    fluid_backlog:
        Largest instantaneous backlog (chunks) the fluid regime
        accepts; larger queues mean the system is digesting a burst,
        not sitting at a stationary operating point.
    fluid_drift:
        Largest *positive* backlog drift rate (chunks/sec, measured
        endpoint-to-endpoint over the window) accepted as "stable";
        draining backlogs pass regardless (see :meth:`fluid_eligible`).
    """

    def __init__(
        self,
        sim,
        scheduler,
        device,
        fault_plan=None,
        headroom: float = 0.85,
        confirm_window: float = 0.1,
        confirm_samples: int = 3,
        fluid_backlog: int = 256,
        fluid_drift: float = 400.0,
    ):
        if not 0 < headroom <= 1:
            raise ValueError(f"headroom {headroom} not in (0, 1]")
        if confirm_window <= 0 or confirm_samples < 2:
            raise ValueError(
                f"confirmation window needs positive span and >= 2 samples, "
                f"got {confirm_window}/{confirm_samples}"
            )
        self.sim = sim
        self.scheduler = scheduler
        self.device = device
        self.fault_plan = fault_plan
        self.headroom = headroom
        self.confirm_window = confirm_window
        self.confirm_samples = confirm_samples
        self.fluid_backlog = fluid_backlog
        self.fluid_drift = fluid_drift
        self.max_vops_per_sec = float(scheduler.cost_model.max_iop)
        #: (t, backlog chunks) samples of the confirmation window;
        #: cleared whenever a hard disturbance (GC, fault window, rate
        #: change) breaks stationarity.
        self.samples: deque = deque()
        #: reason stem -> [rejections, simulated seconds spent in DES
        #: because of it]; fed by :meth:`note_segment`.
        self.rejections: Dict[str, list] = {}
        #: regime ("quiet"|"fluid") -> [epochs granted, seconds covered]
        self.grants: Dict[str, list] = {}

    # -- eligibility -------------------------------------------------------

    def eligible(self, demand_vops: float) -> Tuple[bool, str]:
        """Is the system quiet enough to model analytically right now?

        ``demand_vops`` is the offered load (VOPs/sec summed over all
        tenants) for the prospective epoch.  Returns ``(ok, reason)``
        where ``reason`` names the first disqualifier (or ``"steady"``).
        """
        if self.scheduler.backlog > 0:
            return False, "backlog"
        if self.device.in_flight > 0:
            return False, "inflight"
        # Parked SQ commands disqualify the quiet class only.
        disturbed = self._parked() or self._hard_disturbance()
        if disturbed is not None:
            return False, disturbed
        if demand_vops > self.headroom * self.max_vops_per_sec:
            return False, "overload"
        return True, "steady"

    def fluid_eligible(self, demand_vops: float) -> Tuple[bool, str]:
        """Is the backlog provably *stable* (fluid regime) right now?

        The stable-backlog predicate: no GC pressure, no fault window,
        demand under the headroom, the instantaneous backlog within
        ``fluid_backlog`` chunks, and a full confirmation window of
        samples whose endpoint-to-endpoint drift rate stays under
        ``fluid_drift`` chunks/sec.  Parked NVMe submission-queue
        commands do *not* veto here: unlike GC or a fault window they
        are drainable queue state, and the hybrid driver's handover
        drains every SQ to empty before the fluid replay starts (the
        "no SQ parking" part of the predicate holds at epoch start by
        construction).  Rejection reasons carry the measured values —
        e.g. ``"confirming(2/3 samples, 0.05s/0.10s)"`` while the
        window is still filling, ``"drift(+612/s>400/s)"`` on a breach
        — so a trial can see exactly how far from stable it was.
        """
        disturbed = self._hard_disturbance()
        if disturbed is not None:
            return False, disturbed
        plan = self.fault_plan
        if plan is not None:
            # A *future* fault window also disqualifies the fluid class
            # (unlike the quiet one, which fast-forwards between
            # windows).  Faults are applied at device admission time,
            # and under load admission lags arrival by the queue wait —
            # a fluid epoch hands the DES back an empty queue, shifting
            # which ops are admitted inside the window and breaking the
            # exactness contract.  Once the plan is exhausted the
            # injector consumes no randomness and counts are
            # timing-independent again.
            ahead = plan.next_edge(self.sim.now)
            if math.isfinite(ahead):
                return False, f"fault-ahead({ahead:.2f}s)"
        if demand_vops > self.headroom * self.max_vops_per_sec:
            return False, "overload"
        backlog = self.scheduler.backlog
        if backlog > self.fluid_backlog:
            return False, f"backlog({backlog}>{self.fluid_backlog})"
        self._prune_samples()
        n = len(self.samples)
        span = self.samples[-1][0] - self.samples[0][0] if n >= 2 else 0.0
        if n < self.confirm_samples or span < self.confirm_window:
            return False, (
                f"confirming({n}/{self.confirm_samples} samples, "
                f"{span:.2f}s/{self.confirm_window:.2f}s)"
            )
        drift = (self.samples[-1][1] - self.samples[0][1]) / span
        if drift > self.fluid_drift:
            # Asymmetric on purpose: a *growing* backlog means the
            # stationary operating point has not been reached (or a
            # burst is in progress) and the round schedule would be
            # chasing it.  A *draining* backlog is benign — the fluid
            # handover drains the queue to quiet anyway, and the epoch
            # then starts from a stable point.
            return False, f"drift({drift:+.0f}/s>{self.fluid_drift:.0f}/s)"
        return True, "stable"

    def _parked(self) -> Optional[str]:
        """Drainable multi-queue state: commands parked in NVMe SQs.

        Every SQ must be drained for the *quiet* class, not just the
        aggregate — a command parked in one submission queue (or
        waiting on a controller tag) keeps the timeline stateful even
        when other queues are idle.  For the *fluid* class this is
        ordinary queue backlog: the handover drain empties the SQs
        before the epoch starts, so it neither vetoes eligibility nor
        invalidates the confirmation window.
        """
        queue_backlogs = getattr(self.device, "queue_backlogs", None)
        if queue_backlogs is not None and any(queue_backlogs):
            return "sq-backlog"
        fetch_backlogs = getattr(self.device, "fetch_backlogs", None)
        if fetch_backlogs is not None and any(fetch_backlogs):
            return "sq-fetch"
        return None

    def busy(self) -> bool:
        """Any queued or in-flight work anywhere in the stack?  Parked
        NVMe SQ commands count: ``device.in_flight`` does not cover
        them, and the fluid handover must drain those too."""
        return (
            self.scheduler.backlog > 0
            or self.device.in_flight > 0
            or self._parked() is not None
        )

    def _hard_disturbance(self) -> Optional[str]:
        """A disturbance that breaks stationarity itself: GC or a fault
        window.  Unlike parked SQ commands these cannot be drained away
        — samples taken under them say nothing about the stationary
        regime that follows, so they clear the confirmation window and
        veto both eligibility classes.
        """
        if getattr(self.device, "gc_running", False):
            return "gc"
        ftl = getattr(self.device, "ftl", None)
        if ftl is not None and (ftl.gc_needed or ftl.host_starved):
            return "gc"
        plan = self.fault_plan
        if plan is not None and not plan.quiescent(self.sim.now):
            return "fault"
        return None

    # -- confirmation window ----------------------------------------------

    def observe(self, backlog: Optional[int] = None) -> None:
        """Sample the backlog into the confirmation window.

        The driver calls this from event-by-event stretches (per main
        loop iteration and per arrival, both cheap).  A sample taken
        while a *hard* disturbance is active clears the window instead —
        stationarity must be re-confirmed from scratch after GC or a
        fault window.  Parked SQ commands are sampled normally: they
        are part of the loaded operating point being confirmed.
        """
        if self._hard_disturbance() is not None:
            self.samples.clear()
            return
        if backlog is None:
            backlog = self.scheduler.backlog
        self.samples.append((self.sim.now, backlog))
        self._prune_samples()

    def observe_virtual(self, t: float, backlog: int) -> None:
        """Feed one backlog sample from the fluid engine's virtual
        trajectory.

        A fluid epoch that ran cleanly to its edge *is* evidence of
        continued stationarity, so the engine streams its virtual
        backlog here; on epoch exit the window is already full and the
        next fluid epoch can be granted immediately instead of paying a
        fresh confirmation window of event-by-event time.
        """
        self.samples.append((t, backlog))
        self._prune_samples()

    def note_disturbance(self) -> None:
        """Invalidate the confirmation window (rate change, control edge)."""
        self.samples.clear()

    def _prune_samples(self) -> None:
        # Keep a little more than one window so span >= confirm_window
        # is reachable; drop everything older.
        horizon = self.sim.now - 2.0 * self.confirm_window
        samples = self.samples
        while len(samples) > 2 and samples[0][0] < horizon:
            samples.popleft()

    def window_loaded(self, threshold: float = 1.0) -> bool:
        """Does the confirmation window show a persistently loaded queue?

        Mean sampled backlog above ``threshold`` chunks.  The hybrid
        driver uses this to pick an engine when both could apply: a
        loaded window means queue-wait dominates latency and the fluid
        replay should be preferred over the quiet (idle-latency) one.
        """
        self._prune_samples()
        n = len(self.samples)
        if n < 2:
            return False
        return sum(b for _, b in self.samples) / n > threshold

    def window_state(self) -> Dict[str, float]:
        """Diagnostics: current confirmation-window progress and drift."""
        self._prune_samples()
        n = len(self.samples)
        span = self.samples[-1][0] - self.samples[0][0] if n >= 2 else 0.0
        drift = (
            (self.samples[-1][1] - self.samples[0][1]) / span
            if n >= 2 and span > 0
            else 0.0
        )
        return {"samples": n, "span": span, "drift_per_sec": drift}

    # -- horizon -----------------------------------------------------------

    def next_epoch(
        self,
        demand_vops: float,
        until: float,
        extra_edges: Sequence[float] = (),
        write_page_rate: float = 0.0,
        min_epoch: float = 0.0,
    ) -> Tuple[Optional[float], str]:
        """Farthest time the clock may jump in one *quiet* analytic step.

        The edge is the earliest of: ``until`` (end of horizon), the
        next fault-window boundary, any caller-supplied edge (rate
        changes, control-plane events), and — when the epoch writes at
        ``write_page_rate`` FTL pages/sec — the projected time the GC
        low watermark is crossed.  Epochs shorter than ``min_epoch``
        are refused (reason ``"short"``): jumping a few milliseconds
        costs more bookkeeping than it saves.

        Returns ``(edge, reason)``; ``edge`` is ``None`` when no
        worthwhile jump exists and ``reason`` explains why.
        """
        ok, reason = self.eligible(demand_vops)
        if not ok:
            return None, reason
        return self._bound_epoch(until, extra_edges, write_page_rate, min_epoch)

    def next_fluid_epoch(
        self,
        demand_vops: float,
        until: float,
        extra_edges: Sequence[float] = (),
        write_page_rate: float = 0.0,
        min_epoch: float = 0.0,
    ) -> Tuple[Optional[float], str]:
        """Fluid twin of :meth:`next_epoch` (stable-backlog eligibility).

        Same edge computation, but gated on :meth:`fluid_eligible` and
        using the FTL's tighter :meth:`~repro.ssd.Ftl.pages_until_gc`
        projection when available (a loaded epoch keeps writing through
        the open append blocks, so the spare-block bound alone ends
        epochs early).
        """
        ok, reason = self.fluid_eligible(demand_vops)
        if not ok:
            return None, reason
        return self._bound_epoch(
            until, extra_edges, write_page_rate, min_epoch, tight_gc=True
        )

    def _bound_epoch(
        self,
        until: float,
        extra_edges: Sequence[float],
        write_page_rate: float,
        min_epoch: float,
        tight_gc: bool = False,
    ) -> Tuple[Optional[float], str]:
        """Shared edge computation for both eligibility classes."""
        now = self.sim.now
        edge = until
        reason = "horizon"
        plan = self.fault_plan
        if plan is not None:
            fault_edge = plan.next_edge(now)
            if fault_edge < edge:
                edge, reason = fault_edge, "fault-edge"
        for extra in extra_edges:
            if now < extra < edge:
                edge, reason = extra, "event"
        if write_page_rate > 0.0:
            ftl = getattr(self.device, "ftl", None)
            if ftl is not None:
                if tight_gc and hasattr(ftl, "pages_until_gc"):
                    spare_pages = ftl.pages_until_gc()
                else:
                    spare_pages = ftl.gc_spare_pages
                gc_at = now + spare_pages / write_page_rate
                if gc_at < edge:
                    edge, reason = gc_at, "gc-horizon"
        if not math.isfinite(edge) or edge - now < min_epoch:
            return None, "short"
        return edge, reason

    # -- outcome accounting ------------------------------------------------

    def note_segment(self, mode: str, reason: str, span: float) -> None:
        """Record one trial segment's outcome for the loss report.

        DES segments accumulate under the rejection reason's stem;
        fast-forwarded segments under their regime (``"quiet"`` /
        ``"fluid"``), so ``rejections``/``grants`` together partition
        the simulated horizon.
        """
        if mode == "des":
            entry = self.rejections.setdefault(reason_stem(reason), [0, 0.0])
        else:
            entry = self.grants.setdefault(mode, [0, 0.0])
        entry[0] += 1
        entry[1] += span

    def publish_metrics(self, registry, name: str = "epoch") -> None:
        """Snapshot the per-reason counters into a MetricsRegistry.

        Idempotent (``install`` replaces): DES fallback seconds/count
        per rejection reason under ``<name>.des``, granted epoch
        seconds/count per regime under ``<name>.ff``.
        """
        from ..obs.metrics import Counter

        def snap(value: float) -> Counter:
            counter = Counter()
            counter.inc(value)
            return counter

        for reason, (count, seconds) in self.rejections.items():
            registry.install(f"{name}.des", snap(count), reason=reason, field="segments")
            registry.install(f"{name}.des", snap(seconds), reason=reason, field="seconds")
        for regime, (count, seconds) in self.grants.items():
            registry.install(f"{name}.ff", snap(count), regime=regime, field="epochs")
            registry.install(f"{name}.ff", snap(seconds), regime=regime, field="seconds")
