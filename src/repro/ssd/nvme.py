"""Multi-queue NVMe device model.

:class:`NvmeDevice` extends the structural SATA model
(:class:`~repro.ssd.device.SsdDevice`) with the queue architecture that
separates the NVMe generation from NCQ-era drives:

- **per-submitter SQ/CQ pairs** — each submitter (tenant) is assigned a
  submission queue of ``profile.queue_depth`` slots; the host-visible
  queue depth is ``num_queues * queue_depth``;
- **command-tag pool** — the controller core processes at most
  ``profile.core_tags`` commands concurrently (default ``2 * depth``).
  A command in a non-empty SQ waits until the arbiter grants it a tag;
- **pluggable arbitration** — when a tag frees, round-robin (burst 1)
  or weighted-round-robin (burst = per-SQ weight) selects which SQ's
  head command is fetched next, per the NVMe arbitration mechanisms;
- **per-queue controller lanes** — command processing (the fixed
  per-op firmware cost plus link/DMA byte time) is a FIFO lane *per
  queue* rather than one shared server, so controller throughput scales
  with queue count — the reason the SATA IOP ceiling lifts.

Everything else is inherited unchanged — the op-timing kernel and its
two executors (inline in ``submit``, and ``_run``), the admission
FIFOs, the FTL (and hence the pluggable GC policies), the flash
channels, the GC loop, fault injection and the op-observer stream:
this class only answers the base device's queue hooks (which SQ, is
there a slot *and* a tag, where an op waits for either, what to free),
which the one ``submit`` asks where the SATA model takes its NCQ slot
inline, so the full Libra stack runs on it unmodified.  An op that
holds its slot but no tag waits in its SQ's fetch FIFO; the arbiter
admits SQ heads from those FIFOs as tags free.

**Degeneration guarantee:** with ``num_queues=1`` the structure reduces
exactly to the SATA model — one SQ is the NCQ, one controller lane is
the scalar accumulator, and the tag pool (>= depth) can never gate, so
no command ever waits on arbitration.  The pinned equivalence tests
hold ``queues=1, depth=32`` bit-identical to ``SsdDevice`` on tasks,
ops, bytes, and stats.

Queue assignment is deterministic: tenants get SQs round-robin in order
of first submission (the dispatch ``ctx`` carries the tenant name);
anonymous submitters share SQ 0.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .device import SsdDevice

__all__ = ["NvmeDevice", "make_device"]


def make_device(sim, profile, **kwargs) -> SsdDevice:
    """The device ``profile`` describes: :class:`NvmeDevice` when it has
    more than one queue, else the SATA :class:`SsdDevice`.

    One queue is bit-identical either way (the degeneration guarantee
    above), so the cheaper SATA model runs it.  ``kwargs`` go to the
    device's constructor.
    """
    cls = SsdDevice if profile.num_queues == 1 else NvmeDevice
    return cls(sim, profile, **kwargs)


class NvmeDevice(SsdDevice):
    """A simulated multi-queue NVMe SSD (see module docstring)."""

    def __init__(self, sim, profile, **kwargs):
        super().__init__(sim, profile, **kwargs)
        nq = profile.num_queues
        # the profile has checked the arbitration and its weights
        weights = profile.wrr_weights if profile.arbitration == "wrr" else None
        self.num_queues = nq
        #: free slots of each SQ, and its FIFO of ops waiting for one
        self._free = [profile.queue_depth] * nq
        self._sq_wait = [deque() for _ in range(nq)]
        self._one_queue = False  # every op asks the hooks below: SQ, slot + tag
        # one controller lane per queue (the SATA model has the one)
        self._pipe.lanes = [0.0] * nq
        self._ctrl_tracks = tuple(f"ctrl{q}" for q in range(nq))
        self._free_tags = profile.core_tags or 2 * profile.queue_depth
        #: per-SQ FIFO of commands holding a slot but awaiting a command tag
        self._fetch_wait: List[Deque[tuple]] = [deque() for _ in range(nq)]
        self._weights: Tuple[int, ...] = tuple(weights or (1,) * nq)
        self._arb_cursor = 0
        self._burst_left = self._weights[0]
        #: tenant -> SQ index, assigned round-robin at first submission
        self._queue_map: Dict[object, int] = {}
        self._next_queue = 0
        self.trace_name = f"nvme.{profile.name}"

    # -- queue assignment --------------------------------------------------

    def _queue_for(self, ctx) -> int:
        """SQ for a submission ``ctx`` (``(trace, tenant)`` or None)."""
        if self.num_queues == 1 or ctx is None or ctx[1] is None:
            return 0
        tenant = ctx[1]
        q = self._queue_map.get(tenant)
        if q is None:
            q = self._next_queue % self.num_queues
            self._queue_map[tenant] = q
            self._next_queue += 1
        return q

    # -- arbitration -------------------------------------------------------

    def _take(self, q: int) -> bool:
        """An SQ slot *and* a command tag, when both are free.

        Two refusals beyond a full SQ: no free command tag, or earlier
        commands in this SQ already waiting for one (FIFO within an SQ).
        """
        free = self._free
        if self._free_tags == 0 or self._fetch_wait[q] or not free[q]:
            return False
        free[q] -= 1
        self._free_tags -= 1
        return True

    def _park(self, op) -> None:
        """Queue a refused op: in its SQ's fetch FIFO when a slot is free
        (taking it), else FIFO for a slot."""
        q = op[6]
        if self._free[q]:
            self._free[q] -= 1
            self._fetch_wait[q].append(op)
        else:
            self._sq_wait[q].append(op)

    def _release(self, q: int) -> None:
        """CQ post: recycle the tag, arbitrate, then free the SQ slot —
        the SQ's first slot waiter takes it and asks for a tag."""
        self._free_tags += 1
        self._arb_pump()
        wait = self._sq_wait[q]
        if not wait:
            self._free[q] += 1
        elif self._free_tags and not self._fetch_wait[q]:
            self._free_tags -= 1
            self._enter(wait.popleft())
        else:
            self._fetch_wait[q].append(wait.popleft())

    def _arb_pump(self) -> None:
        """Grant freed tags to waiting SQ heads per the arbitration policy."""
        while self._free_tags > 0:
            q = self._next_waiting_sq()
            if q is None:
                return
            self._free_tags -= 1
            self._enter(self._fetch_wait[q].popleft())

    def _next_waiting_sq(self) -> Optional[int]:
        """Weighted-round-robin scan: next SQ with a waiting command.

        Plain round-robin is the weight-1 special case.  The cursor
        serves up to ``weight`` consecutive commands from one SQ (an
        arbitration burst) before moving on.
        """
        waiting = self._fetch_wait
        n = self.num_queues
        for _ in range(n + 1):
            q = self._arb_cursor
            if self._burst_left > 0 and waiting[q]:
                self._burst_left -= 1
                return q
            self._arb_cursor = (q + 1) % n
            self._burst_left = self._weights[self._arb_cursor]
        return None
