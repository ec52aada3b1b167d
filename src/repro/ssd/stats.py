"""Cumulative counter dataclasses.

:class:`Counters` gives a dataclass of additive counters its
snapshot/delta pair, which experiments use between warm-up and
measurement windows, and the merge that sums one book per node into a
total; :class:`SsdStats` is the device's own set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["Counters", "SsdStats"]


class Counters:
    """Snapshot, delta and merge for a dataclass whose fields are all
    counters.

    A mixin with no state of its own, so ``vars()`` of an instance is
    exactly its counter fields.
    """

    def snapshot(self):
        """A copy of the current counters."""
        return type(self)(**vars(self))

    def delta(self, earlier):
        """Counters accumulated since ``earlier``."""
        return type(self)(
            **{k: getattr(self, k) - getattr(earlier, k) for k in vars(self)}
        )

    def merge(self, other):
        """Add ``other``'s counters into this one, in place.

        Returns ``self``, so a total reads as a fold:
        ``reduce(type(book).merge, books, type(book)())``.
        """
        for k in vars(self):
            setattr(self, k, getattr(self, k) + getattr(other, k))
        return self


@dataclass
class SsdStats(Counters):
    """Cumulative counters for one simulated SSD."""

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    trims: int = 0
    # GC activity
    gc_runs: int = 0
    gc_pages_copied: int = 0
    gc_blocks_erased: int = 0
    # Busy-time accounting (seconds of service rendered)
    controller_busy: float = 0.0
    channel_busy: float = 0.0
    # Injected-fault accounting (see repro.faults)
    read_faults: int = 0
    write_faults: int = 0
    corrupt_reads: int = 0
    degraded_ops: int = 0
    stall_seconds: float = 0.0
    fault_delay_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict view for reporting."""
        return dict(vars(self))

    def write_amplification(self, page_size: int) -> float:
        """Physical-to-host write ratio including GC page copies."""
        if self.write_bytes == 0:
            return 1.0
        gc_bytes = self.gc_pages_copied * page_size
        return (self.write_bytes + gc_bytes) / self.write_bytes
