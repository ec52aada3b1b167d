"""Tenant descriptors and per-tenant request accounting."""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from functools import partial
from typing import Deque, Dict

from ..core.policy import Reservation
from ..core.tracker import NORMALIZED_REQUEST_BYTES
from ..obs.metrics import Histogram
from ..ssd.stats import Counters

__all__ = ["TenantDescriptor", "RequestStats", "LatencyRecorder"]


class _Series:
    """One request kind's retained samples and lifetime totals."""

    __slots__ = ("samples", "count", "total")

    def __init__(self, capacity: int):
        self.samples: Deque[float] = deque(maxlen=capacity)
        self.count = 0
        self.total = 0.0


class LatencyRecorder:
    """Bounded reservoir of recent request latencies (seconds).

    Keeps the newest ``capacity`` samples per request kind, enough for
    stable means and tail percentiles without unbounded memory.
    Percentile math is delegated to :class:`repro.obs.metrics.Histogram`,
    the one percentile implementation for latencies, so a percentile is
    accurate to one histogram bucket (~2% relative; exact at the
    distribution's min/max).
    """

    def __init__(self, capacity: int = 2048):
        if capacity < 1:
            raise ValueError("latency reservoir needs capacity >= 1")
        self.capacity = capacity
        #: kind -> its series, created by the kind's first sample
        #: (``kinds`` lists those)
        self.series: Dict[str, _Series] = defaultdict(partial(_Series, capacity))

    def record(self, kind: str, latency: float) -> None:
        series = self.series[kind]
        series.samples.append(latency)
        series.count += 1
        series.total += latency

    def samples(self, kind: str) -> list:
        """The retained (recent) samples for a kind, oldest first."""
        series = self.series.get(kind)
        return list(series.samples) if series else []

    def kinds(self) -> list:
        return sorted(self.series)

    def count(self, kind: str) -> int:
        series = self.series.get(kind)
        return series.count if series else 0

    def mean(self, kind: str) -> float:
        """Lifetime mean latency for a request kind (0 if none)."""
        series = self.series.get(kind)
        return series.total / series.count if series else 0.0

    def histogram(self, kind: str) -> Histogram:
        """The retained samples as a :class:`~repro.obs.metrics.Histogram`."""
        hist = Histogram()
        for value in self.samples(kind):
            hist.observe(value)
        return hist

    def percentile(self, kind: str, pct: float) -> float:
        """Percentile over the retained (recent) samples.

        Computed through the shared fixed-bucket histogram; accurate to
        one bucket width of the exact sample percentile.
        """
        if kind not in self.series:
            return 0.0
        return self.histogram(kind).percentile(pct)


@dataclass(frozen=True)
class TenantDescriptor:
    """A tenant known to a storage node."""

    name: str
    reservation: Reservation = field(default_factory=Reservation)


@dataclass
class RequestStats(Counters):
    """App-level request throughput counters for one tenant.

    Units are size-normalized (1 KB) requests, the same currency as
    reservations; raw request counts are kept alongside.  Snapshot,
    delta and merge come from :class:`~repro.ssd.stats.Counters`.
    """

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    get_units: float = 0.0
    put_units: float = 0.0
    cache_hits: int = 0
    # Replication (see repro.net): records this node applied as a
    # backup replica.  Kept apart from gets/puts so summing app-level
    # throughput over nodes never double-counts a replicated write,
    # while the backup's VOP load stays visible in its own accounting.
    repl_applies: int = 0
    repl_units: float = 0.0
    #: replica-local reads served for another coordinator's quorum read
    #: (leaderless mode) — engine IO charged here, app-level ``gets``
    #: counted once on the coordinator
    repl_reads: int = 0
    # Failure handling (see repro.faults): transparent retry attempts,
    # per-attempt timeout expiries, permanent failures surfaced to the
    # application, engine crashes, and requests that waited out a crash.
    retries: int = 0
    timeouts: int = 0
    errors: int = 0
    crashes: int = 0
    crash_waits: int = 0

    #: every counter, in declaration order, for readers that want the
    #: book's columns without an instance (kvbench's digest lists them)
    FIELDS = (
        "gets", "puts", "deletes", "get_units", "put_units", "cache_hits",
        "repl_applies", "repl_units", "repl_reads",
        "retries", "timeouts", "errors", "crashes", "crash_waits",
    )

    def note(self, kind: str, size: int) -> None:
        """Count one completed request of ``size`` bytes."""
        self.note_units(kind, max(size / NORMALIZED_REQUEST_BYTES, 1.0))

    def note_units(self, kind: str, units: float) -> None:
        """Count one completed request of ``units`` normalized requests."""
        if kind == "get":
            self.gets += 1
            self.get_units += units
        elif kind == "put":
            self.puts += 1
            self.put_units += units
        elif kind == "delete":
            self.deletes += 1
        elif kind == "repl":
            self.repl_applies += 1
            self.repl_units += units
        elif kind == "repl_read":
            self.repl_reads += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown request kind {kind!r}")
