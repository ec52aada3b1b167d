"""Counters, gauges, and fixed-bucket histograms with labels.

One :class:`MetricsRegistry` per simulation is the publication point
for every layer's stats — the storage node's request counters, the
scheduler's per-tenant VOP usage, the SSD/FTL counters, and the net
fabric's link stats all publish into it (see the layers'
``publish_metrics`` methods).  The legacy per-layer stat objects
(``RequestStats``, ``TenantUsage``, ``SsdStats``, ``LinkStats``...)
remain as compatibility shims; the registry is a uniform, labeled view
over them, not a replacement data path, so publishing is snapshot-
idempotent and costs nothing until called.

The :class:`Histogram` is the repo's single percentile implementation:
fixed log-spaced buckets (ratio ``DEFAULT_BUCKET_RATIO``), exact
``sum``/``count`` so means are exact, and percentile estimates by
linear interpolation inside the covering bucket — accurate to one
bucket width (~2% relative).  ``repro.node.LatencyRecorder`` delegates
its percentile math here.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "log_bucket_bounds",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_BUCKET_RATIO",
]

#: relative width of adjacent histogram buckets (percentile resolution)
DEFAULT_BUCKET_RATIO = 1.02


def log_bucket_bounds(
    lo: float = 1e-6, hi: float = 100.0, ratio: float = DEFAULT_BUCKET_RATIO
) -> Tuple[float, ...]:
    """Geometric bucket upper bounds covering [0, hi].

    Bucket *i* holds values in ``(bounds[i-1], bounds[i]]`` (the first
    bucket reaches down to 0; values above ``hi`` clamp into the last
    bucket).
    """
    if not lo > 0 or not hi > lo or not ratio > 1.0:
        raise ValueError(f"bad bucket spec lo={lo} hi={hi} ratio={ratio}")
    bounds = [lo]
    while bounds[-1] < hi:
        bounds.append(bounds[-1] * ratio)
    return tuple(bounds)


#: shared bounds for request-latency histograms: 1 us .. 100 s
DEFAULT_LATENCY_BOUNDS = log_bucket_bounds()


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """A settable point-in-time value."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with exact sum/count and interpolated
    percentiles."""

    __slots__ = ("bounds", "counts", "count", "sum", "_min", "_max")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_LATENCY_BOUNDS):
        if len(bounds) < 2:
            raise ValueError("histogram needs at least two bucket bounds")
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: float) -> None:
        idx = bisect_left(self.bounds, value)
        if idx >= len(self.bounds):
            idx = len(self.bounds) - 1  # clamp overflow into the top bucket
        self.counts[idx] += 1
        self.count += 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def mean(self) -> float:
        """Exact mean of observed values (0 if empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (numpy's linear convention),
        accurate to one bucket width.  Returns 0 when empty."""
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile {pct} not in [0, 100]")
        n = self.count
        if n == 0:
            return 0.0
        rank = (pct / 100.0) * (n - 1)
        # The distribution's ends are known exactly; pinning them keeps
        # p0/p100 (and every percentile of a single sample) bucket-free.
        if rank <= 0.0:
            return self._min
        if rank >= n - 1:
            return self._max
        cum = 0
        for i, cnt in enumerate(self.counts):
            if cnt == 0:
                continue
            if rank < cum + cnt:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - cum + 0.5) / cnt
                estimate = lo + (hi - lo) * min(max(frac, 0.0), 1.0)
                # Exact min/max pin the distribution's ends inside the
                # edge buckets (p0/p100 would otherwise drift by up to
                # half a bucket).
                return min(max(estimate, self._min), self._max)
            cum += cnt
        return self._max  # pragma: no cover - unreachable with count > 0

    def merge(self, other: "Histogram") -> "Histogram":
        """Add another histogram's observations (same bounds required)."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, cnt in enumerate(other.counts):
            self.counts[i] += cnt
        self.count += other.count
        self.sum += other.sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        return self

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


def _key(name: str, labels: Dict[str, Any]) -> Tuple:
    return (name,) + tuple(sorted((k, str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Keyed store of metrics: ``(name, sorted labels) -> instance``.

    ``counter``/``gauge``/``histogram`` are get-or-create (so feeding
    code needs no registration step); :meth:`install` and
    :meth:`set_counter` replace a slot wholesale, which is what
    snapshot-publishing layers use to stay idempotent across repeated
    ``publish_metrics`` calls.
    """

    def __init__(self):
        self._metrics: Dict[Tuple, Any] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(name, labels, Gauge)

    def histogram(
        self, name: str, bounds: Optional[Tuple[float, ...]] = None, **labels: Any
    ) -> Histogram:
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = Histogram(bounds or DEFAULT_LATENCY_BOUNDS)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"{key} already registered as {type(metric).__name__}")
        return metric

    def install(self, name: str, metric: Any, **labels: Any) -> None:
        """Install (or replace) a pre-built metric under a key."""
        self._metrics[_key(name, labels)] = metric

    def set_counter(self, name: str, value: float, **labels: Any) -> None:
        """Install (or replace) a counter holding ``value`` — how a layer
        publishes a snapshot of its own cumulative count."""
        counter = Counter()
        counter.value = float(value)
        self._metrics[_key(name, labels)] = counter

    def _get_or_create(self, name: str, labels: Dict[str, Any], cls):
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls()
        elif not isinstance(metric, cls):
            raise TypeError(f"{key} already registered as {type(metric).__name__}")
        return metric

    # -- introspection -----------------------------------------------------

    def names(self) -> List[str]:
        return sorted({key[0] for key in self._metrics})

    def collect(self, name: Optional[str] = None) -> List[Tuple[str, Dict[str, str], Any]]:
        """(name, labels, value) triples, sorted by key; histograms are
        summarized as dicts."""
        rows = []
        for key in sorted(self._metrics):
            metric_name, label_items = key[0], key[1:]
            if name is not None and metric_name != name:
                continue
            metric = self._metrics[key]
            value = metric.summary() if isinstance(metric, Histogram) else metric.value
            rows.append((metric_name, dict(label_items), value))
        return rows

    def as_dict(self) -> Dict[str, Any]:
        """Flat ``"name{k=v,...}" -> value`` view for reports/JSON."""
        flat: Dict[str, Any] = {}
        for metric_name, labels, value in self.collect():
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            flat[f"{metric_name}{{{label_text}}}" if label_text else metric_name] = value
        return flat
