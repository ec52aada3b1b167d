"""Latency histograms and the evaluation metrics over sample sets.

The counters themselves live in the layers' own books
(``RequestStats``, ``TenantUsage``, ``SsdStats``, ``LinkStats``...),
read directly by whatever reports them; this module holds no copy.

The :class:`Histogram` is the percentile implementation for latencies:
fixed log-spaced buckets (ratio ``DEFAULT_BUCKET_RATIO``), exact
``sum``/``count`` so means are exact, and percentile estimates by
linear interpolation inside the covering bucket — accurate to one
bucket width (~2% relative).  ``repro.node.LatencyRecorder`` delegates
its percentile math here.

The evaluation metrics at the end of the module score whole sample
sets: the min-max ratio (MMR) of per-tenant throughput ratios
``x_t = achieved / expected`` (1.0 is perfect insulation / perfectly
fair penalty), SLO attainment, empirical CDFs, and the numpy-exact
:func:`percentile` the Fig 9 and Fig 10 tables read.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Histogram",
    "log_bucket_bounds",
    "DEFAULT_LATENCY_BOUNDS",
    "DEFAULT_BUCKET_RATIO",
    "mmr",
    "cdf_points",
    "percentile",
    "normalized_series",
    "slo_attainment",
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


# ---------------------------------------------------------------------------
# Evaluation metrics over sample sets
# ---------------------------------------------------------------------------


def mmr(ratios: Iterable[float]) -> float:
    """Min-max ratio over per-tenant throughput ratios.

    1.0 means every tenant is penalized equally (perfect fairness);
    empty or all-zero input yields 0.0.
    """
    values = [r for r in ratios]
    if not values:
        return 0.0
    largest = max(values)
    if largest <= 0:
        return 0.0
    return min(values) / largest


def slo_attainment(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples at or under an SLO threshold (empty -> 0).

    The per-tenant service-level view of a latency distribution: an SLO
    of "99% of requests under 50 ms" is met when
    ``slo_attainment(latencies, 0.050) >= 0.99``.
    """
    if not samples:
        return 0.0
    return sum(1 for s in samples if s <= threshold) / len(samples)


def cdf_points(samples: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction ≤ value), sorted ascending."""
    if not samples:
        return []
    ordered = sorted(samples)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]


def percentile(samples: Sequence[float], pct: float) -> float:
    """Percentile of a sample set (linear interpolation)."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def normalized_series(samples: Sequence[float], reference: float = None) -> List[float]:
    """Samples normalized by ``reference`` (default: the minimum).

    This is Fig 5's presentation: throughput normalized by the minimum
    achieved throughput, i.e. the capacity floor candidate.
    """
    if not samples:
        return []
    base = min(samples) if reference is None else reference
    if base <= 0:
        raise ValueError("non-positive normalization reference")
    return [s / base for s in samples]
