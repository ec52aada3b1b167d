"""Evaluation metrics.

The paper measures allocation accuracy with the throughput ratio
``x_t = achieved / expected`` and the min-max ratio (MMR) of ``x_t``
across tenants; 1.0 is perfect insulation / perfectly fair penalty.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "mmr",
    "cdf_points",
    "percentile",
    "normalized_series",
    "slo_attainment",
]


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
