"""Metrics, time series, and text reports for the evaluation."""

from .metrics import cdf_points, mmr, normalized_series, percentile
from .report import format_cdf, format_heatmap, format_table
from .timeseries import Series, SeriesSet

__all__ = [
    "Series",
    "SeriesSet",
    "cdf_points",
    "format_cdf",
    "format_heatmap",
    "format_table",
    "mmr",
    "normalized_series",
    "percentile",
]
