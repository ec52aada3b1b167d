"""Time series and text reports for the evaluation."""

from .report import format_cdf, format_heatmap, format_table
from .timeseries import Series, SeriesSet

__all__ = [
    "Series",
    "SeriesSet",
    "format_cdf",
    "format_heatmap",
    "format_table",
]
