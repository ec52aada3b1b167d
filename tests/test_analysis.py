"""Tests for metrics, time series, and figure renderers."""

import pytest

from repro.analysis import Series, SeriesSet, format_cdf, format_heatmap, format_table
from repro.obs.metrics import cdf_points, mmr, normalized_series, percentile


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_mmr_basics():
    assert mmr([1.0, 1.0, 1.0]) == 1.0
    assert mmr([0.5, 1.0]) == 0.5
    assert mmr([]) == 0.0
    assert mmr([0.0, 0.0]) == 0.0


def test_mmr_order_invariant():
    assert mmr([3, 1, 2]) == mmr([1, 2, 3]) == pytest.approx(1 / 3)


def test_cdf_points():
    pts = cdf_points([3.0, 1.0, 2.0])
    assert pts == [(1.0, 1 / 3), (2.0, 2 / 3), (3.0, 1.0)]
    assert cdf_points([]) == []


def test_percentile():
    values = list(range(1, 101))
    assert percentile(values, 50) == pytest.approx(50.5)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_normalized_series():
    assert normalized_series([2.0, 4.0]) == [1.0, 2.0]
    assert normalized_series([2.0, 4.0], reference=2.0) == [1.0, 2.0]
    assert normalized_series([]) == []
    with pytest.raises(ValueError):
        normalized_series([1.0], reference=0.0)


# ---------------------------------------------------------------------------
# Time series
# ---------------------------------------------------------------------------

def test_series_window_mean():
    s = Series("x")
    for t in range(10):
        s.add(float(t), float(t))
    assert s.window_mean(2.0, 5.0) == pytest.approx(3.0)  # 2,3,4
    assert s.window_mean(100.0, 200.0) == 0.0
    assert s.last() == 9.0
    assert len(s) == 10


def test_series_window_mean_matches_linear_scan():
    """The bisect implementation must agree with the straightforward
    filter on every window shape: empty, half-open boundaries, windows
    starting/ending between samples, and out-of-range on both sides."""
    s = Series("x")
    times = [0.0, 0.5, 0.5, 1.25, 2.0, 2.0, 2.0, 3.75, 4.0]
    for i, t in enumerate(times):
        s.add(t, float(i * i))
    windows = [
        (0.0, 0.0), (0.0, 0.5), (0.5, 0.5), (0.5, 2.0), (0.4, 2.1),
        (-1.0, 0.0), (-5.0, 10.0), (2.0, 4.0), (2.0, 4.1), (3.9, 4.0),
        (4.0, 9.0), (1.0, 1.1),
    ]
    for t0, t1 in windows:
        selected = [v for t, v in zip(s.times, s.values) if t0 <= t < t1]
        expected = sum(selected) / len(selected) if selected else 0.0
        assert s.window_mean(t0, t1) == pytest.approx(expected), (t0, t1)


def test_series_set():
    ss = SeriesSet()
    ss.add("a", 1.0, 10.0)
    ss.add("b", 1.0, 20.0)
    ss.add("a", 2.0, 11.0)
    ss.add("b", 2.0, 21.0)
    assert ss.names() == ["a", "b"]
    assert "a" in ss
    rows = ss.rows()
    assert rows == [(1.0, 10.0, 20.0), (2.0, 11.0, 21.0)]
    assert ss.rows(["b"]) == [(1.0, 20.0), (2.0, 21.0)]


def test_series_set_empty_rows():
    assert SeriesSet().rows() == []


# ---------------------------------------------------------------------------
# Renderers (shape only, not pixel-perfect)
# ---------------------------------------------------------------------------

def test_format_table_alignment():
    out = format_table(["name", "value"], [["a", 1.5], ["bb", 20.25]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "1.50" in out and "20.25" in out


def test_format_heatmap_contains_values_and_shading():
    out = format_heatmap(
        ["r1", "r2"], ["c1", "c2"],
        [[1.0, 2.0], [3.0, 4.0]],
        title="H",
    )
    assert "H" in out
    assert "1.0" in out and "4.0" in out
    assert "shade" in out
    # The lowest value gets the densest glyph.
    assert "1.0@" in out


def test_format_heatmap_constant_grid():
    out = format_heatmap(["r"], ["c"], [[5.0]])
    assert "5.0" in out


def test_format_cdf():
    out = format_cdf(
        {"curve": [(1.0, 0.5), (2.0, 1.0)]},
        title="C",
        value_label="kop/s",
    )
    assert "C" in out and "50%" in out and "kop/s" in out
