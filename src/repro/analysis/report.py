"""Text renderings of the paper's figures.

Every experiment prints its figure as rows/series: aligned tables for
curves and bars, ASCII heat maps for the interference grids, CDF tables
for the distribution plots.  The goal is that a bench run's stdout can
be compared side by side with the figure in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["format_table", "format_heatmap", "format_cdf"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Monospace table with right-aligned numeric columns."""
    rendered_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


#: shading ramp from cold (light) to hot (dark), paper-heatmap style
_SHADES = " .:-=+*#%@"


def format_heatmap(
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    title: Optional[str] = None,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
    cell_format: str = "{:.1f}",
) -> str:
    """Numeric grid plus an ASCII shading band per cell.

    Dark cells are *low* values (the paper's throughput valleys are its
    darkest regions), so the shade ramp is inverted.
    """
    flat = [v for row in values for v in row]
    if not flat:
        return title or ""
    lo = min(flat) if lo is None else lo
    hi = max(flat) if hi is None else hi
    span = (hi - lo) or 1.0

    def shade(v: float) -> str:
        # invert: low value -> dense glyph
        idx = int((1.0 - (v - lo) / span) * (len(_SHADES) - 1))
        return _SHADES[max(0, min(idx, len(_SHADES) - 1))]

    cells = [
        [f"{cell_format.format(v)}{shade(v)}" for v in row] for row in values
    ]
    label_w = max(len(str(l)) for l in row_labels)
    col_w = max(
        max(len(c) for c in col) if col else 0
        for col in zip(*cells)
    ) if cells else 0
    col_w = max(col_w, max(len(str(c)) for c in col_labels))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        " " * (label_w + 2) + " ".join(str(c).rjust(col_w) for c in col_labels)
    )
    for label, row in zip(row_labels, cells):
        lines.append(
            str(label).rjust(label_w) + "  " + " ".join(c.rjust(col_w) for c in row)
        )
    lines.append(f"(shade: '@'=low {lo:.1f} … ' '=high {hi:.1f})")
    return "\n".join(lines)


def format_cdf(
    series: Dict[str, List[Tuple[float, float]]],
    title: Optional[str] = None,
    value_label: str = "value",
    points: Sequence[float] = (0.1, 0.2, 0.25, 0.5, 0.75, 0.8, 0.9, 1.0),
) -> str:
    """Tabulate CDFs at fixed fractions: one column per named series."""
    names = sorted(series)
    headers = ["pct"] + names
    rows = []
    for frac in points:
        row: List[object] = [f"{frac * 100:.0f}%"]
        for name in names:
            pts = series[name]
            value = next((v for v, f in pts if f >= frac), pts[-1][0] if pts else 0.0)
            row.append(value)
        rows.append(row)
    table = format_table(headers, rows, title=title)
    return table + f"\n(cell = {value_label} at which the CDF reaches the row's fraction)"
