"""Plain-text rendering of experiment results.

Every benchmark prints its figure/table through these helpers so the
output reads like the paper's artifacts: labelled series for figures,
aligned columns for tables, and explicit paper-vs-measured rows where
the paper reports absolute numbers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Rows a rendered CDF is thinned to (plus its last step point).
CDF_ROWS = 25


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if cell != 0 and (abs(cell) >= 1e5 or abs(cell) < 1e-3):
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def format_series(
    x_label: str,
    x_values: Sequence[Number],
    series: Dict[str, Sequence[Optional[Number]]],
    title: Optional[str] = None,
) -> str:
    """Render figure series as a table with one row per x value."""
    headers = [x_label] + list(series.keys())
    rows = []
    for index, x in enumerate(x_values):
        row: List[object] = [x]
        for name in series:
            row.append(series[name][index])
        rows.append(row)
    return format_table(headers, rows, title=title)


def format_cdf(
    points: Sequence[Tuple[float, float]],
    title: Optional[str] = None,
) -> str:
    """Render CDF step points, thinned to about :data:`CDF_ROWS` rows."""
    if len(points) > CDF_ROWS:
        stride = len(points) / CDF_ROWS
        thinned = [points[int(i * stride)] for i in range(CDF_ROWS)]
        if thinned[-1] != points[-1]:
            thinned.append(points[-1])
        points = thinned
    return format_table(
        ["value", "P(X <= value)"], [list(p) for p in points], title=title
    )


def paper_vs_measured(
    rows: Sequence[Tuple[str, Number, Number]],
    title: Optional[str] = None,
) -> str:
    """Three-column comparison: metric, paper value, measured value."""
    table_rows = []
    for label, paper, measured in rows:
        ratio: object
        try:
            ratio = measured / paper if paper else None
        except TypeError:  # non-numeric placeholder
            ratio = None
        table_rows.append([label, paper, measured, ratio])
    return format_table(
        ["metric", "paper", "measured", "ratio"], table_rows, title=title
    )
