"""Plain-text rendering of experiment results.

Every benchmark prints its figure/table through these helpers so the
output reads like the paper's artifacts: labelled series for figures,
aligned columns for tables, and explicit paper-vs-measured rows where
the paper reports absolute numbers.

Each Section VI artifact has one renderer here (:func:`fig6a_section`
to :func:`statecount_section`); the CLI subcommands and
``ReproductionReport.render`` print through them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.experiments.fig6 import Fig6Result
    from repro.experiments.fig7 import Fig7Result

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


# ----------------------------------------------------------------------
# Section VI artifacts
# ----------------------------------------------------------------------
def fig6a_section(result: "Fig6Result") -> str:
    """Figure 6a: accuracy per absence-probability bin."""
    return format_series(
        "P(absent)",
        result.bin_centers(),
        result.accuracy_series(),
        title="Figure 6a: average accuracy vs P(absence of target)",
    )


def fig6b_section(result: "Fig6Result") -> str:
    """Figure 6b: the CDF of the model attacker's improvement."""
    return format_cdf(
        result.improvement_cdf(),
        title="Figure 6b: CDF of improvement over naive attacker",
    )


def headline_section(result: "Fig6Result") -> str:
    """The paper's summary statistics over the Figure 6 configurations."""
    return format_table(
        ["metric", "value"],
        [[key, value] for key, value in result.headline().items()],
        title="Headline statistics",
    )


def fig7a_section(result: "Fig7Result") -> str:
    """Figure 7a: accuracy by the number of rules covering the target."""
    return format_table(
        ["#covering rules", "constrained", "naive", "random", "configs"],
        [
            [count, row["constrained"], row["naive"], row["random"],
             int(row["n_configs"])]
            for count, row in result.accuracy_by_covering_count().items()
        ],
        title="Figure 7a: accuracy vs rules covering the target",
    )


def fig7b_section(result: "Fig7Result") -> str:
    """Figure 7b: the constrained attacker per absence-probability bin."""
    return format_series(
        "P(absent)",
        result.bin_centers(),
        result.accuracy_series(),
        title="Figure 7b: accuracy vs P(absence of target)",
    )


def timing_section(table: Mapping[str, Any]) -> str:
    """The Section VI-A probe latencies and the hit/miss threshold."""
    hit, miss = table["hit"], table["miss"]
    rows = paper_vs_measured(
        [
            ("hit mean (ms)", hit.paper_mean * 1e3, hit.mean * 1e3),
            ("hit std (ms)", hit.paper_std * 1e3, hit.std * 1e3),
            ("miss mean (ms)", miss.paper_mean * 1e3, miss.mean * 1e3),
            ("miss std (ms)", miss.paper_std * 1e3, miss.std * 1e3),
        ],
        title="Section VI-A probe latency characterisation",
    )
    return (
        f"{rows}\n\nthreshold = {table['threshold'] * 1e3:g} ms, "
        f"classification accuracy = {table['threshold_accuracy']:.4f}"
    )


def statecount_section(report: Mapping[str, Any]) -> str:
    """The basic-vs-compact state-space sizes (Sections IV-A2 / IV-B)."""
    exp = report["experiment"]
    example = report["paper_example"]
    rows = format_table(
        ["setting", "basic model states", "compact model states"],
        [
            [
                f"evaluation (|Rules|={exp['n_rules']}, t={exp['timeout']}, "
                f"n={exp['cache_size']})",
                exp["basic"],
                exp["compact"],
            ],
            [
                f"paper example (|Rules|={example['n_rules']}, "
                f"t={example['timeout']}, n={example['cache_size']})",
                example["basic_formula"],
                "-",
            ],
        ],
        title="State-space sizes (Sections IV-A2 / IV-B)",
    )
    return (
        f"{rows}\n\nnote: the paper quotes ~5.9e7 for its example; the "
        "printed formula evaluates to the figure above (see EXPERIMENTS.md)."
    )
