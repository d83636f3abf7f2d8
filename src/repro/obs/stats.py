"""Aggregate span records into inclusive and exclusive time per name.

One aggregation serves both views of a run: ``repro-sdn stats`` reads a
trace produced with ``--trace`` and prints it as a table, and
:meth:`repro.obs.Instrumentation.metrics_document` exports it as the
``phases`` block of ``--metrics``.  Per span name it reports the count,
the total (inclusive) wall and CPU time, and the self (exclusive) wall
and CPU time: each span's own duration minus its direct children's.
Self times telescope, so over one root's subtree they sum to the root's
duration -- the table accounts for every second of the traced run.
"""

from __future__ import annotations

from typing import Dict, List, Union

Row = Dict[str, Union[str, int, float]]

#: Per-name aggregate keys, in table column order after ``name``.
ROW_KEYS = ("count", "wall_s", "self_s", "cpu_s", "self_cpu_s")


def _cpu(record: Dict[str, object]) -> float:
    """A record's CPU seconds (0.0 for traces written without them)."""
    cpu = record.get("cpu_s")
    return float(cpu) if isinstance(cpu, (int, float)) else 0.0


def summarize_spans(records: List[Dict[str, object]]) -> List[Row]:
    """Aggregate span records (``Span.to_json`` / ``read_ndjson``) by name.

    Returns one row per span name with ``name`` and :data:`ROW_KEYS`,
    sorted by ``wall_s`` descending (ties broken by name for
    determinism).  Spans without a recorded duration (still open at
    export) are skipped, and do not count as anyone's children.
    """
    finished = [
        record
        for record in records
        if isinstance(record.get("duration_s"), (int, float))
    ]
    child_wall: Dict[object, float] = {}
    child_cpu: Dict[object, float] = {}
    for record in finished:
        parent = record.get("parent_id")
        if parent is not None:
            child_wall[parent] = child_wall.get(parent, 0.0) + float(
                record["duration_s"]  # type: ignore[arg-type]
            )
            child_cpu[parent] = child_cpu.get(parent, 0.0) + _cpu(record)

    totals: Dict[str, List[float]] = {}
    for record in finished:
        wall = float(record["duration_s"])  # type: ignore[arg-type]
        cpu = _cpu(record)
        span_id = record.get("span_id")
        sums = totals.setdefault(str(record["name"]), [0.0] * len(ROW_KEYS))
        for index, value in enumerate((
            1.0,
            wall,
            wall - child_wall.get(span_id, 0.0),
            cpu,
            cpu - child_cpu.get(span_id, 0.0),
        )):
            sums[index] += value
    rows: List[Row] = []
    for name, sums in totals.items():
        row: Row = {"name": name, "count": int(sums[0])}
        row.update(zip(ROW_KEYS[1:], sums[1:]))
        rows.append(row)
    rows.sort(key=lambda row: (-float(row["wall_s"]), str(row["name"])))
    return rows


def format_table(rows: List[Row]) -> str:
    """Render summary rows as an aligned plain-text table (seconds)."""
    headers = ("span",) + ROW_KEYS
    if not rows:
        return "trace contains no finished spans"
    body = [
        (str(row["name"]), str(row["count"]))
        + tuple(f"{float(row[key]):.6f}" for key in ROW_KEYS[1:])
        for row in rows
    ]
    widths = [
        max(len(headers[i]), max(len(line[i]) for line in body))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(headers[i].ljust(widths[i]) for i in range(len(headers))),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for line in body:
        # name column left-aligned, value columns right-aligned
        lines.append(
            "  ".join(
                [line[0].ljust(widths[0])]
                + [line[i].rjust(widths[i]) for i in range(1, len(headers))]
            )
        )
    return "\n".join(lines)
