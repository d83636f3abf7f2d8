"""Every emitted metric and span name is in the catalogue, and back.

Walks the AST of every module under ``src/repro`` and collects the
literal first argument of each ``counter``/``gauge``/``histogram``/
``span``/``counter_inc`` call, then checks each name appears
in docs/OBSERVABILITY.md.  Names built at runtime (f-strings such as
``cli.<command>``, or counters re-emitted by variable) are out of reach
and documented by hand.

The reverse check reads the metric catalogue table and requires every
name in it to be emitted, as a literal or in :data:`RUNTIME_NAMES`, so
a deleted counter cannot leave a stale row.
"""

import ast
import re
from pathlib import Path

from repro.faults import FAULT_KINDS

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"

EMITTERS = {"counter", "gauge", "histogram", "span", "counter_inc"}

#: Catalogued metrics whose names are built at runtime: one
#: ``faults.injected.<kind>`` per fault kind, and the fork pools'
#: ``<name>.pool.fallbacks``.
RUNTIME_NAMES = {f"faults.injected.{kind}" for kind in FAULT_KINDS} | {
    "experiment.pool.fallbacks",
    "service.pool.fallbacks",
}

#: A backticked dotted name, or a ``.suffix`` shorthand for a sibling of
#: the previous full name (``reproduce.fig6`` / ``.fig7``).
_DOC_NAME = re.compile(r"`(\.?[a-z0-9_]+(?:\.[a-z0-9_]+)*)`")


def emitted_names():
    """``{name: "path:line"}`` for every literal name under src/repro."""
    names = {}
    for path in sorted(SOURCE.rglob("*.py")):
        if "lint" in path.relative_to(SOURCE).parts:
            continue  # rule fixtures and messages, not instrumentation
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = getattr(func, "attr", getattr(func, "id", None))
            first = node.args[0]
            if called in EMITTERS and isinstance(first, ast.Constant) and (
                isinstance(first.value, str)
            ):
                names.setdefault(
                    first.value, f"{path.relative_to(ROOT)}:{node.lineno}"
                )
    return names


def _doc_names(text):
    """Every dotted name in ``text``, ``.suffix`` shorthands expanded."""
    names = set()
    previous = None
    for token in _DOC_NAME.findall(text):
        if token.startswith("."):
            if previous is None:
                continue
            token = previous.rsplit(".", 1)[0] + token
        elif "." not in token:
            continue
        names.add(token)
        previous = token
    return names


def catalogued_names():
    return _doc_names(CATALOGUE.read_text())


def catalogue_table_names():
    """The names in the first column of the metric catalogue table."""
    text = CATALOGUE.read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    rows = [
        line.split("|")[1]
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    return _doc_names("\n".join(rows))


def test_collector_finds_the_instrumentation():
    names = emitted_names()
    # One of each kind, so a broken collector cannot pass vacuously.
    for expected in ("sim.table.hits", "service.sessions.active",
                     "engine.score.batch_ms", "engine.select",
                     "experiment.trial_batch", "kernel.sparse.matvecs",
                     "engine.cache.hits", "sim.network.replies"):
        assert expected in names


def test_catalogue_table_is_read():
    names = catalogue_table_names()
    # Rows, ``.suffix`` shorthands and runtime names all come through.
    for expected in ("sim.table.hits", "engine.cache.prefix_extensions",
                     "faults.injected.outage", "service.sessions.active"):
        assert expected in names
    # Span names appear in the prose below the table, not in it.
    assert "engine.select" not in names


def test_every_emitted_name_is_catalogued():
    catalogued = catalogued_names()
    missing = {
        name: where
        for name, where in emitted_names().items()
        if name not in catalogued
    }
    assert not missing, (
        "emitted but missing from docs/OBSERVABILITY.md: "
        + ", ".join(f"{name} ({where})" for name, where in sorted(missing.items()))
    )


def test_every_catalogued_metric_is_emitted():
    emitted = set(emitted_names()) | RUNTIME_NAMES
    stale = sorted(catalogue_table_names() - emitted)
    assert not stale, (
        "catalogued in docs/OBSERVABILITY.md but emitted nowhere under "
        "src/repro: " + ", ".join(stale)
    )
