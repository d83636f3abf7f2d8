"""Every emitted metric and span name is in the catalogue, and back.

Walks the AST of every module under ``src/repro`` and collects the
literal first argument of each ``counter``/``gauge``/``histogram``/
``span``/``counter_inc`` call, then checks each name appears
in docs/OBSERVABILITY.md.  Names built at runtime (f-strings such as
``cli.<command>``, or counters re-emitted by variable) are out of reach
and documented by hand.

The reverse check reads the metric catalogue table and requires every
name in it to be emitted, as a literal or in :data:`RUNTIME_NAMES`, so
a deleted counter cannot leave a stale row.  Every row carries exactly
one fan-out class (:mod:`tests.obs.catalogue`), and every emitted
metric has a row.
"""

import ast

import pytest

from repro.faults import FAULT_KINDS

from tests.obs.catalogue import (
    CATALOGUE,
    ROOT,
    catalogue_rows,
    doc_names,
    fanout_classes,
)

SOURCE = ROOT / "src" / "repro"

EMITTERS = {"counter", "gauge", "histogram", "span", "counter_inc"}

#: Catalogued metrics whose names are built at runtime: one
#: ``faults.injected.<kind>`` per fault kind, and the fork pools'
#: ``<name>.pool.fallbacks``.
RUNTIME_NAMES = {f"faults.injected.{kind}" for kind in FAULT_KINDS} | {
    "experiment.pool.fallbacks",
    "service.pool.fallbacks",
}


def emitted_names(emitters=EMITTERS):
    """``{name: "path:line"}`` for every literal name under src/repro
    passed to one of ``emitters``."""
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
            if called in emitters and isinstance(first, ast.Constant) and (
                isinstance(first.value, str)
            ):
                names.setdefault(
                    first.value, f"{path.relative_to(ROOT)}:{node.lineno}"
                )
    return names


def catalogued_names():
    return doc_names(CATALOGUE.read_text())


def catalogue_table_names():
    """The names in the first column of the metric catalogue table."""
    return set().union(*(names for names, _ in catalogue_rows()))


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


def test_every_row_has_one_fanout_class():
    classes = fanout_classes()
    assert set(classes) == catalogue_table_names()
    assert set(classes.values()) == {"outcome", "work"}
    # Spot checks of the contract: what a fan-out must not change, and
    # what it may.
    for name in ("sim.table.misses", "experiment.trials",
                 "experiment.exact_screen_reject_target",
                 "service.sessions.completed", "faults.injected.outage"):
        assert classes[name] == "outcome", name
    for name in ("engine.cache.hits", "kernel.sparse.matvecs",
                 "experiment.harnesses_built", "experiment.fastscreen_rejects",
                 "experiment.pool.fallbacks", "service.pool.fallbacks"):
        assert classes[name] == "work", name


@pytest.mark.parametrize("fanout", ["", "both", "outcome / work"])
def test_a_row_without_one_class_fails(fanout):
    text = (
        "## Metric catalogue\n\n"
        "| Name | Kind | Fan-out | Meaning |\n"
        "| --- | --- | --- | --- |\n"
        "| `sim.table.hits` | counter | outcome | lookups |\n"
        f"| `sim.table.misses` | counter | {fanout} | lookups |\n"
    )
    with pytest.raises(ValueError, match="sim.table.misses"):
        fanout_classes(text)


def test_every_emitted_metric_has_a_row():
    # Spans are catalogued in prose; every metric needs a table row, so
    # that it has a fan-out class.
    metrics = emitted_names(EMITTERS - {"span"})
    rowless = sorted(set(metrics) - catalogue_table_names())
    assert not rowless, (
        "emitted metrics without a catalogue row: "
        + ", ".join(f"{name} ({metrics[name]})" for name in rowless)
    )
