"""Every emitted metric, span and phase name is in the catalogue.

Walks the AST of every module under ``src/repro`` and collects the
literal first argument of each ``counter``/``gauge``/``histogram``/
``span``/``phase``/``counter_inc`` call, then checks each name appears
in docs/OBSERVABILITY.md.  Names built at runtime (f-strings such as
``cli.<command>``, or counters re-emitted by variable) are out of reach
and documented by hand.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src" / "repro"
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"

EMITTERS = {"counter", "gauge", "histogram", "span", "phase", "counter_inc"}

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


def catalogued_names():
    names = set()
    previous = None
    for token in _DOC_NAME.findall(CATALOGUE.read_text()):
        if token.startswith("."):
            if previous is None:
                continue
            token = previous.rsplit(".", 1)[0] + token
        elif "." not in token:
            continue
        names.add(token)
        previous = token
    return names


def test_collector_finds_the_instrumentation():
    names = emitted_names()
    # One of each kind, so a broken collector cannot pass vacuously.
    for expected in ("sim.table.hits", "engine.pool.n_jobs",
                     "engine.score.batch_ms", "engine.select",
                     "harness.trials", "kernel.sparse.matvecs"):
        assert expected in names


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
