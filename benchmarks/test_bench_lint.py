"""Lint runner guard: `make check` must stay fast as rules grow.

The static-analysis pass gates every commit, so its wall time is a
direct tax on the development loop.  This benchmark times the one
serial pass ``make check`` runs -- all 12 rules over ``src``,
``benchmarks`` and ``examples``, the project rules over the ``repro``
and ``benchmarks`` packages -- and pins two things:

* the shipped tree is clean: the pass returns no finding;
* the pass stays under a generous absolute budget (0.8-1.3 s on a
  2-CPU x86_64 box, where it took 2.0-3.1 s before each module was
  walked once into a shared node index; the budget leaves headroom for
  new rules before the gate starts hurting).

It also prints the size of the lint itself -- lines of code under
``src/repro/lint`` and the rule count -- so growth shows up in review.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments.report import format_table
from repro.lint import ALL_RULES, run_checks
from repro.lint.project import PROJECT_RULES

REPO_ROOT = Path(__file__).resolve().parent.parent
PATHS = [str(REPO_ROOT / name) for name in ("src", "benchmarks", "examples")]

#: Absolute wall-clock budget for the one serial pass.
MAX_SECONDS = 15.0


def _timed():
    start = time.perf_counter()
    findings = run_checks(PATHS)
    return findings, time.perf_counter() - start


def _lint_lines():
    lint = REPO_ROOT / "src" / "repro" / "lint"
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in lint.rglob("*.py")
    )


def test_bench_lint_pass(benchmark, print_section):
    findings, seconds = benchmark.pedantic(_timed, rounds=1, iterations=1)

    print_section(
        format_table(
            ["run", "seconds"],
            [["one pass (src benchmarks examples)", seconds]],
            title="Lint runner wall time",
        )
    )
    print_section(
        format_table(
            ["lint size", "value"],
            [
                ["lines in src/repro/lint", _lint_lines()],
                ["rules (per-file + project)",
                 len(ALL_RULES) + len(PROJECT_RULES)],
            ],
            title="Lint size",
        )
    )

    assert findings == []
    assert seconds < MAX_SECONDS, (
        f"lint pass took {seconds:.1f}s; the check gate budget is "
        f"{MAX_SECONDS:.0f}s -- profile the newest rules and the graph build"
    )
