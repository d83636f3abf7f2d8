"""Lint runner guard: `make check` must stay fast as rules grow.

The static-analysis pass gates every commit, so its wall time is a
direct tax on the development loop.  This benchmark pins four things:

* the full per-file pass over ``src/`` stays under a generous absolute
  budget (1.2-2.2 s serial on a 2-CPU x86_64 box; the budget leaves
  headroom for new rules before the gate starts hurting);
* one serial whole-program pass (``check --project``) over
  ``src/repro`` stays under its own absolute budget (1.4-1.7 s on the
  same box) -- serial cost is the headline number, since the
  single-CPU floor never fans out;
* the fork-pool fan-out is invisible in the output -- identical
  findings for every job count;
* on multi-core machines the pool does not *lose* to the serial loop
  (single-core boxes, like the CI floor, auto-resolve to serial and
  skip the comparison).

It also prints the size of the lint itself -- lines of code under
``src/repro/lint`` and the rule count -- so growth shows up in review.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro.experiments.report import format_table
from repro.lint import ALL_RULES, run_checks
from repro.lint.project import PROJECT_RULES, run_project_checks

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = str(REPO_ROOT / "src")

#: Absolute wall-clock budget for one full serial pass over src/.
MAX_SERIAL_SECONDS = 15.0

#: Absolute wall-clock budget for one whole-program pass over src/repro.
MAX_PROJECT_SECONDS = 10.0

#: A pool may cost at most this factor over serial before it is a bug.
MAX_POOL_SLOWDOWN = 1.5


def _timed(jobs):
    start = time.perf_counter()
    findings = run_checks([SRC], jobs=jobs)
    return findings, time.perf_counter() - start


def _lint_lines():
    lint = REPO_ROOT / "src" / "repro" / "lint"
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in lint.rglob("*.py")
    )


def test_bench_lint_file_pass(benchmark, print_section):
    serial_findings, serial_seconds = _timed(1)
    pooled_findings, pooled_seconds = benchmark.pedantic(
        lambda: _timed(4), rounds=1, iterations=1
    )
    start = time.perf_counter()
    project = run_project_checks(str(REPO_ROOT / "src" / "repro"))
    project_seconds = time.perf_counter() - start

    print_section(
        format_table(
            ["run", "seconds"],
            [
                ["serial file pass (src/)", serial_seconds],
                ["pooled file pass (jobs=4)", pooled_seconds],
                ["serial project pass (src/repro)", project_seconds],
            ],
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

    # Determinism first: the fan-out must not change a single finding.
    assert pooled_findings == serial_findings == []
    assert serial_seconds < MAX_SERIAL_SECONDS, (
        f"serial lint pass took {serial_seconds:.1f}s; the check gate "
        f"budget is {MAX_SERIAL_SECONDS:.0f}s -- profile the newest rules"
    )
    # The committed baseline waives the one known project finding.
    assert [f.rule for f in project.new] == ["SEED103"]
    assert project_seconds < MAX_PROJECT_SECONDS, (
        f"serial project pass took {project_seconds:.1f}s; the budget is "
        f"{MAX_PROJECT_SECONDS:.0f}s -- profile the graph build"
    )
    if (os.cpu_count() or 1) >= 2:
        assert pooled_seconds < serial_seconds * MAX_POOL_SLOWDOWN, (
            f"fork-pool pass ({pooled_seconds:.2f}s) lost badly to "
            f"serial ({serial_seconds:.2f}s)"
        )
