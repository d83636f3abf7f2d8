"""Whole-program determinism analysis (``repro-sdn check --project``).

The per-file rules of :mod:`repro.lint.rules` are deliberately blind to
anything outside one module; the determinism contracts they guard --
seeds threading down from the CLI, frozen cache buffers never written,
fork-pool workers never touching parent state -- are *project-wide*
properties.  This subpackage builds the project-level view and checks
them across module boundaries:

* :mod:`repro.lint.project.graph` -- symbol tables, the import graph,
  and an intraprocedural-summary call graph over the package;
* :mod:`repro.lint.project.seeds` -- SEED101/102/103: RNG
  seed-provenance dataflow (entropy fallbacks reachable from CLI entry
  points, generator ownership over a table of owners -- injectors,
  defenses, service handlers -- and constant worker seeds);
* :mod:`repro.lint.project.escape` -- MUT101/102: frozen-buffer escape
  analysis across call edges and attribute stashes;
* :mod:`repro.lint.project.capture` -- PAR101: pool workers that
  capture parent state, as lambdas, nested functions, or anywhere in
  their cross-module call closure;
* :mod:`repro.lint.project.baseline` -- the committed waiver file for
  justified findings;
* :mod:`repro.lint.project.sarif` -- SARIF 2.1.0 rendering for code
  scanning UIs.

The static pass over-approximates by design; its runtime complement is
the determinism sanitizer (:mod:`repro.obs.sanitize`, docs/OBSERVABILITY.md).
"""

from repro.lint.project.baseline import Baseline
from repro.lint.project.graph import ProjectGraph
from repro.lint.project.runner import (
    PROJECT_RULES,
    ProjectReport,
    run_project_checks,
)
from repro.lint.project.sarif import to_sarif

__all__ = [
    "Baseline",
    "PROJECT_RULES",
    "ProjectGraph",
    "ProjectReport",
    "run_project_checks",
    "to_sarif",
]
