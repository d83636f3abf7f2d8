"""Whole-program determinism rules, run by ``repro-sdn check``.

The per-file rules of :mod:`repro.lint.rules` are deliberately blind to
anything outside one module; the determinism contracts they guard --
seeds threading down from the CLI, frozen cache buffers never written,
fork-pool workers never touching parent state -- are *project-wide*
properties.  This subpackage builds the project-level view and checks
them across module boundaries:

* :mod:`repro.lint.project.graph` -- symbol tables, the import graph,
  and an intraprocedural-summary call graph over one package, built
  from the modules the runner has already parsed;
* :mod:`repro.lint.project.seeds` -- SEED101/102/103: RNG
  seed-provenance dataflow (entropy fallbacks reachable from CLI entry
  points, generator ownership over a table of owners -- injectors,
  defenses, service handlers -- and constant worker seeds);
* :mod:`repro.lint.project.escape` -- MUT101/102: frozen-buffer escape
  analysis across call edges and attribute stashes;
* :mod:`repro.lint.project.capture` -- PAR101: pool workers that
  capture parent state, as lambdas, nested functions, or anywhere in
  their cross-module call closure;
* :mod:`repro.lint.project.rules` -- the registry of the six rules.

The runner (:mod:`repro.lint.runner`) runs them over every package
root among the checked paths, in the same pass as the per-file rules,
and filters their findings through the same ``# repro: noqa[RULE]``
comments.  The static pass over-approximates by design; its runtime
complement is the determinism sanitizer (:mod:`repro.obs.sanitize`,
docs/OBSERVABILITY.md).
"""

from repro.lint.project.graph import ProjectGraph
from repro.lint.project.rules import PROJECT_RULES, ProjectRule

__all__ = [
    "PROJECT_RULES",
    "ProjectGraph",
    "ProjectRule",
]
