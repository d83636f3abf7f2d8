"""Orchestration for the whole-program pass (``check --project``).

One :func:`run_project_checks` call builds the project graph once and
runs every project rule over it, then partitions the findings against
the committed baseline.  The report separates *new* findings (fail the
gate), *waived* findings (covered by a justified baseline entry), and
*stale* baseline entries (waivers that no longer match anything --
also a gate failure, so the baseline cannot rot).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

from repro.lint.project.baseline import Baseline, BaselineEntry
from repro.lint.project.capture import PAR101, check_worker_closures
from repro.lint.project.escape import (
    MUT101,
    MUT102,
    check_attribute_stashes,
    check_escaping_arguments,
)
from repro.lint.project.findings import ProjectFinding
from repro.lint.project.graph import ProjectGraph
from repro.lint.project.seeds import (
    SEED101,
    SEED102,
    SEED103,
    check_generator_coupling,
    check_seed_provenance,
    check_worker_seeds,
)
from repro.lint.runner import select_rule_ids

#: ``(rule id, summary)`` for every project rule, in report order.
PROJECT_RULES: List[Tuple[str, str]] = [
    (
        SEED101,
        "an entropy fallback (default_rng receiving None) is reachable "
        "from a CLI entry point",
    ),
    (
        SEED102,
        "a component draws only from the generator it owns (injectors, "
        "defenses and service handlers build it in their setup)",
    ),
    (
        SEED103,
        "a constant-seeded default_rng inside a fork-pool worker closure "
        "repeats the same stream in every worker",
    ),
    (
        MUT101,
        "a frozen cache array is passed to a callee that mutates that "
        "parameter",
    ),
    (
        MUT102,
        "a frozen cache array is stashed on self and later written "
        "through the attribute",
    ),
    (
        PAR101,
        "a pool worker (lambda, nested function, or anything in its "
        "call closure) captures parent RNG/instrumentation state",
    ),
]

_CHECKS: List[Callable[[ProjectGraph], List[ProjectFinding]]] = [
    check_seed_provenance,
    check_generator_coupling,
    check_worker_seeds,
    check_escaping_arguments,
    check_attribute_stashes,
    check_worker_closures,
]


@dataclass
class ProjectReport:
    """The outcome of one whole-program pass."""

    graph: ProjectGraph
    #: Findings not covered by the baseline: these fail the gate.
    new: List[ProjectFinding] = field(default_factory=list)
    #: Findings covered by a justified baseline entry.
    waived: List[ProjectFinding] = field(default_factory=list)
    #: Baseline entries that matched nothing: also fail the gate.
    stale: List[BaselineEntry] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.new and not self.stale

    @property
    def all_findings(self) -> List[ProjectFinding]:
        return sorted(self.new + self.waived)


def run_project_checks(
    root: str,
    baseline: Optional[Baseline] = None,
    select: Optional[Iterable[str]] = None,
) -> ProjectReport:
    """Build the graph for the package at ``root`` and run every rule.

    ``select`` optionally restricts to a subset of project rule IDs,
    parsed as for the per-file pass (:func:`~repro.lint.runner.
    select_rule_ids`; unknown IDs raise ``ValueError``).
    """
    wanted = select_rule_ids(select, project=True)
    graph = ProjectGraph.build(root)
    findings: List[ProjectFinding] = []
    for check in _CHECKS:
        findings.extend(check(graph))
    if wanted is not None:
        findings = [f for f in findings if f.rule in wanted]
    findings.sort()
    report = ProjectReport(graph=graph)
    if baseline is None:
        report.new = findings
    else:
        report.new, report.waived, stale = baseline.partition(
            findings, root=root
        )
        report.stale = [
            entry for entry in stale if wanted is None or entry.rule in wanted
        ]
    return report
