"""The project rule registry: stable IDs, summaries, fixed order.

Each project rule is one check over a :class:`ProjectGraph`; the
runner (:func:`repro.lint.runner.run_checks`) builds the graph once per
package root and runs every selected check over it.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple

from repro.lint.findings import Finding
from repro.lint.project.capture import PAR101, check_worker_closures
from repro.lint.project.escape import (
    MUT101,
    MUT102,
    check_attribute_stashes,
    check_escaping_arguments,
)
from repro.lint.project.graph import ProjectGraph
from repro.lint.project.seeds import (
    SEED101,
    SEED102,
    SEED103,
    check_generator_coupling,
    check_seed_provenance,
    check_worker_seeds,
)


class ProjectRule(NamedTuple):
    """One whole-program rule: its ID, summary and graph check."""

    rule_id: str
    summary: str
    check: Callable[[ProjectGraph], List[Finding]]


#: Every project rule, in report order.
PROJECT_RULES: List[ProjectRule] = [
    ProjectRule(
        SEED101,
        "an entropy fallback (default_rng receiving None) is reachable "
        "from a CLI entry point",
        check_seed_provenance,
    ),
    ProjectRule(
        SEED102,
        "a component draws only from the generator it owns (injectors, "
        "defenses and service handlers build it in their setup)",
        check_generator_coupling,
    ),
    ProjectRule(
        SEED103,
        "a constant-seeded default_rng inside a fork-pool worker closure "
        "repeats the same stream in every worker",
        check_worker_seeds,
    ),
    ProjectRule(
        MUT101,
        "a frozen cache array is passed to a callee that mutates that "
        "parameter",
        check_escaping_arguments,
    ),
    ProjectRule(
        MUT102,
        "a frozen cache array is stashed on self and later written "
        "through the attribute",
        check_attribute_stashes,
    ),
    ProjectRule(
        PAR101,
        "a pool worker (lambda, nested function, or anything in its "
        "call closure) captures parent RNG/instrumentation state",
        check_worker_closures,
    ),
]
