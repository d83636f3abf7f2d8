"""Domain-aware static analysis for the reproduction (``repro-sdn check``).

The probability kernels (Eqns. 1--7 of the paper and the Section V
probe-scoring engine) rest on invariants that unit tests cannot fully
cover: cached distribution arrays must never be mutated by callers,
every transition matrix must stay (sub)stochastic, and all randomness
must thread from explicit seeds so ``trial_jobs`` runs stay bitwise
identical.  This package encodes those invariants as AST-level lint
rules with stable IDs:

========  ==========================================================
RNG001    unseeded ``default_rng()`` / ``np.random.*`` / stdlib ``random``
MUT001    in-place mutation of cached model/inference arrays
STO001    transition-matrix construction without ``validate_stochastic``
DET001    iteration over unordered sets feeding downstream computation
PY001     mutable default arguments and float ``==`` comparisons
OBS001    ``span()`` called without ``with``
========  ==========================================================

The whole-program rules (SEED101-103 seed flow and generator
ownership, MUT101-102 buffer escapes, PAR101 pool-worker captures) live
in :mod:`repro.lint.project`.  :func:`run_checks` is the one pass: it
parses and indexes each file once (:class:`ModuleSource`), runs the
per-file rules on every module and the project rules over every
package root among its paths, all reading that index, and filters
every finding through ``# repro: noqa[RULE]`` comments, the only
waiver.  Findings carry precise ``path:line:col`` locations.  See
``docs/STATIC_ANALYSIS.md`` for the rationale behind each rule.
"""

from repro.lint.findings import Finding
from repro.lint.base import LintRule, ModuleSource
from repro.lint.rules import ALL_RULES
from repro.lint.runner import check_source, iter_python_files, run_checks

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintRule",
    "ModuleSource",
    "check_source",
    "iter_python_files",
    "run_checks",
]
