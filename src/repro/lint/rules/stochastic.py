"""STO001 -- transition-matrix construction must self-validate.

Eqn. 8 evolves ``I_T = A^T I_0``; every probability the attack reports
(Eqns. 1--7, the IG argmax) is a linear functional of powers of ``A``.
A row that silently sums to 1 + eps inflates every posterior it feeds,
and the substochastic target-excluded matrices of Section V-A must shed
*exactly* the excluded flows' mass -- errors here are invisible to
spot-check tests because the drift compounds over ``T`` steps.

The rule therefore requires every construction site -- a function named
like ``*transition_matrix*`` / ``*probe_matrix*``, or any function
assembling a scipy sparse matrix from coo-style triplets -- to call
:func:`repro.core.chain.validate_stochastic` before handing the matrix
out.  Helper functions that build triplet *entries* without forming a
matrix are not flagged; validation belongs where the matrix is formed.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, FrozenSet, Iterator

from repro.lint.base import LintRule, ModuleSource, call_endpoint
from repro.lint.findings import Finding

#: scipy.sparse constructors that assemble a matrix from triplets/data.
SPARSE_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "bsr_matrix",
        "coo_array",
        "coo_matrix",
        "csc_array",
        "csc_matrix",
        "csr_array",
        "csr_matrix",
        "dia_matrix",
        "dok_matrix",
        "lil_matrix",
    }
)

#: Function names that are transition-matrix construction sites by
#: contract (anchored: a benchmark or test *about* these functions is
#: not itself a construction site).
_MATRIX_DEF_RE = re.compile(r"^_*(transition|probe)_matrix$")

#: The blessed validator (repro.core.chain.validate_stochastic).
VALIDATOR_NAME = "validate_stochastic"


class UnvalidatedTransitionMatrixRule(LintRule):
    """STO001: matrix construction without ``validate_stochastic``."""

    rule_id: ClassVar[str] = "STO001"
    summary: ClassVar[str] = (
        "transition/probe matrix construction sites must call "
        "chain.validate_stochastic"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for function in module.functions():
            # The function's own calls: lambdas and nested classes
            # count, nested function definitions do not.
            endpoints = {
                call_endpoint(call.func)
                for call in module.body_nodes(function, ast.Call)
            }
            constructs = _MATRIX_DEF_RE.search(function.name) or (
                endpoints & SPARSE_CONSTRUCTORS
            )
            if constructs and VALIDATOR_NAME not in endpoints:
                yield self.finding(
                    module,
                    function,
                    f"{function.name}() constructs a transition matrix "
                    "without routing it through chain.validate_stochastic",
                )
