"""RNG001 -- all randomness must thread from explicit seeds.

The differential suites assert that experiment results are bitwise
identical across ``trial_jobs`` settings, and every experiment is keyed by
``ExperimentParams.seed``.  Both guarantees die the moment any code
path draws from OS entropy: an unseeded ``np.random.default_rng()`` or
a module-level global (``np.random.rand`` and friends, or the stdlib
``random`` module), whose hidden state is shared across the whole
process and every fork.

The rule flags:

* ``np.random.default_rng()`` called with **no seed argument** (any
  argument -- a seed, a ``SeedSequence``, another generator -- is
  accepted; threading ``None`` through a parameter is invisible to a
  static pass and remains the caller's responsibility);
* any use of the legacy module-level API (``np.random.seed``,
  ``np.random.rand``, ``np.random.RandomState``, ...), seeded or not;
* calls into the stdlib ``random`` module (``random.random()``,
  ``random.uniform(...)``, ...), seeded or not.

Seeds must originate from ``ExperimentParams``/CLI ``--seed`` flags and
thread down as ``np.random.Generator`` instances.  Intentional entropy
(none exists in this repo today) needs ``# repro: noqa[RNG001]``.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, Set

from repro.lint.base import ImportAliases, LintRule, ModuleSource
from repro.lint.findings import Finding

#: Legacy module-level ``numpy.random`` API backed by the hidden global
#: ``RandomState`` (plus ``RandomState`` itself and its state plumbing).
LEGACY_GLOBAL_API: FrozenSet[str] = frozenset(
    {
        "RandomState",
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "gamma",
        "geometric",
        "get_state",
        "gumbel",
        "hypergeometric",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "rayleigh",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)


#: Stdlib ``random`` module functions backed by its hidden global.
STDLIB_RANDOM_API: FrozenSet[str] = frozenset(
    {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gammavariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }
)


class UnseededRandomnessRule(LintRule):
    """RNG001: unseeded generators and the legacy global RNG."""

    rule_id: ClassVar[str] = "RNG001"
    summary: ClassVar[str] = (
        "randomness must thread from explicit seeds "
        "(ExperimentParams / CLI --seed)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        aliases = module.import_aliases()
        for call in module.nodes(ast.Call):
            finding = self._check_call(module, call, aliases)
            if finding is not None:
                yield finding
        for attribute in module.nodes(ast.Attribute):
            finding = self._check_attribute(module, attribute, aliases)
            if finding is not None:
                yield finding

    # ------------------------------------------------------------------
    def _check_call(
        self, module: ModuleSource, node: ast.Call, aliases: ImportAliases
    ) -> Finding | None:
        if not aliases.is_default_rng(node.func):
            return None
        if node.args or node.keywords:
            return None
        return self.finding(
            module,
            node,
            "unseeded default_rng(); thread a seed or Generator from "
            "ExperimentParams / the CLI --seed flag",
        )

    def _check_attribute(
        self,
        module: ModuleSource,
        node: ast.Attribute,
        aliases: ImportAliases,
    ) -> Finding | None:
        if (
            node.attr in STDLIB_RANDOM_API
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases.stdlib_random
        ):
            return self.finding(
                module,
                node,
                f"stdlib global random.{node.attr}; use a seeded "
                "np.random.Generator threaded from the caller",
            )
        if node.attr not in LEGACY_GLOBAL_API:
            return None
        if not aliases.is_numpy_random(node.value):
            return None
        return self.finding(
            module,
            node,
            f"legacy global np.random.{node.attr}; use a seeded "
            "np.random.Generator threaded from the caller",
        )
