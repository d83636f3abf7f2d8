"""PY001 -- Python hygiene traps that corrupt numerics silently.

Two classic traps, both of which have bitten probability code:

* **mutable default arguments** -- a ``def f(cache={})`` default is
  created once and shared across every call (and across every worker
  that inherits the module through fork), turning pure scoring
  functions stateful;
* **float equality** -- comparing floats to literals with ``==`` /
  ``!=`` conflates "mathematically equal" with "bit-identical", which
  fails open after any rounding.  Compare against a tolerance, use
  integer step counts, or -- for genuine exact sentinels such as
  "timeout disabled" stored as ``0.0`` -- suppress the finding with
  ``# repro: noqa[PY001]`` to document the intent.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Iterator, List, Optional

from repro.lint.base import LintRule, ModuleSource
from repro.lint.findings import Finding

_MUTABLE_CALLS = frozenset({"dict", "list", "set"})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(
        node.op, (ast.UAdd, ast.USub)
    ):
        return _is_float_literal(node.operand)
    return False


class PythonHygieneRule(LintRule):
    """PY001: mutable defaults and float ``==`` comparisons."""

    rule_id: ClassVar[str] = "PY001"
    summary: ClassVar[str] = (
        "no mutable default arguments; no float == / != comparisons"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for function in module.functions():
            defaults: List[Optional[ast.expr]] = list(function.args.defaults)
            defaults.extend(function.args.kw_defaults)
            for default in defaults:
                if default is not None and _is_mutable_default(default):
                    yield self.finding(
                        module,
                        default,
                        f"mutable default argument in {function.name}(); "
                        "default to None and build inside the body",
                    )
        for node in module.nodes(ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_float_literal(left) or _is_float_literal(right):
                    yield self.finding(
                        module,
                        node,
                        "float equality comparison; use a tolerance, an "
                        "integer representation, or noqa an exact "
                        "sentinel",
                    )
                    break
