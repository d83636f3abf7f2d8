"""DET001 -- unordered iteration must not feed downstream computation.

The IG argmax breaks ties by canonical candidate order, float sums
depend on accumulation order, and serialised artifacts are diffed
across runs -- so any value that flows out of a ``set`` must leave it
in sorted order.  With hash randomisation, iterating a set of strings
(or any hash-keyed object) permutes between *processes*, which is
exactly the cross-``trial_jobs`` nondeterminism the differential suites
guard against.

The rule taints set-valued expressions (literals, comprehensions,
``set()`` / ``frozenset()`` calls, set algebra over those, and local
names bound to them) and flags handing one, unsorted, to an ordered
consumer: a ``for`` loop or comprehension, ``list`` / ``tuple`` /
``enumerate`` / ``sum``, ``str.join``, or a numpy array constructor.
Order-insensitive consumption (``in``, ``len``, ``min``/``max``,
``sorted`` itself, set algebra) is untouched.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator, List, Optional, Set

from repro.lint.base import LintRule, ModuleSource, call_endpoint
from repro.lint.findings import Finding

#: Call endpoints whose output order follows input iteration order.
ORDERED_CONSUMERS: FrozenSet[str] = frozenset(
    {
        "array",
        "asarray",
        "concatenate",
        "enumerate",
        "fromiter",
        "join",
        "list",
        "stack",
        "sum",
        "tuple",
    }
)

_SET_CALLS: FrozenSet[str] = frozenset({"frozenset", "set"})
_SET_BINOPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
_SET_METHODS: FrozenSet[str] = frozenset(
    {"difference", "intersection", "symmetric_difference", "union"}
)


class _SetTracker:
    """Per-scope set-typed expression/name classification."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()

    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _SET_CALLS:
                # ``set()`` with no argument builds empty and ordered-
                # by-insertion-is-meaningless; still a set either way.
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_set_expr(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        return False

    def bind(self, target: ast.expr, value: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            if value is not None and self.is_set_expr(value):
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)


class _ScopeWalker(ast.NodeVisitor):
    """Walk one scope's statements in order, flagging ordered consumption."""

    def __init__(self, rule: "SetIterationRule", module: ModuleSource) -> None:
        self.rule = rule
        self.module = module
        self.tracker = _SetTracker()
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, how: str) -> None:
        self.findings.append(
            self.rule.finding(
                self.module,
                node,
                f"{how} iterates an unordered set; wrap it in sorted() "
                "to keep scoring/serialisation deterministic",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        for target in node.targets:
            self.tracker.bind(target, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self.generic_visit(node)
        self.tracker.bind(node.target, node.value)

    def visit_For(self, node: ast.For) -> None:
        if self.tracker.is_set_expr(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators: List[ast.comprehension]) -> None:
        for comp in generators:
            if self.tracker.is_set_expr(comp.iter):
                self._flag(comp.iter, "comprehension")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        endpoint = call_endpoint(node.func)
        if endpoint in ORDERED_CONSUMERS and node.args:
            first = node.args[0]
            if self.tracker.is_set_expr(first):
                self._flag(node, f"{endpoint}() over a set argument")
        self.generic_visit(node)

    # Nested scopes are walked independently.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return


class SetIterationRule(LintRule):
    """DET001: ordered consumption of unordered sets."""

    rule_id: ClassVar[str] = "DET001"
    summary: ClassVar[str] = (
        "set iteration feeding scoring/serialisation must go through "
        "sorted()"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        # Every set value grows from a display, a comprehension or a
        # set()/frozenset() call -- what an empty tracker recognises.
        # A module without one has nothing to flag.
        roots = module.nodes(ast.Set, ast.SetComp, ast.Call)
        if module.tree is None or not any(map(_SetTracker().is_set_expr, roots)):
            return
        bodies = [module.tree.body]
        bodies.extend(function.body for function in module.functions())
        for body in bodies:
            walker = _ScopeWalker(self, module)
            for statement in body:
                walker.visit(statement)
            yield from walker.findings
