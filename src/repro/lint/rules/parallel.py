"""PAR001 -- pool workers must not capture parent RNG/instrumentation.

Every fan-out in the package goes through
:class:`repro.parallel.ForkPool`.  Under the fork start method a worker
function silently inherits the parent's memory image, so it is easy to
write a worker that *appears* to work while breaking both determinism
contracts:

* drawing from an ``np.random.Generator`` created in the parent makes
  every worker clone the parent's stream -- draws are duplicated across
  workers and diverge from the serial order, so ``n_jobs`` changes the
  numbers;
* writing to the parent's :class:`~repro.obs.Instrumentation` records
  nothing (the fork's copy dies with the worker) or double-counts under
  a start-method change.

Workers must instead receive pre-drawn seeds/plans in their task items
and leave counter merging to the pool.  The rule inspects every
function dispatched through a pool.  A dispatch is
``ForkPool(...).map(worker, ...)``, ``<name>.map(worker, ...)`` where
``<name>`` is bound from ``ForkPool(...)`` anywhere in the module
(assignment or ``with ... as``, scopes not told apart), or a ``Pool``
dispatch method on a receiver whose name contains "pool".  It flags:

* ``lambda`` workers and workers defined inside another function --
  closures capture parent state invisibly (and do not survive a switch
  to the spawn start method);
* module-level workers that call ``get_instrumentation()`` -- under
  fork that is the parent's backend; create a fresh
  ``Instrumentation()`` and return its counters as deltas instead.
  ``ForkPool`` workers are exempt: the primitive installs a fresh
  backend in the worker and merges its counters itself;
* module-level workers that read a module global bound to an
  ``Instrumentation``/``np.random.Generator`` (by construction --
  ``X = Instrumentation()`` / ``X = np.random.default_rng(...)`` /
  ``X = get_instrumentation()`` -- or by annotation).

The ``shared`` argument of ``ForkPool(jobs, shared, name=...)`` is the
sanctioned channel for fork-inherited state (it reaches each worker as
the first argument of the worker); raw ``Pool(initializer=...)``
initializers are not flagged either.  Intentional exceptions need
``# repro: noqa[PAR001]``.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.base import (
    AnyFunctionDef,
    LintRule,
    ModuleSource,
    call_endpoint,
    dotted_name,
    iter_function_defs,
)
from repro.lint.findings import Finding

#: ``multiprocessing.Pool`` methods that dispatch a worker function.
POOL_DISPATCH_METHODS: FrozenSet[str] = frozenset(
    {
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
        "apply",
        "apply_async",
    }
)

#: Constructor endpoints whose module-level result taints a global.
_TAINTING_CALLS: FrozenSet[str] = frozenset(
    {"Instrumentation", "get_instrumentation", "default_rng", "RandomState"}
)

#: Annotation substrings marking a global as RNG/instrumentation state.
_TAINTED_ANNOTATIONS: Tuple[str, ...] = ("Instrumentation", "Generator")


#: The :class:`repro.parallel.ForkPool` constructor, by call endpoint.
FORK_POOL = "ForkPool"


def _is_fork_pool_call(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Call) and call_endpoint(node.func) == FORK_POOL


def fork_pool_names(tree: ast.AST) -> FrozenSet[str]:
    """Dotted names bound from ``ForkPool(...)`` anywhere in ``tree``."""
    targets: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_fork_pool_call(node.value):
            targets.extend(node.targets)
        elif isinstance(node, ast.AnnAssign) and _is_fork_pool_call(
            node.value
        ):
            targets.append(node.target)
        elif (
            isinstance(node, ast.withitem)
            and node.optional_vars is not None
            and _is_fork_pool_call(node.context_expr)
        ):
            targets.append(node.optional_vars)
    names = (dotted_name(target) for target in targets)
    return frozenset(name for name in names if name is not None)


def pool_dispatch(
    node: ast.Call, fork_pools: FrozenSet[str]
) -> Optional[str]:
    """How ``node`` dispatches a worker: ``"fork"``, ``"pool"`` or ``None``.

    ``"fork"`` is a :class:`~repro.parallel.ForkPool` dispatch (the
    receiver is a ``ForkPool(...)`` call or a name in ``fork_pools``);
    ``"pool"`` is any other pool dispatch method on a receiver whose
    name contains "pool".
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in POOL_DISPATCH_METHODS:
        return None
    if _is_fork_pool_call(func.value):
        return "fork"
    receiver = dotted_name(func.value)
    if receiver is None:
        return None
    if receiver in fork_pools:
        return "fork"
    return "pool" if "pool" in receiver.lower() else None


def _annotation_text(node: Optional[ast.expr]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.9+
        return ""


class _ModuleIndex:
    """Module-level facts the worker checks need: defs, scopes, taints."""

    def __init__(self, tree: ast.Module) -> None:
        self.top_level: Dict[str, AnyFunctionDef] = {}
        self.nested: Set[str] = set()
        self.tainted_globals: Dict[str, str] = {}

        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_level[statement.name] = statement
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                self._index_global(statement)

        for function in iter_function_defs(tree):
            for inner in ast.walk(function):
                if inner is function:
                    continue
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.nested.add(inner.name)

    def _index_global(self, statement: ast.stmt) -> None:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
            value = statement.value
            annotation = ""
        else:
            assert isinstance(statement, ast.AnnAssign)
            targets = [statement.target]
            value = statement.value
            annotation = _annotation_text(statement.annotation)
        reason = ""
        if isinstance(value, ast.Call):
            endpoint = call_endpoint(value.func)
            if endpoint in _TAINTING_CALLS:
                reason = f"assigned from {endpoint}()"
        if not reason and any(
            marker in annotation for marker in _TAINTED_ANNOTATIONS
        ):
            reason = f"annotated as {annotation}"
        if not reason:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.tainted_globals[target.id] = reason


class PoolWorkerCaptureRule(LintRule):
    """PAR001: pool workers must receive state explicitly."""

    rule_id: ClassVar[str] = "PAR001"
    summary: ClassVar[str] = (
        "pool workers must not capture parent "
        "Instrumentation/Generator state (pass seeds, return deltas)"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        if module.tree is None:
            return
        index = _ModuleIndex(module.tree)
        fork_pools = fork_pool_names(module.tree)
        reported: Set[Tuple[int, int]] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            kind = pool_dispatch(node, fork_pools)
            if kind is None:
                continue
            worker = node.args[0]
            for finding in self._check_worker(
                module, worker, index, fresh_backend=kind == "fork"
            ):
                key = (finding.line, finding.col)
                if key not in reported:
                    reported.add(key)
                    yield finding

    # ------------------------------------------------------------------
    def _check_worker(
        self,
        module: ModuleSource,
        worker: ast.expr,
        index: _ModuleIndex,
        *,
        fresh_backend: bool,
    ) -> Iterator[Finding]:
        if isinstance(worker, ast.Lambda):
            yield self.finding(
                module,
                worker,
                "lambda pool worker captures its defining scope; use a "
                "module-level function taking explicit task state",
            )
            return
        name = worker.id if isinstance(worker, ast.Name) else None
        if name is None:
            return
        if name in index.nested and name not in index.top_level:
            yield self.finding(
                module,
                worker,
                f"pool worker '{name}' is a nested function; its closure "
                "captures parent state -- define it at module level",
            )
            return
        definition = index.top_level.get(name)
        if definition is None:
            return
        yield from self._check_worker_body(
            module, definition, index, fresh_backend
        )

    def _check_worker_body(
        self,
        module: ModuleSource,
        definition: AnyFunctionDef,
        index: _ModuleIndex,
        fresh_backend: bool,
    ) -> Iterator[Finding]:
        local_names = {
            argument.arg
            for argument in (
                definition.args.posonlyargs
                + definition.args.args
                + definition.args.kwonlyargs
            )
        }
        # Anything stored anywhere in the worker is a local (Python's
        # whole-function scoping), unless declared global.
        declared_global: Set[str] = set()
        for node in ast.walk(definition):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Store
            ):
                local_names.add(node.id)
        local_names -= declared_global
        for node in ast.walk(definition):
            if isinstance(node, ast.Call) and not fresh_backend:
                endpoint = call_endpoint(node.func)
                if endpoint == "get_instrumentation":
                    yield self.finding(
                        module,
                        node,
                        f"pool worker '{definition.name}' reads the "
                        "ambient instrumentation; under fork that is the "
                        "parent's backend -- create a fresh "
                        "Instrumentation() and return counter deltas",
                    )
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id not in local_names
                and node.id in index.tainted_globals
            ):
                reason = index.tainted_globals[node.id]
                yield self.finding(
                    module,
                    node,
                    f"pool worker '{definition.name}' reads parent-owned "
                    f"global '{node.id}' ({reason}); pass seeds/state in "
                    "the task items instead",
                )
