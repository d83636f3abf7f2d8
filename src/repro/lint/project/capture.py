"""PAR101 -- pool workers must not capture parent RNG/instrumentation.

Every fan-out in the package goes through
:class:`repro.parallel.ForkPool`.  Under the fork start method a worker
silently inherits the parent's memory image, so it is easy to write a
worker that *appears* to work while breaking both determinism
contracts: drawing from a generator created in the parent clones the
parent's stream into every fork (so ``trial_jobs`` changes the numbers),
and writing to the parent's :class:`~repro.obs.Instrumentation` records
nothing or double-counts.  Captures often hide one hop away -- a worker
imported from another module, or a clean-looking worker that calls a
helper which calls ``get_instrumentation()`` three frames down -- so
the rule walks the whole call-graph closure of every dispatched worker
(and ``Pool(initializer=...)``) and flags:

* ``lambda`` workers and workers defined inside the dispatching
  function -- closures capture parent state invisibly (and do not
  survive a switch to the spawn start method);
* calls to ``get_instrumentation()`` anywhere in the closure -- under
  fork that resolves to the *parent's* backend -- unless the closure
  installs a fresh backend via ``use_instrumentation(...)`` first, or
  the dispatch is a ``ForkPool`` map, whose worker side installs one
  itself;
* reads of module globals bound to ``Instrumentation``/``Generator``
  state anywhere in the closure, including globals imported from other
  modules.

A dispatch is ``ForkPool(...).map(w, xs)``, a name bound from
``ForkPool(...)`` whatever it is called, or a pool dispatch method on a
receiver named like a pool (:func:`~repro.lint.project.graph.
pool_dispatch`).  State a worker needs travels in ``ForkPool``'s
``shared`` argument, the sanctioned channel for fork-inherited state.
The :mod:`repro.obs` package is exempt from the global-read check: it
owns the ambient-backend global by design.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project.graph import FunctionInfo, PoolDispatch, ProjectGraph

PAR101 = "PAR101"


def _is_obs_module(graph: ProjectGraph, module: str) -> bool:
    prefix = f"{graph.package}.obs"
    return module == prefix or module.startswith(prefix + ".")


def _closure_worker(
    graph: ProjectGraph, info: FunctionInfo, dispatch: PoolDispatch
) -> Optional[str]:
    """Why the dispatched worker is a closure, or ``None`` if it is not."""
    worker = dispatch.worker
    if isinstance(worker, ast.Lambda):
        return (
            "lambda pool worker captures its defining scope; use a "
            "module-level function taking explicit task state"
        )
    if isinstance(worker, ast.Name) and dispatch.worker_qname is None:
        nested = any(
            node.name == worker.id
            for node in graph.module_of(info).source.functions(within=info.node)
        )
        if nested:
            return (
                f"pool worker '{worker.id}' is a nested function; its "
                "closure captures parent state -- define it at module level"
            )
    return None


def check_worker_closures(graph: ProjectGraph) -> List[Finding]:
    findings: List[Finding] = []
    seen: Set[Tuple[str, int, int]] = set()

    def report(finding: Finding) -> None:
        key = (finding.path, finding.line, finding.col)
        if key not in seen:
            seen.add(key)
            findings.append(finding)

    for info in graph.iter_functions():
        for dispatch in info.pool_dispatches:
            closure_reason = _closure_worker(graph, info, dispatch)
            if closure_reason is not None:
                report(graph.finding(info, dispatch.worker, PAR101, closure_reason))
            roots = [
                qname
                for qname in (
                    dispatch.worker_qname,
                    dispatch.initializer_qname,
                )
                if qname is not None
            ]
            if not roots:
                continue
            closure = graph.reachable(roots)
            installs_fresh = dispatch.fresh_backend or any(
                graph.functions[qname].installs_fresh_instrumentation
                for qname in closure
                if qname in graph.functions
            )
            for member_qname in sorted(closure):
                member = graph.functions.get(member_qname)
                if member is None:
                    continue
                for finding in _check_member(
                    graph, member, dispatch.caller, installs_fresh
                ):
                    report(finding)
    return findings


def _check_member(
    graph: ProjectGraph,
    member: FunctionInfo,
    dispatch_caller: str,
    installs_fresh: bool,
) -> List[Finding]:
    found: List[Finding] = []
    if not installs_fresh:
        for call in member.get_instrumentation_calls:
            found.append(
                graph.finding(
                    member,
                    call,
                    PAR101,
                    f"reached from the pool dispatch in {dispatch_caller}: "
                    "get_instrumentation() resolves to the parent's "
                    "backend under fork -- install a fresh backend with "
                    "use_instrumentation() in the worker and return "
                    "counter deltas",
                )
            )
    if not _is_obs_module(graph, member.module):
        for node, origin_module, name in member.global_reads:
            found.append(
                graph.finding(
                    member,
                    node,
                    PAR101,
                    f"reached from the pool dispatch in {dispatch_caller}: "
                    f"reads parent-owned global '{name}' from "
                    f"{origin_module}; pass seeds/state through the task "
                    "items instead",
                )
            )
    return found
