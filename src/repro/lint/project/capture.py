"""PAR101 -- transitive cross-module pool-worker capture.

The per-file PAR001 rule inspects a pool worker's own body in the
module where the dispatch happens.  Real captures hide one hop away: a
worker imported from another module, or a clean-looking worker that
calls a helper which calls ``get_instrumentation()`` three frames
down.  PAR101 walks the whole call-graph closure of every dispatched
worker (and ``Pool(initializer=...)``) and flags, anywhere in that
closure:

* calls to ``get_instrumentation()`` -- under fork that resolves to the
  *parent's* backend, so recorded events vanish with the worker --
  unless the closure installs a fresh backend via
  ``use_instrumentation(...)`` first, or the dispatch is a
  :class:`repro.parallel.ForkPool` map, whose worker side installs one
  itself;
* reads of module globals bound to ``Instrumentation``/``Generator``
  state, including globals imported from *other* modules, which PAR001
  cannot see.

Dispatches are recognised as in PAR001: ``ForkPool(...).map(w, xs)``,
a name bound from ``ForkPool(...)`` whatever it is called, or a pool
method on a receiver named like a pool.  State a worker needs travels
in ``ForkPool``'s ``shared`` argument, the sanctioned channel for
fork-inherited state.  Findings inside the dispatched worker itself,
when it lives in the same module as the dispatch, are left to PAR001
-- this rule reports only what the per-file pass cannot.  The :mod:`repro.obs` package is exempt
from the global-read check: it owns the ambient-backend global by
design.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.lint.project.findings import ProjectFinding
from repro.lint.project.graph import FunctionInfo, ProjectGraph

PAR101 = "PAR101"


def _finding(
    graph: ProjectGraph, info: FunctionInfo, node: ast.AST, message: str
) -> ProjectFinding:
    return ProjectFinding(
        path=graph.module_of(info).path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        rule=PAR101,
        message=message,
        symbol=info.qname,
    )


def _is_obs_module(graph: ProjectGraph, module: str) -> bool:
    prefix = f"{graph.package}.obs"
    return module == prefix or module.startswith(prefix + ".")


def check_worker_closures(graph: ProjectGraph) -> List[ProjectFinding]:
    findings: List[ProjectFinding] = []
    seen: Set[Tuple[str, int, int]] = set()
    for info in graph.iter_functions():
        for dispatch in info.pool_dispatches:
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
            closure = graph.closure(roots)
            installs_fresh = dispatch.fresh_backend or any(
                graph.functions[qname].installs_fresh_instrumentation
                for qname in closure
                if qname in graph.functions
            )
            for member_qname in sorted(closure):
                member = graph.functions.get(member_qname)
                if member is None:
                    continue
                direct_worker = (
                    member_qname == dispatch.worker_qname
                    and member.module == info.module
                )
                if direct_worker:
                    continue  # PAR001 territory
                for finding in _check_member(
                    graph, member, dispatch.caller, installs_fresh
                ):
                    key = (finding.path, finding.line, finding.col)
                    if key not in seen:
                        seen.add(key)
                        findings.append(finding)
    return findings


def _check_member(
    graph: ProjectGraph,
    member: FunctionInfo,
    dispatch_caller: str,
    installs_fresh: bool,
) -> List[ProjectFinding]:
    found: List[ProjectFinding] = []
    if not installs_fresh:
        for call in member.get_instrumentation_calls:
            found.append(
                _finding(
                    graph,
                    member,
                    call,
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
                _finding(
                    graph,
                    member,
                    node,
                    f"reached from the pool dispatch in {dispatch_caller}: "
                    f"reads parent-owned global '{name}' from "
                    f"{origin_module}; pass seeds/state through the task "
                    "items instead",
                )
            )
    return found
