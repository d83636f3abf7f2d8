"""MUT101/102 -- frozen-buffer escape analysis across call edges.

The compact model's cache accessors (``evolution``,
``prefix_distribution``, ``coverage_vector``, ``probe_matrix``, the
CSR ``data``/``indices``/``indptr`` buffers behind
``transition_matrix``) return **frozen, shared** arrays -- writing one
corrupts every later reader of the cache.  The per-file MUT001 rule
catches a mutation in the same module as the accessor call; these two
rules track the array once it *escapes*:

* **MUT101** -- a cache-aliased array is passed as an argument to a
  callee that (transitively) mutates that parameter.  The mutated-
  parameter set is a fixpoint over the call graph: a parameter is
  mutating if the function writes it in place, or forwards it into a
  mutating position of another project function.
* **MUT102** -- a cache-aliased array is stashed on ``self`` and some
  method of the same class later writes through that attribute.  The
  stash looks innocent at the store site and the write looks like a
  private buffer at the mutation site; only the pair is a bug.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project.graph import (
    FunctionInfo,
    ProjectGraph,
    TaintedArg,
)

MUT101 = "MUT101"
MUT102 = "MUT102"


def mutated_parameters(graph: ProjectGraph) -> Dict[str, Set[str]]:
    """Fixpoint: for each function, the parameters it mutates in place
    (directly, or by forwarding into another mutating parameter)."""
    mutated: Dict[str, Set[str]] = {}
    for info in graph.functions.values():
        direct: Set[str] = set()
        for mutation in info.mutations:
            if len(mutation.base) == 1 and mutation.base[0] in info.params:
                direct.add(mutation.base[0])
        mutated[info.qname] = direct

    changed = True
    while changed:
        changed = False
        for info in graph.functions.values():
            current = mutated[info.qname]
            for site in info.calls:
                if site.callee is None:
                    continue
                callee = graph.functions.get(site.callee)
                if callee is None:
                    continue
                callee_mutated = mutated[site.callee]
                if not callee_mutated:
                    continue
                positional = [
                    a for a in site.node.args
                    if not isinstance(a, ast.Starred)
                ]
                for written, argument in enumerate(positional):
                    if not isinstance(argument, ast.Name):
                        continue
                    if argument.id not in info.params:
                        continue
                    index = written + site.param_offset
                    if index >= len(callee.params):
                        continue
                    if (
                        callee.params[index] in callee_mutated
                        and argument.id not in current
                    ):
                        current.add(argument.id)
                        changed = True
                for keyword in site.node.keywords:
                    if (
                        keyword.arg in callee_mutated
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id in info.params
                        and keyword.value.id not in current
                    ):
                        current.add(keyword.value.id)
                        changed = True
    return mutated


def _bound_parameter(
    tainted: TaintedArg, callee: FunctionInfo
) -> Optional[str]:
    if tainted.keyword is not None:
        return tainted.keyword if tainted.keyword in callee.params else None
    assert tainted.position is not None
    index = tainted.position + tainted.site.param_offset
    if index < len(callee.params):
        return callee.params[index]
    return None


def check_escaping_arguments(graph: ProjectGraph) -> List[Finding]:
    """MUT101: cache-aliased arrays handed to mutating callees."""
    findings: List[Finding] = []
    mutated = mutated_parameters(graph)
    for info in graph.iter_functions():
        for tainted in info.tainted_args:
            callee_qname = tainted.site.callee
            if callee_qname is None:
                continue
            callee = graph.functions.get(callee_qname)
            if callee is None:
                continue
            parameter = _bound_parameter(tainted, callee)
            if parameter is None or parameter not in mutated[callee_qname]:
                continue
            findings.append(
                graph.finding(
                    info,
                    tainted.site.node,
                    MUT101,
                    f"frozen cache array ({tainted.origin}) passed to "
                    f"{callee_qname}, which mutates parameter "
                    f"'{parameter}'; pass a .copy() or make the callee "
                    "allocate its output",
                )
            )
    return findings


def check_attribute_stashes(graph: ProjectGraph) -> List[Finding]:
    """MUT102: cache arrays stashed on ``self`` then written through."""
    findings: List[Finding] = []
    stashes: Dict[Tuple[str, str], str] = {}
    for info in graph.functions.values():
        if info.class_name is None:
            continue
        owner = f"{info.module}.{info.class_name}"
        for attribute in info.tainted_attr_stores:
            stashes.setdefault((owner, attribute), info.qname)
    if not stashes:
        return findings
    for info in graph.iter_functions():
        if info.class_name is None:
            continue
        owner = f"{info.module}.{info.class_name}"
        for mutation in info.mutations:
            if len(mutation.base) != 2 or mutation.base[0] != "self":
                continue
            stashed_in = stashes.get((owner, mutation.base[1]))
            if stashed_in is None:
                continue
            findings.append(
                graph.finding(
                    info,
                    mutation.node,
                    MUT102,
                    f"writes through self.{mutation.base[1]}, which "
                    f"{stashed_in} bound to a frozen cache array; copy "
                    "at the stash site before mutating",
                )
            )
    return findings
