"""SEED101/102/103 -- RNG seed provenance across module boundaries.

The determinism contract (DETERMINISM.md) is that every
``numpy.random.Generator`` in a run derives from the one seed the CLI
was given.  Per-file rules can check a module's own ``default_rng``
calls, but the contract is a *flow* property: the seed threads from
``repro.cli`` down through experiment configs, network constructors,
and countermeasure attach points.  Three rules check that flow on the
project graph:

* **SEED101** -- an entropy fallback is reachable from a CLI entry
  point: ``default_rng(p)`` where ``p`` defaults to ``None`` and some
  transitive call chain rooted in ``repro.cli`` leaves it unbound (or
  passes a literal ``None``), so the run silently draws OS entropy.
  Locally guarded parameters (``if p is None: p = DEFAULT`` or an
  ``x if p is None else y`` seed expression) are provenance-correct and
  not flagged.
* **SEED102** -- a component draws only from the generator it owns.
  Anywhere, a draw through another object's generator (``self._network.
  rng.normal(...)``) interleaves two components' streams, so adding a
  draw in one silently shifts the other's numbers.  The owners in
  :data:`OWNERS` -- fault injectors, defenses, service handlers --
  must also build (or ``.spawn``) their stream only in their setup
  functions, and may not draw through any non-``self`` ``.rng`` chain.
* **SEED103** -- a constant-seeded ``default_rng`` inside a fork-pool
  worker closure: every worker starts the *same* stream, so parallel
  trials are secretly correlated.  Workers must consume pre-drawn seeds
  from their task items.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.project.graph import (
    GENERATOR_ATTRS,
    CallSite,
    FunctionInfo,
    ProjectGraph,
)

SEED101 = "SEED101"
SEED102 = "SEED102"
SEED103 = "SEED103"


# ----------------------------------------------------------------------
# SEED101: entropy fallback reachable from the CLI
# ----------------------------------------------------------------------
def _locally_guarded(graph: ProjectGraph, info: FunctionInfo, param: str) -> bool:
    """True when ``param`` is re-bound against ``None`` before use."""
    module = graph.module_of(info).source
    for node in module.nodes(ast.If, ast.Assign, within=info.node):
        if isinstance(node, ast.If) and _compares_none(node.test, param):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Name)
                    and inner.id == param
                    and isinstance(inner.ctx, ast.Store)
                ):
                    return True
        if isinstance(node, ast.Assign):
            if any(
                isinstance(target, ast.Name) and target.id == param
                for target in node.targets
            ) and isinstance(node.value, (ast.IfExp, ast.BoolOp)):
                return True
    return False


def _compares_none(test: ast.expr, param: str) -> bool:
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return False
    left, right = test.left, test.comparators[0]
    names = [n for n in (left, right) if isinstance(n, ast.Name)]
    consts = [n for n in (left, right) if isinstance(n, ast.Constant)]
    return (
        isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and any(n.id == param for n in names)
        and any(c.value is None for c in consts)
    )


def _argument_for(
    site: CallSite, callee: FunctionInfo, param: str
) -> Tuple[str, Optional[ast.expr]]:
    """How one call site binds ``param``: ``(kind, expression)``.

    ``kind`` is ``"expr"`` (bound to the returned expression),
    ``"unbound"`` (default applies), or ``"unknown"`` (``*args`` /
    ``**kwargs`` forwarding -- assumed bound).
    """
    call = site.node
    try:
        index = callee.params.index(param)
    except ValueError:  # pragma: no cover - facts built from params
        return "unknown", None
    written = index - site.param_offset
    positional = [a for a in call.args if not isinstance(a, ast.Starred)]
    if 0 <= written < len(positional):
        return "expr", positional[written]
    for keyword in call.keywords:
        if keyword.arg == param:
            return "expr", keyword.value
    if len(positional) != len(call.args):
        return "unknown", None
    if any(keyword.arg is None for keyword in call.keywords):
        return "unknown", None
    return "unbound", None


class _NoneFlow:
    """Answers: can this parameter be ``None`` on an entry-reachable path?"""

    def __init__(self, graph: ProjectGraph, reachable: Set[str]) -> None:
        self.graph = graph
        self.reachable = reachable
        self._memo: Dict[Tuple[str, str], Optional[str]] = {}

    def evidence(self, qname: str, param: str) -> Optional[str]:
        """A ``caller (path:line)`` description, or ``None`` if clean."""
        key = (qname, param)
        if key in self._memo:
            return self._memo[key]
        self._memo[key] = None  # cycle guard: assume clean while open
        callee = self.graph.functions.get(qname)
        if callee is None:
            return None
        result: Optional[str] = None
        for site in sorted(
            self.graph.callers.get(qname, ()),
            key=lambda s: (s.caller, s.node.lineno, s.node.col_offset),
        ):
            if site.caller not in self.reachable:
                continue
            caller = self.graph.functions.get(site.caller)
            if caller is None:
                continue
            kind, expression = _argument_for(site, callee, param)
            where = (
                f"{site.caller} "
                f"({self.graph.module_of(caller).path}:{site.node.lineno})"
            )
            if kind == "unbound":
                if param in callee.none_default_params:
                    result = where
                    break
                continue
            if kind == "unknown" or expression is None:
                continue
            if (
                isinstance(expression, ast.Constant)
                and expression.value is None
            ):
                result = where
                break
            if (
                isinstance(expression, ast.Name)
                and expression.id in caller.params
                and expression.id in caller.none_default_params
                and not _locally_guarded(self.graph, caller, expression.id)
            ):
                upstream = self.evidence(site.caller, expression.id)
                if upstream is not None:
                    result = upstream
                    break
        self._memo[key] = result
        return result


def check_seed_provenance(graph: ProjectGraph) -> List[Finding]:
    """SEED101 over every ``default_rng(param)`` site in the project."""
    findings: List[Finding] = []
    reachable = graph.reachable(graph.entry_points())
    flow = _NoneFlow(graph, reachable)
    for info in graph.iter_functions():
        if info.qname not in reachable:
            continue
        for site in info.rng_sites:
            if site.kind not in ("param", "param_none_default"):
                continue
            assert site.param is not None
            if _locally_guarded(graph, info, site.param):
                continue
            evidence = flow.evidence(info.qname, site.param)
            if evidence is None and site.kind == "param_none_default":
                # A None default with *no* project caller binding it is
                # only suspicious if someone actually calls it; entry
                # functions themselves are invoked by argparse, which
                # the graph cannot see -- stay quiet there.
                continue
            if evidence is not None:
                findings.append(
                    graph.finding(
                        info,
                        site.node,
                        SEED101,
                        f"default_rng({site.param}) can receive None from "
                        f"{evidence}, falling back to OS entropy; thread "
                        "the run seed down or guard the parameter",
                    )
                )
    return findings


# ----------------------------------------------------------------------
# SEED102: a component draws only from the generator it owns
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Owner:
    """One row of the owner table: who owns a stream, where it is set up."""

    kind: str
    #: Whether a function belongs to this kind of owner.
    owns: Callable[[FunctionInfo], bool]
    #: Whether a function of the owner may build or ``.spawn`` its stream.
    sets_up: Callable[[FunctionInfo], bool]
    #: Where the owner's stream is set up, for messages.
    setup_text: str


def _class_name(info: FunctionInfo) -> str:
    return info.class_name or ""


#: The components that own a generator, first match wins.
OWNERS: Tuple[_Owner, ...] = (
    _Owner(
        "fault injector",
        lambda info: _class_name(info).endswith("Injector"),
        lambda info: info.node.name == "__init__",
        "__init__",
    ),
    _Owner(
        "defense",
        lambda info: _class_name(info).endswith("Defense"),
        lambda info: info.node.name in ("__init__", "attach"),
        "__init__/attach",
    ),
    _Owner(
        "service handler",
        lambda info: "Service" in _class_name(info)
        or isinstance(info.node, ast.AsyncFunctionDef),
        lambda info: info.node.name.startswith(("plan", "_plan")),
        "a plan_* function",
    ),
)


def _owner_of(info: FunctionInfo) -> Optional[_Owner]:
    return next((owner for owner in OWNERS if owner.owns(info)), None)


def _foreign_stream(chain: Tuple[str, ...], owned: bool) -> bool:
    """Whether a draw receiver is a generator the drawing code does not own.

    ``self.<x>.rng`` is always another component's stream; inside an
    owner, so is any non-``self`` ``<x>.rng`` chain.
    """
    if len(chain) < 2 or chain[-1] not in GENERATOR_ATTRS:
        return False
    if chain[0] == "self":
        return len(chain) >= 3
    return owned


def check_generator_coupling(graph: ProjectGraph) -> List[Finding]:
    findings: List[Finding] = []
    for info in graph.iter_functions():
        owner = _owner_of(info)
        setup = owner is not None and owner.sets_up(info)
        if owner is not None and not setup:
            for call in info.generator_constructions:
                findings.append(
                    graph.finding(
                        info,
                        call,
                        SEED102,
                        f"{owner.kind} {info.qname} constructs a generator "
                        "outside its setup; build or spawn the stream once "
                        f"in {owner.setup_text} and draw from it after",
                    )
                )
        for draw in info.draw_sites:
            if not _foreign_stream(draw.chain, owned=owner is not None):
                continue
            if draw.method == "spawn" and setup:
                continue  # deriving the owner's own child stream
            source = ".".join(draw.chain)
            findings.append(
                graph.finding(
                    info,
                    draw.node,
                    SEED102,
                    f"draws '{draw.method}' from another component's "
                    f"generator ('{source}'); the draw interleaves two "
                    "components' streams -- own a generator spawned from "
                    "it at attach/init instead",
                )
            )
    return findings


# ----------------------------------------------------------------------
# SEED103: constant worker seeds
# ----------------------------------------------------------------------
def check_worker_seeds(graph: ProjectGraph) -> List[Finding]:
    findings: List[Finding] = []
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
            for member_qname in sorted(graph.reachable(roots)):
                member = graph.functions.get(member_qname)
                if member is None:
                    continue
                for site in member.rng_sites:
                    if site.kind != "constant":
                        continue
                    key = (
                        member_qname,
                        site.node.lineno,
                        site.node.col_offset,
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    findings.append(
                        graph.finding(
                            member,
                            site.node,
                            SEED103,
                            "constant-seeded default_rng in the worker "
                            f"closure of {dispatch.caller}: every pool "
                            "worker repeats the same stream -- consume a "
                            "pre-drawn seed from the task item",
                        )
                    )
    return findings
