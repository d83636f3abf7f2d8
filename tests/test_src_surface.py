"""``src/repro`` holds only what a program runs.

Every public function, class and method defined under ``src/repro``
(outside the ``lint`` package, whose rule classes are reached through
registries) must be named by a program: ``src/`` itself, ``examples/``,
``benchmarks/``, ``perfbench/`` or the ``Makefile``.  A name that only
``tests/`` reaches is deleted together with the tests that exercise it;
the few that other tests use as a reference implementation or a helper
are listed in :data:`KEPT_FOR_TESTS`, each with its reason.

The scan is by bare identifier.  A reference is an AST ``Name`` or
``Attribute``, or one part of a dotted string constant (perfbench names
its entry points as ``"Class.method"`` strings); a method or property
counts as used only through an ``Attribute``, a dotted-string part or a
``.name`` in the ``Makefile``, never through a bare ``Name``.
Docstrings, ``__all__`` lists and ``import`` lines are not references,
so a package re-export keeps nothing alive.  Two unrelated things
sharing a name count as one, so the check can miss a test-only name but
never flags a used one.

The same holds for options: every defaulted parameter of a public
function, method or class ``__init__``, and every defaulted field of a
public dataclass, must be set by some program call.  An option only
tests set is a constant, or is deleted with the code path it selects;
the few kept are listed in :data:`KEPT_PARAMS`, each with its reason.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
ATTRIBUTE = re.compile(r"\.([A-Za-z_]\w*)")

#: Names no program uses that stay in ``src/``: ``module:qualname`` -> why.
KEPT_FOR_TESTS: Dict[str, str] = {
    "repro.analysis.statecount:basic_state_count": (
        "the Section IV-A2 count by subset enumeration; the reference "
        "basic_state_count_uniform is checked against"
    ),
    "repro.core.chain:stationary_distribution": (
        "power-iteration reference for the golden-kernel and chain tests"
    ),
    "repro.core.masks:enumerate_subsets": (
        "full subset enumeration behind the per-state oracle "
        "(tests/oracles/fullstate.py)"
    ),
    "repro.core.compact_model:CompactModel.state_rules": (
        "decodes a state; the reference for the membership-matrix tests"
    ),
    "repro.core.compact_model:CompactModel.rule_presence_marginals": (
        "per-rule cache marginals the model-agreement, basic-oracle and "
        "integration tests compare"
    ),
    "repro.simulator.flowtable:FlowTable.rule_names": (
        "cache contents the flow-table oracle tests compare"
    ),
    "repro.simulator.flowtable:FlowTable.next_expiry": (
        "expiry schedule the flow-table oracle tests compare"
    ),
    "repro.simulator.events:EventHandle.cancel": (
        "the network-fork tests cancel pending events mid-window"
    ),
    "repro.simulator.timing:LatencyModel.noiseless": (
        "deterministic latencies for the simulator and trial tests"
    ),
    "repro.simulator.topology:linear_topology": (
        "the small switch chains the simulator tests build networks on"
    ),
    "repro.experiments.persist:compare_headlines": (
        "reads v1 and v2 headline files; the persistence tests pin both"
    ),
    "repro.simulator.events:Simulator.run_all": (
        "drains the queue: the event tests' helper"
    ),
    "repro.flows.rules:Match.prefix": (
        "CIDR prefixes the rule-matching tests build rules from"
    ),
}

#: Defaulted parameters and fields no program call sets that stay:
#: ``module:qualname(param)`` -> why.
KEPT_PARAMS: Dict[str, str] = {
    "repro.cli:main(argv)": (
        "the console entry point reads sys.argv; the CLI tests pass argv"
    ),
    "repro.core.cnative:kernel_path(argv)": (
        "the kernel cache key over the compiler arguments; the cache "
        "tests build with other flags"
    ),
    "repro.flows.rules:Rule(hard_timeout)": (
        "OpenFlow hard timeouts: the golden suites pin them and the "
        "flow-table oracle checks (ROADMAP item 5)"
    ),
    "repro.flows.rules:Rule(sport)": (
        "OpenFlow 5-tuple matching the golden and rule suites pin"
    ),
    "repro.flows.rules:Rule(dport)": (
        "OpenFlow 5-tuple matching the golden and rule suites pin"
    ),
    "repro.simulator.events:Simulator.run_until(max_events)": (
        "a safety bound on runaway event storms"
    ),
    "repro.simulator.network:Network.__init__(topology)": (
        "the test seam linear_topology exists for"
    ),
    "repro.simulator.network:Network.__init__(latency)": (
        "the test seam LatencyModel.noiseless exists for"
    ),
    "repro.simulator.probing:Prober.__init__(retries)": (
        "set as window.prober(world, retries=...) in trials._probe_lineup, "
        "a call the bare-name match cannot resolve"
    ),
    "repro.experiments.harness:BinnedResult(pool_fallbacks)": (
        "set as result_type(bins, results, fallbacks) in run_binned, a "
        "call the bare-name match cannot resolve"
    ),
}


def _public(name: str) -> bool:
    return not name.startswith("_")


@lru_cache(maxsize=None)
def _program_trees() -> Dict[Path, ast.Module]:
    """Every program source file, parsed once."""
    return {
        path: ast.parse(path.read_text(), str(path))
        for directory in PROGRAM_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
    }


@lru_cache(maxsize=None)
def _package_modules() -> Dict[str, ast.Module]:
    """``module name`` -> tree of every module under ``src/repro`` but ``lint/``."""
    modules: Dict[str, ast.Module] = {}
    for path, tree in _program_trees().items():
        if PACKAGE not in path.parents:
            continue
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "lint":
            continue
        module = ".".join(("repro",) + relative.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        modules[module] = tree
    return modules


def _functions(body: List[ast.stmt]) -> List[ast.FunctionDef]:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _public_classes(tree: ast.Module) -> List[ast.ClassDef]:
    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _public(node.name)
    ]


@lru_cache(maxsize=None)
def _definitions() -> Dict[str, int]:
    """``module:qualname`` -> line of each public def outside ``lint/``."""
    found: Dict[str, int] = {}
    for module, tree in _package_modules().items():
        for node in _functions(tree.body):
            if _public(node.name):
                found[f"{module}:{node.name}"] = node.lineno
        for node in _public_classes(tree):
            found[f"{module}:{node.name}"] = node.lineno
            for item in _functions(node.body):
                if _public(item.name):
                    found[f"{module}:{node.name}.{item.name}"] = item.lineno
    return found


@lru_cache(maxsize=None)
def _program_references() -> Tuple[Set[str], Set[str]]:
    """``(names, attributes)``: every identifier a program names, and
    those it names as an attribute (or a dotted-string part)."""
    makefile = (ROOT / "Makefile").read_text()
    names = set(IDENTIFIER.findall(makefile))
    attributes = set(ATTRIBUTE.findall(makefile))
    for tree in _program_trees().values():
        # ``ast.walk`` yields a parent before its children, so the
        # docstrings and ``__all__`` strings are marked before they come up.
        skipped: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant):
                if (
                    isinstance(node.value, str)
                    and id(node) not in skipped
                    and DOTTED.match(node.value)
                ):
                    parts = node.value.split(".")
                    names.update(parts)
                    attributes.update(parts)
            elif isinstance(node, ast.Assign):
                if any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets
                ):
                    skipped.update(id(child) for child in ast.walk(node.value))
            elif isinstance(
                node,
                (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                first = node.body[0] if node.body else None
                if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant
                ):
                    skipped.add(id(first.value))
    return names, attributes


@lru_cache(maxsize=None)
def _unused_by_programs() -> Dict[str, int]:
    """``module:qualname`` -> line of each public def no program names."""
    names, attributes = _program_references()
    unused: Dict[str, int] = {}
    for name, line in _definitions().items():
        qualname = name.partition(":")[2]
        used = attributes if "." in qualname else names
        if qualname.split(".")[-1] not in used:
            unused[name] = line
    return unused


def test_every_public_name_is_used_by_a_program():
    unused = _unused_by_programs()
    stray = sorted(
        f"{name} (line {line})"
        for name, line in unused.items()
        if name not in KEPT_FOR_TESTS
    )
    assert not stray, (
        "public names in src/repro that no program uses; delete them with "
        "their tests, or list them in KEPT_FOR_TESTS with a reason:\n  "
        + "\n  ".join(stray)
    )


def test_kept_names_exist_and_are_still_test_only():
    unused = _unused_by_programs()
    stale = sorted(
        name
        for name in KEPT_FOR_TESTS
        if name not in _definitions() or name not in unused
    )
    assert not stale, (
        "KEPT_FOR_TESTS entries that are gone or now used by a program; "
        f"drop them: {stale}"
    )


# ----------------------------------------------------------------------
# Options: defaulted parameters and dataclass fields
# ----------------------------------------------------------------------
#: One option: the callee's bare name, its positional index (``None``
#: when keyword-only) and its line.
_Option = Tuple[str, Optional[int], int]


def _decorated(node: ast.AST, name: str) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == name:
            return True
    return False


def _parameters(
    function: ast.FunctionDef, bound: bool
) -> List[Tuple[str, Optional[int]]]:
    """``(name, positional index)`` of each defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    if bound and not _decorated(function, "staticmethod"):
        positional = positional[1:]  # self or cls
    first_default = len(positional) - len(args.defaults)
    found: List[Tuple[str, Optional[int]]] = [
        (arg.arg, index)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    found += [
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _dataclass_fields(node: ast.ClassDef) -> List[Tuple[str, int, bool, int]]:
    """``(name, positional index, defaulted, line)`` of each init field."""
    found: List[Tuple[str, int, bool, int]] = []
    for item in node.body:
        if not (
            isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        ) or ast.unparse(item.annotation).startswith("ClassVar"):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(
            value.func, "id", getattr(value.func, "attr", None)
        ) == "field":
            keywords = {k.arg: k.value for k in value.keywords if k.arg}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        else:
            defaulted = value is not None
        found.append((item.target.id, len(found), defaulted, item.lineno))
    return found


@lru_cache(maxsize=None)
def _options() -> Dict[str, _Option]:
    """``module:qualname(param)`` -> option, outside ``KEPT_FOR_TESTS``."""
    found: Dict[str, _Option] = {}
    for module, tree in _package_modules().items():
        for node in _functions(tree.body):
            if _public(node.name) and f"{module}:{node.name}" not in KEPT_FOR_TESTS:
                for param, index in _parameters(node, bound=False):
                    found[f"{module}:{node.name}({param})"] = (
                        node.name, index, node.lineno,
                    )
        for node in _public_classes(tree):
            if _decorated(node, "dataclass"):
                for name, index, defaulted, line in _dataclass_fields(node):
                    if defaulted:
                        found[f"{module}:{node.name}({name})"] = (
                            node.name, index, line,
                        )
            for item in _functions(node.body):
                qualname = f"{node.name}.{item.name}"
                if item.name != "__init__" and not _public(item.name):
                    continue
                if f"{module}:{qualname}" in KEPT_FOR_TESTS:
                    continue
                callee = node.name if item.name == "__init__" else item.name
                for param, index in _parameters(item, bound=True):
                    found[f"{module}:{qualname}({param})"] = (
                        callee, index, item.lineno,
                    )
    return found


def _callees(
    call: ast.Call, cls: Optional[ast.ClassDef], in_classmethod: bool
) -> List[str]:
    """The bare names a call may reach."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and in_classmethod and cls is not None:
            return [cls.name]
        return [func.id]
    if isinstance(func, ast.Attribute):
        target = func.value
        if (
            func.attr == "__init__"
            and isinstance(target, ast.Call)
            and getattr(target.func, "id", None) == "super"
            and cls is not None
        ):
            return [
                getattr(base, "id", getattr(base, "attr", ""))
                for base in cls.bases
            ]
        return [func.attr]
    return []


@lru_cache(maxsize=None)
def _program_calls() -> Dict[str, Tuple[Set[str], int, bool]]:
    """Bare callee name -> (keywords passed, most positional arguments,
    whether some call unpacks ``*`` or ``**``)."""
    calls: Dict[str, Tuple[Set[str], int, bool]] = {}

    def visit(node: ast.AST, cls: Optional[ast.ClassDef], in_cm: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_cls, child_cm = cls, in_cm
            if isinstance(child, ast.ClassDef):
                child_cls, child_cm = child, False
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_cm = _decorated(child, "classmethod")
            elif isinstance(child, ast.Call):
                keywords = {k.arg for k in child.keywords if k.arg}
                positional = sum(
                    1 for arg in child.args if not isinstance(arg, ast.Starred)
                )
                unpacks = any(
                    isinstance(arg, ast.Starred) for arg in child.args
                ) or any(k.arg is None for k in child.keywords)
                for callee in _callees(child, cls, in_cm):
                    seen, most, starred = calls.get(callee, (set(), 0, False))
                    calls[callee] = (
                        seen | keywords, max(most, positional), starred or unpacks,
                    )
            visit(child, child_cls, child_cm)

    for tree in _program_trees().values():
        visit(tree, None, False)
    return calls


@lru_cache(maxsize=None)
def _unset_by_programs() -> Dict[str, int]:
    """``module:qualname(param)`` -> line of each option no program sets."""
    calls = _program_calls()
    unset: Dict[str, int] = {}
    for name, (callee, index, line) in _options().items():
        param = name[name.index("(") + 1 : -1]
        keywords, positional, unpacks = calls.get(callee, (set(), 0, False))
        if unpacks or param in keywords:
            continue
        if index is not None and positional > index:
            continue
        unset[name] = line
    return unset


def test_every_defaulted_parameter_is_set_by_a_program():
    stray = sorted(
        f"{name} (line {line})"
        for name, line in _unset_by_programs().items()
        if name not in KEPT_PARAMS
    )
    assert not stray, (
        "options in src/repro that no program sets; make them constants "
        "or delete them with the code path they select, or list them in "
        "KEPT_PARAMS with a reason:\n  " + "\n  ".join(stray)
    )


def test_kept_params_exist_and_are_still_unset():
    unset = _unset_by_programs()
    stale = sorted(
        name
        for name in KEPT_PARAMS
        if name not in _options() or name not in unset
    )
    assert not stale, (
        "KEPT_PARAMS entries that are gone or now set by a program; "
        f"drop them: {stale}"
    )
