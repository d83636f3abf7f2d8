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
its entry points as ``"Class.method"`` strings).  Docstrings, ``__all__``
lists and ``import`` lines are not references, so a package re-export
keeps nothing alive.  Two unrelated things sharing a name count as one,
so the check can miss a test-only name but never flags a used one.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, Set

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
PROGRAM_DIRS = ("src", "examples", "benchmarks", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")

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
def _definitions() -> Dict[str, int]:
    """``module:qualname`` -> line of each public def outside ``lint/``."""
    found: Dict[str, int] = {}
    for path, tree in _program_trees().items():
        if PACKAGE not in path.parents:
            continue
        relative = path.relative_to(PACKAGE)
        if relative.parts[0] == "lint":
            continue
        module = ".".join(("repro",) + relative.with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) or not _public(node.name):
                continue
            found[f"{module}:{node.name}"] = node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and _public(item.name):
                        found[f"{module}:{node.name}.{item.name}"] = item.lineno
    return found


def _program_references() -> Set[str]:
    """Every identifier a program names."""
    names = set(IDENTIFIER.findall((ROOT / "Makefile").read_text()))
    for tree in _program_trees().values():
        # ``ast.walk`` yields a parent before its children, so the
        # docstrings and ``__all__`` strings are marked before they come up.
        skipped: Set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant):
                if (
                    isinstance(node.value, str)
                    and id(node) not in skipped
                    and DOTTED.match(node.value)
                ):
                    names.update(node.value.split("."))
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
    return names


@lru_cache(maxsize=None)
def _unused_by_programs() -> Dict[str, int]:
    """``module:qualname`` -> line of each public def no program names."""
    references = _program_references()
    return {
        name: line
        for name, line in _definitions().items()
        if name.partition(":")[2].split(".")[-1] not in references
    }


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
