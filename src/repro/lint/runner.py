"""File discovery, rule orchestration and noqa filtering.

``run_checks`` is the one lint pass.  It reads, parses and indexes
every Python file under the given paths once
(:class:`~repro.lint.base.ModuleSource`), runs the per-file rules on
each module,
and runs the project rules over every package root among the paths,
building each :class:`~repro.lint.project.ProjectGraph` from the same
parsed modules.  Every finding, project findings included, is filtered
through its module's ``# repro: noqa[RULE]`` comments -- the only
waiver -- and the list comes back sorted.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.base import LintRule, ModuleSource
from repro.lint.findings import Finding
from repro.lint.noqa import is_suppressed
from repro.lint.project import PROJECT_RULES, ProjectGraph
from repro.lint.rules import ALL_RULES

#: Directory names never descended into.
SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache"})

#: Pseudo-rule for unparsable files (cannot be noqa'd away).
SYNTAX_RULE = "SYN001"


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, depth-first, sorted, each once.

    Plain files are yielded as given; directories are walked
    recursively.  Missing paths raise ``FileNotFoundError`` so typos
    fail loudly instead of silently checking nothing.
    """
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            found: Iterable[Path] = [path]
        elif path.is_dir():
            found = _walk(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for file in found:
            if file not in seen:
                seen.add(file)
                yield file


def _walk(directory: Path) -> Iterator[Path]:
    for root, dirs, files in os.walk(directory):
        dirs[:] = sorted(d for d in dirs if d not in SKIPPED_DIRS)
        for name in sorted(files):
            if name.endswith(".py"):
                yield Path(root) / name


def package_roots(paths: Sequence[str]) -> List[Path]:
    """The package directories the project rules run over.

    A given directory with an ``__init__.py`` is a package root; a
    given directory without one contributes each package directly
    under it (so ``src`` resolves to ``src/repro``).  Plain files
    contribute none.  A root inside another root is dropped: the outer
    one already covers its modules, and checking both would report each
    finding there twice, under two module names.
    """
    roots: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.is_dir():
            continue
        if (path / "__init__.py").is_file():
            candidates = [path]
        else:
            candidates = sorted(
                child for child in path.iterdir()
                if child.is_dir() and (child / "__init__.py").is_file()
            )
        roots.extend(root for root in candidates if root not in roots)
    resolved = [root.resolve() for root in roots]
    return [
        root
        for root, full in zip(roots, resolved)
        if not any(other in full.parents for other in resolved)
    ]


def select_rule_ids(select: Optional[Iterable[str]]) -> Optional[Set[str]]:
    """The rule IDs ``select`` names; ``None`` selects all.

    ``select`` is a comma-separated string or an iterable of IDs, any
    of the per-file and project rules; IDs are case-insensitive and
    blanks (a trailing comma) are dropped.  An unknown ID raises
    ``ValueError``.
    """
    if select is None:
        return None
    if isinstance(select, str):
        select = select.split(",")
    known = [rule.rule_id for rule in ALL_RULES] + [
        rule.rule_id for rule in PROJECT_RULES
    ]
    wanted = {rule_id.strip().upper() for rule_id in select if rule_id.strip()}
    unknown = wanted - set(known)
    if unknown:
        raise ValueError(
            f"unknown rule ID(s): {', '.join(sorted(unknown))} "
            f"(known: {', '.join(known)})"
        )
    return wanted


def _file_findings(module: ModuleSource, rules: List[LintRule]) -> List[Finding]:
    """The per-file ``rules`` over one module, unfiltered."""
    if module.tree is None:
        return [
            Finding(
                path=module.path,
                line=1,
                col=0,
                rule=SYNTAX_RULE,
                message="file does not parse; fix the syntax error first",
            )
        ]
    return [finding for rule in rules for finding in rule.check(module)]


def _waived(module: ModuleSource, finding: Finding) -> bool:
    """Whether a ``# repro: noqa`` comment in ``module`` covers ``finding``."""
    return finding.rule != SYNTAX_RULE and is_suppressed(
        module.suppressions, finding.line, finding.rule
    )


def check_source(
    path: str,
    source: str,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the (selected) per-file rules over one in-memory module."""
    wanted = select_rule_ids(select)
    rules = [r for r in ALL_RULES if wanted is None or r.rule_id in wanted]
    module = ModuleSource.from_source(path, source)
    return sorted(
        f for f in _file_findings(module, rules) if not _waived(module, f)
    )


def run_checks(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Every (selected) rule over every Python file under ``paths``.

    Each file is parsed once.  The per-file rules run on every module;
    the project rules run over each of :func:`package_roots`, from the
    modules under that root.  Findings a ``# repro: noqa[RULE]`` covers
    are dropped; the rest come back sorted.
    """
    wanted = select_rule_ids(select)
    file_rules = [r for r in ALL_RULES if wanted is None or r.rule_id in wanted]
    project_rules = [
        r for r in PROJECT_RULES if wanted is None or r.rule_id in wanted
    ]
    modules: Dict[str, ModuleSource] = {}
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        module = ModuleSource.from_source(
            str(path), path.read_text(encoding="utf-8")
        )
        modules[module.path] = module
        findings.extend(_file_findings(module, file_rules))
    roots = package_roots(paths) if project_rules else []
    for root in roots:
        graph = ProjectGraph.build(
            root,
            [
                module for module in modules.values()
                if Path(module.path).parts[: len(root.parts)] == root.parts
            ],
        )
        for rule in project_rules:
            findings.extend(rule.check(graph))
    return sorted(f for f in findings if not _waived(modules[f.path], f))
