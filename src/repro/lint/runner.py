"""File discovery, rule orchestration, noqa filtering, and fan-out.

``run_checks`` is the per-file pass: every rule over every file.  The
file pass is embarrassingly parallel -- each file is parsed and checked
independently -- so with ``jobs`` unset it fans out over a
:class:`~repro.parallel.ForkPool` sized to the machine (capped; see
:data:`MAX_AUTO_JOBS`), which falls back to the serial loop on any pool
failure (counted in ``lint.pool.fallbacks``).  Findings are sorted after the
merge, so the output is **byte-identical for every job count** -- the
same determinism contract the experiment fan-out keeps
(EXPERIMENTS.md), pinned by ``tests/lint/test_runner.py`` and the
``benchmarks/test_bench_lint.py`` guard.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Set

from repro.lint.base import LintRule, ModuleSource
from repro.lint.findings import Finding
from repro.lint.noqa import is_suppressed
from repro.lint.rules import ALL_RULES
from repro.parallel import ForkPool

#: Directory names never descended into.
SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache"})

#: Pseudo-rule for unparsable files (cannot be noqa'd away).
SYNTAX_RULE = "SYN001"

#: Auto-sized pools never exceed this many workers: lint is I/O-light
#: and per-file work is small, so wide pools just pay fork cost.
MAX_AUTO_JOBS = 8

#: Fewer files than this and the fork pool cannot pay for itself.
MIN_FILES_FOR_POOL = 16


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, depth-first, sorted.

    Plain files are yielded as given; directories are walked
    recursively.  Missing paths raise ``FileNotFoundError`` so typos
    fail loudly instead of silently checking nothing.
    """
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
            continue
        if not path.is_dir():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in SKIPPED_DIRS)
            for name in sorted(files):
                if name.endswith(".py"):
                    yield Path(root) / name


def select_rule_ids(
    select: Optional[Iterable[str]], *, project: bool = False
) -> Optional[Set[str]]:
    """The rule IDs ``select`` names for one pass; ``None`` selects all.

    ``select`` is a comma-separated string or an iterable of IDs; IDs
    are case-insensitive and blanks (a trailing comma) are dropped.
    This one parser serves the per-file pass and, with ``project``, the
    whole-program pass.  An ID the pass does not know raises
    ``ValueError``; when it belongs to the other pass, the message
    says so.
    """
    if select is None:
        return None
    if isinstance(select, str):
        select = select.split(",")
    from repro.lint.project.runner import PROJECT_RULES

    file_ids = [rule.rule_id for rule in ALL_RULES]
    project_ids = [rule_id for rule_id, _ in PROJECT_RULES]
    known, other = (project_ids, file_ids) if project else (file_ids, project_ids)
    wanted = {rule_id.strip().upper() for rule_id in select if rule_id.strip()}
    unknown = wanted - set(known)
    if unknown:
        misplaced = ", ".join(sorted(unknown & set(other)))
        hint = ""
        if misplaced:
            other_pass = (
                "the per-file pass, run without --project"
                if project
                else "the --project pass"
            )
            hint = f" -- {misplaced} belong(s) to {other_pass}"
        raise ValueError(
            f"unknown {'project ' if project else ''}rule ID(s): "
            f"{', '.join(sorted(unknown))}{hint} (known: {', '.join(known)})"
        )
    return wanted


def _select_rules(select: Optional[Iterable[str]]) -> List[LintRule]:
    wanted = select_rule_ids(select)
    if wanted is None:
        return list(ALL_RULES)
    return [rule for rule in ALL_RULES if rule.rule_id in wanted]


def check_source(
    path: str,
    source: str,
    select: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Run the (selected) rules over one in-memory module."""
    module = ModuleSource.from_source(path, source)
    if module.tree is None:
        return [
            Finding(
                path=path,
                line=1,
                col=0,
                rule=SYNTAX_RULE,
                message="file does not parse; fix the syntax error first",
            )
        ]
    findings: List[Finding] = []
    for rule in _select_rules(select):
        for finding in rule.check(module):
            if is_suppressed(module.suppressions, finding.line, finding.rule):
                continue
            findings.append(finding)
    return sorted(findings)


def check_file(
    path: Path, select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run the (selected) rules over one file on disk."""
    source = path.read_text(encoding="utf-8")
    return check_source(str(path), source, select=select)


# ----------------------------------------------------------------------
# Parallel file pass
# ----------------------------------------------------------------------
def _lint_file(select: List[str], path: str) -> List[Finding]:
    """Check one file (pure function of the selection and the path)."""
    return check_file(Path(path), select=select)


def resolve_jobs(jobs: Optional[int], n_files: int) -> int:
    """The worker count to actually use for ``n_files`` files.

    ``None`` auto-sizes to the machine (capped at
    :data:`MAX_AUTO_JOBS`), and tiny file sets always run serially --
    the fork cost dwarfs the work.
    """
    if jobs is None:
        jobs = min(os.cpu_count() or 1, MAX_AUTO_JOBS)
    jobs = max(1, int(jobs))
    if n_files < MIN_FILES_FOR_POOL:
        return 1
    return min(jobs, n_files)


def run_checks(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
    jobs: Optional[int] = None,
) -> List[Finding]:
    """Check every Python file under ``paths``; findings sorted.

    ``jobs`` controls the file-pass fan-out: ``1`` forces the serial
    loop, ``None`` auto-sizes a fork pool to the machine.  The merged
    finding list is sorted either way, so output order never depends on
    the job count; any pool failure degrades to serial.
    """
    selected = [rule.rule_id for rule in _select_rules(select)]
    files = [str(path) for path in iter_python_files(paths)]
    n_jobs = resolve_jobs(jobs, len(files))
    with ForkPool(n_jobs, selected, name="lint") as pool:
        per_file = pool.map(_lint_file, files)
    findings: List[Finding] = []
    for file_findings in per_file:
        findings.extend(file_findings)
    return sorted(findings)
