"""Per-statement ``# repro: noqa[RULE]`` suppression parsing.

Suppression is comment-based and statement-scoped, mirroring flake8's
``# noqa`` but namespaced so generic linters never eat (or emit) it:

* ``# repro: noqa`` suppresses every rule on its statement;
* ``# repro: noqa[RNG001]`` suppresses one rule;
* ``# repro: noqa[RNG001,PY001]`` suppresses several.

Comments are recovered with :mod:`tokenize` rather than regex-over-text
so string literals containing the magic phrase never suppress anything.

A comment anywhere inside a multi-line statement covers the statement's
**full physical span** (``lineno`` through ``end_lineno``), so a noqa on
the closing parenthesis of a call, on a decorator, or on a continuation
line suppresses findings anchored to any line of that statement.  For
compound statements (``def``/``class``/``if``/``for``/``with``/...)
only the *header* -- decorators plus the signature or condition, up to
the first body statement -- counts as the span: a noqa on a ``def`` line
never blankets the whole function body.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

#: Sentinel rule set meaning "suppress everything on this line".
ALL_RULES_SENTINEL: FrozenSet[str] = frozenset(["*"])

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]*)\])?",
)


def parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Map line number -> rule IDs suppressed on that line.

    A blanket ``# repro: noqa`` maps to :data:`ALL_RULES_SENTINEL`.
    Unreadable files (tokenisation errors) yield no suppressions; the
    parse error will surface as a finding instead.
    """
    suppressed: Dict[int, FrozenSet[str]] = {}
    if "repro:" not in source:
        return suppressed  # _NOQA_RE needs the literal; skip tokenising
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return suppressed
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match is None:
            continue
        rules = match.group("rules")
        line = token.start[0]
        if rules is None:
            suppressed[line] = ALL_RULES_SENTINEL
            continue
        ids = frozenset(
            part.strip().upper() for part in rules.split(",") if part.strip()
        )
        # ``# repro: noqa[]`` names no rules; treat it as a blanket
        # suppression rather than silently suppressing nothing.
        suppressed[line] = ids or ALL_RULES_SENTINEL
    return suppressed


def _statement_spans(statements: Sequence[ast.stmt]) -> List[Tuple[int, int]]:
    """``(start, end)`` line spans of ``statements``, headers only.

    Simple statements span ``lineno..end_lineno``.  Compound statements
    (anything carrying a ``body`` block) contribute their *header* span:
    from the first decorator line to the line before the first body
    statement, so the body's own statements -- which appear separately
    -- are never blanketed by a comment on the header.
    """
    spans: List[Tuple[int, int]] = []
    for node in statements:
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, decorators[0].lineno)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", None) or start
        spans.append((start, end))
    return spans


def _enclosing_span(
    spans: List[Tuple[int, int]], line: int
) -> Optional[Tuple[int, int]]:
    """The smallest statement span containing ``line``, if any."""
    best: Optional[Tuple[int, int]] = None
    for start, end in spans:
        if not (start <= line <= end):
            continue
        if best is None or (end - start) < (best[1] - best[0]):
            best = (start, end)
    return best


def expand_suppressions(
    statements: Optional[Sequence[ast.stmt]],
    suppressions: Dict[int, FrozenSet[str]],
) -> Dict[int, FrozenSet[str]]:
    """Extend each suppression to its statement's full physical span.

    A ``# repro: noqa[...]`` on any line of a multi-line statement (a
    call spanning several lines, a decorator, a parenthesised
    continuation) suppresses the named rules on **every** line of that
    statement, so findings anchored to the statement's first line are
    caught by a comment on its last.  Lines outside any statement keep
    their line-scoped suppression.  ``statements`` is every statement
    of the module, in walk order; with none (unparsable file) the raw
    map is returned unchanged.
    """
    if statements is None or not suppressions:
        return suppressions
    spans = _statement_spans(statements)
    expanded: Dict[int, FrozenSet[str]] = {}

    def _merge(line: int, rules: FrozenSet[str]) -> None:
        present = expanded.get(line)
        if present is None:
            expanded[line] = rules
        elif present is ALL_RULES_SENTINEL or rules is ALL_RULES_SENTINEL:
            expanded[line] = ALL_RULES_SENTINEL
        else:
            expanded[line] = present | rules

    for line, rules in suppressions.items():
        span = _enclosing_span(spans, line)
        covered: Iterator[int] = (
            iter((line,)) if span is None else iter(range(span[0], span[1] + 1))
        )
        for target in covered:
            _merge(target, rules)
    return expanded


def is_suppressed(
    suppressions: Dict[int, FrozenSet[str]], line: int, rule: str
) -> bool:
    """Whether ``rule`` is suppressed on ``line``."""
    rules = suppressions.get(line)
    if rules is None:
        return False
    return rules is ALL_RULES_SENTINEL or "*" in rules or rule.upper() in rules
