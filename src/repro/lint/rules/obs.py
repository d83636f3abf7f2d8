"""OBS001 -- spans must be used as context managers.

:meth:`repro.obs.Tracer.span` returns a context manager; the
measurement only happens between ``__enter__`` and ``__exit__``.  A
bare statement call::

    obs.span("engine.select")          # opened, never finished
    timer = obs.span("model_build")    # never entered at all

either leaks an unfinished span into the trace (breaking NDJSON export,
which requires every record to carry a duration) or silently records
nothing.  The rule flags ``span(...)`` calls used as a bare expression
statement or assigned without entering them; the fix is always
``with obs.span(...):`` / ``with obs.span(...) as s:``.

Calls whose value is consumed some other way (returned, passed along,
used as a ``with`` context expression) are fine: wrapper APIs such as
``Instrumentation.span`` legitimately forward the context manager.
"""

from __future__ import annotations

import ast
from typing import ClassVar, FrozenSet, Iterator

from repro.lint.base import LintRule, ModuleSource, call_endpoint
from repro.lint.findings import Finding

#: Observability endpoints that return context managers.
CONTEXT_ENDPOINTS: FrozenSet[str] = frozenset({"span"})


def _is_obs_context_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and call_endpoint(node.func) in CONTEXT_ENDPOINTS
    )


class ObservabilityContextRule(LintRule):
    """OBS001: span opened without a context manager."""

    rule_id: ClassVar[str] = "OBS001"
    summary: ClassVar[str] = (
        "span() returns a context manager; a bare call or plain "
        "assignment never records -- use 'with'"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in module.nodes(ast.Expr, ast.Assign, ast.AnnAssign):
            if isinstance(node, ast.Expr) and _is_obs_context_call(node.value):
                endpoint = call_endpoint(node.value.func)
                yield self.finding(
                    module,
                    node.value,
                    f"{endpoint}() call discarded -- the context manager "
                    "is never entered, so nothing is recorded; wrap it in "
                    f"'with ...{endpoint}(...):'",
                )
            elif (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and node.value is not None
                and _is_obs_context_call(node.value)
            ):
                endpoint = call_endpoint(node.value.func)
                yield self.finding(
                    module,
                    node.value,
                    f"{endpoint}() assigned but not entered; use "
                    f"'with ...{endpoint}(...) as name:' so the "
                    "measurement actually starts and finishes",
                )
