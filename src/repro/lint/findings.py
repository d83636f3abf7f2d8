"""The finding record emitted by every lint rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a precise source location.

    The field order doubles as the sort order, so a sorted finding list
    reads top-to-bottom through each file.  ``line`` and ``col`` are
    1-based and 0-based respectively, matching compiler convention.
    Project rules also set ``symbol``, the qualified name of the
    function, method or class the violation lives in.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""

    def render(self) -> str:
        """``path:line:col: RULE message [symbol]`` (the CLI text format)."""
        location = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        return f"{location} [{self.symbol}]" if self.symbol else location

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable form (the CLI ``--format json`` output)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "symbol": self.symbol,
        }
