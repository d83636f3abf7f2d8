"""The metric catalogue of docs/OBSERVABILITY.md, read as data.

Each row of the catalogue table names one or more metrics and their
fan-out class:

* ``outcome`` -- equals the serial run's value under any fan-out
  (trial and screening pools, the service's shards);
* ``work`` -- depends on cache placement, speculative screening or pool
  health, so a pooled run may count more or less of it.

:func:`assert_outcome_counters_match` is the check every fan-out
differential makes.  Run as a module, it compares two ``--metrics``
documents the same way::

    python -m tests.obs.catalogue serial.json pooled.json
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[2]
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"

#: The fan-out classes a catalogue row may carry.
FANOUT_CLASSES = ("outcome", "work")

#: A backticked dotted name, or a ``.suffix`` shorthand for a sibling of
#: the previous full name (``reproduce.fig6`` / ``.fig7``).
_DOC_NAME = re.compile(r"`(\.?[a-z0-9_]+(?:\.[a-z0-9_]+)*)`")


def doc_names(text: str) -> Set[str]:
    """Every dotted name in ``text``, ``.suffix`` shorthands expanded."""
    names = set()
    previous = None
    for token in _DOC_NAME.findall(text):
        if token.startswith("."):
            if previous is None:
                continue
            token = previous.rsplit(".", 1)[0] + token
        elif "." not in token:
            continue
        names.add(token)
        previous = token
    return names


def catalogue_rows(text: Optional[str] = None) -> List[Tuple[Set[str], str]]:
    """``(names, fan-out class)`` per row of the catalogue table."""
    if text is None:
        text = CATALOGUE.read_text()
    section = text.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.split("|")[1:-1]]
            rows.append((doc_names(cells[0]), cells[2]))
    return rows


def fanout_classes(text: Optional[str] = None) -> Dict[str, str]:
    """``{metric name: fan-out class}``; raises on a row without one."""
    classes = {}
    for names, fanout in catalogue_rows(text):
        if fanout not in FANOUT_CLASSES:
            raise ValueError(
                f"catalogue row {sorted(names)} has fan-out class "
                f"{fanout!r}, not one of {FANOUT_CLASSES}"
            )
        for name in names:
            classes[name] = fanout
    return classes


def outcome_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """The non-zero outcome counters of a ``counters`` mapping.

    Zeros are dropped, so a counter one run registered at zero and the
    other never touched compare equal.  A counter with no catalogue row
    fails: every count must have a fan-out class.
    """
    classes = fanout_classes()
    unclassified = sorted(set(counters) - set(classes))
    assert not unclassified, (
        "counters with no catalogue row (docs/OBSERVABILITY.md): "
        + ", ".join(unclassified)
    )
    return {
        name: value
        for name, value in counters.items()
        if value and classes[name] == "outcome"
    }


def assert_outcome_counters_match(
    serial: Mapping[str, int], fanned: Mapping[str, int]
) -> Dict[str, int]:
    """Every outcome counter of ``fanned`` equals ``serial``'s exactly.

    Returns the serial run's non-zero outcome counters, so a caller can
    check that the comparison was not vacuous.
    """
    expected = outcome_counters(serial)
    actual = outcome_counters(fanned)
    differing = {
        name: (expected.get(name, 0), actual.get(name, 0))
        for name in sorted(set(expected) | set(actual))
        if expected.get(name, 0) != actual.get(name, 0)
    }
    assert not differing, (
        "outcome counters differ from the serial run "
        "(name: (serial, fanned)): " + repr(differing)
    )
    return expected


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(
            "usage: python -m tests.obs.catalogue SERIAL.json FANNED.json",
            file=sys.stderr,
        )
        return 2
    serial, fanned = (
        json.loads(Path(path).read_text())["counters"] for path in argv
    )
    compared = assert_outcome_counters_match(serial, fanned)
    print(f"{len(compared)} non-zero outcome counters equal")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
