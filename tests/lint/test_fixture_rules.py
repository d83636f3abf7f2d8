"""Each lint rule fires on exactly the marked fixture lines.

Fixtures under ``fixtures/`` carry ``expect[RULE]`` markers on every
line that must produce a finding; these tests assert the checker
reports exactly those ``(rule_id, line)`` pairs -- no more, no fewer --
pinning both detection and line attribution.
"""

import re
from pathlib import Path

import pytest

from repro.lint import run_checks

FIXTURES = Path(__file__).parent / "fixtures"

# Rule IDs are LETTERS+digits (e.g. RNG001); the placeholder
# ``expect[RULE]`` in fixture docstrings must not match.
_EXPECT_RE = re.compile(r"expect\[((?:[A-Z]+\d+)(?:\s*,\s*[A-Z]+\d+)*)\]")


def expected_pairs(path):
    """``(rule_id, line)`` pairs declared by ``expect[...]`` markers."""
    pairs = []
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        match = _EXPECT_RE.search(line)
        if match is None:
            continue
        for rule_id in match.group(1).split(","):
            pairs.append((rule_id.strip(), lineno))
    return sorted(pairs)


def actual_pairs(path):
    return sorted((f.rule, f.line) for f in run_checks([str(path)]))


FIXTURE_CASES = [
    ("rng_violations.py", "RNG001", 5),
    ("mut_violations.py", "MUT001", 6),
    ("sto_violations.py", "STO001", 3),
    ("det_violations.py", "DET001", 5),
    ("py_violations.py", "PY001", 6),
    ("obs_violations.py", "OBS001", 3),
]


@pytest.mark.parametrize("name,rule_id,count", FIXTURE_CASES)
def test_fixture_matches_markers(name, rule_id, count):
    path = FIXTURES / name
    expected = expected_pairs(path)
    assert len(expected) == count, f"{name}: marker count drifted"
    assert all(rule == rule_id for rule, _ in expected)
    assert actual_pairs(path) == expected


def test_noqa_fixture_only_unsuppressed_finding_remains():
    path = FIXTURES / "noqa_suppressed.py"
    assert actual_pairs(path) == expected_pairs(path)
    # Exactly one survivor: the noqa naming the wrong rule.
    assert len(actual_pairs(path)) == 1
    (survivor,) = run_checks([str(path)])
    assert survivor.rule == "PY001"


def test_clean_fixture_has_zero_findings():
    assert run_checks([str(FIXTURES / "clean.py")]) == []


def test_findings_carry_file_and_position():
    path = FIXTURES / "rng_violations.py"
    findings = run_checks([str(path)])
    assert findings, "fixture must produce findings"
    for finding in findings:
        assert finding.path == str(path)
        assert finding.line >= 1
        assert finding.col >= 0
        rendered = finding.render()
        assert rendered.startswith(f"{path}:{finding.line}:")
        assert finding.rule in rendered
        assert finding.message in rendered


def test_findings_are_sorted_by_position():
    findings = run_checks([str(FIXTURES / "py_violations.py")])
    positions = [(f.line, f.col) for f in findings]
    assert positions == sorted(positions)
