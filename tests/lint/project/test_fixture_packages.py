"""Each project rule fires on exactly the marked fixture lines.

Fixtures under ``fixtures/`` are *packages* -- most rules here are
cross-module properties, so a single-file fixture could not exercise
them.  ``expect[RULE]`` markers pin the exact ``(rule, file, line)`` of
every finding, project and per-file alike: the one pass must report all
of them and nothing else.
"""

import re
from pathlib import Path

import pytest

from repro.lint import run_checks
from repro.lint.project import PROJECT_RULES

FIXTURES = Path(__file__).parent / "fixtures"
PROJECT_RULE_IDS = {rule.rule_id for rule in PROJECT_RULES}

_EXPECT_RE = re.compile(r"expect\[((?:[A-Z]+\d+)(?:\s*,\s*[A-Z]+\d+)*)\]")


def expected_triples(package):
    """``(rule, relative file, line)`` triples from expect markers."""
    triples = []
    for path in sorted(package.rglob("*.py")):
        relative = str(path.relative_to(package))
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _EXPECT_RE.search(line)
            if match is None:
                continue
            for rule_id in match.group(1).split(","):
                triples.append((rule_id.strip(), relative, lineno))
    return sorted(triples)


def actual_triples(package):
    findings = run_checks([str(package)])
    return sorted(
        (
            finding.rule,
            str(Path(finding.path).relative_to(package)),
            finding.line,
        )
        for finding in findings
    )


FIXTURE_PACKAGES = [
    ("seedflow", {"SEED101"}, 2),
    ("coupling", {"SEED102"}, 5),
    ("workerseed", {"SEED103"}, 1),
    ("escape", {"MUT101", "MUT102"}, 3),
    ("capture", {"PAR101"}, 3),
    ("forkcapture", {"PAR101"}, 2),
    ("injector", {"SEED102", "RNG001"}, 5),
    ("defense", {"SEED102", "RNG001"}, 6),
    ("service", {"SEED102"}, 3),
    ("poolworker", {"PAR101"}, 8),
    ("localseed", {"SEED103"}, 1),
]


@pytest.mark.parametrize("name,rules,count", FIXTURE_PACKAGES)
def test_fixture_package_matches_markers(name, rules, count):
    package = FIXTURES / name
    expected = expected_triples(package)
    assert len(expected) == count, f"{name}: marker count drifted"
    assert {rule for rule, _, _ in expected} == rules
    assert actual_triples(package) == expected


@pytest.mark.parametrize("name,rules,count", FIXTURE_PACKAGES)
def test_fixture_findings_carry_symbols(name, rules, count):
    findings = [
        f for f in run_checks([str(FIXTURES / name)]) if f.rule in PROJECT_RULE_IDS
    ]
    assert findings
    for finding in findings:
        assert finding.symbol.startswith(f"{name}."), finding
        assert finding.rule in rules


def test_select_restricts_project_rules():
    package = FIXTURES / "escape"
    only_stash = run_checks([str(package)], select=["MUT102"])
    assert {f.rule for f in only_stash} == {"MUT102"}
    assert len(only_stash) == 1


def test_unknown_select_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        run_checks([str(FIXTURES / "escape")], select=["NOPE999"])
