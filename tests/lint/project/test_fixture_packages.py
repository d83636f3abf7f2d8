"""Each project rule fires on exactly the marked fixture lines.

Fixtures under ``fixtures/`` are multi-module *packages* -- every rule
here is a cross-module property, so a single-file fixture could not
exercise it.  ``expect[RULE]`` markers pin the exact ``(rule, file,
line)`` of every finding: the analyzer must report all of them and
nothing else.
"""

import re
from pathlib import Path

import pytest

from repro.lint.project import run_project_checks

FIXTURES = Path(__file__).parent / "fixtures"

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
    report = run_project_checks(str(package))
    return sorted(
        (
            finding.rule,
            str(Path(finding.path).relative_to(package)),
            finding.line,
        )
        for finding in report.new
    )


FIXTURE_PACKAGES = [
    ("seedflow", {"SEED101"}, 2),
    ("coupling", {"SEED102"}, 2),
    ("workerseed", {"SEED103"}, 1),
    ("escape", {"MUT101", "MUT102"}, 3),
    ("capture", {"PAR101"}, 3),
    ("forkcapture", {"PAR101"}, 2),
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
    report = run_project_checks(str(FIXTURES / name))
    for finding in report.new:
        assert finding.symbol.startswith(f"{name}."), finding
        assert finding.rule in rules


def test_select_restricts_project_rules():
    package = FIXTURES / "escape"
    only_stash = run_project_checks(str(package), select=["MUT102"])
    assert {f.rule for f in only_stash.new} == {"MUT102"}
    assert len(only_stash.new) == 1


def test_unknown_select_raises():
    with pytest.raises(ValueError, match="unknown project rule"):
        run_project_checks(str(FIXTURES / "escape"), select=["NOPE999"])


def test_non_package_root_rejected(tmp_path):
    (tmp_path / "loose.py").write_text("x = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing __init__.py"):
        run_project_checks(str(tmp_path))
