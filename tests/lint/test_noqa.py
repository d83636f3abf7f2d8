"""``# repro: noqa`` parsing and line-scoped suppression."""

import shutil
from pathlib import Path

from repro.lint import check_source, run_checks
from repro.lint.noqa import ALL_RULES_SENTINEL, is_suppressed, parse_noqa

PACKAGES = Path(__file__).parent / "project" / "fixtures"


class TestParseNoqa:
    def test_specific_rule(self):
        supp = parse_noqa("x = 1  # repro: noqa[RNG001]\n")
        assert supp == {1: frozenset({"RNG001"})}

    def test_multiple_rules_whitespace_and_case(self):
        supp = parse_noqa("x = 1  # repro: noqa[rng001, PY001 ]\n")
        assert supp == {1: frozenset({"RNG001", "PY001"})}

    def test_blanket(self):
        supp = parse_noqa("x = 1  # repro: noqa\n")
        assert supp == {1: ALL_RULES_SENTINEL}

    def test_empty_brackets_are_blanket(self):
        supp = parse_noqa("x = 1  # repro: noqa[]\n")
        assert supp[1] == ALL_RULES_SENTINEL

    def test_line_numbers(self):
        source = "a = 1\nb = 2  # repro: noqa[PY001]\nc = 3\n"
        assert list(parse_noqa(source)) == [2]

    def test_string_literal_does_not_suppress(self):
        # The phrase inside a string is data, not a comment.
        source = 'msg = "# repro: noqa[RNG001]"\n'
        assert parse_noqa(source) == {}

    def test_plain_comment_does_not_suppress(self):
        assert parse_noqa("x = 1  # totally normal comment\n") == {}

    def test_unreadable_source_yields_nothing(self):
        assert parse_noqa("def broken(:\n") == {}

    def test_phrase_only_inside_a_string_yields_nothing(self):
        # Passes the literal pre-check, then tokenising finds no comment.
        source = 'msg = "repro: noqa[RNG001]"  # a comment, not a waiver\n'
        assert parse_noqa(source) == {}

    def test_source_without_comments_yields_nothing(self):
        assert parse_noqa("import numpy as np\nx = np.zeros(3)\n") == {}


class TestIsSuppressed:
    def test_matching_rule_and_line(self):
        supp = {3: frozenset({"RNG001"})}
        assert is_suppressed(supp, 3, "RNG001")
        assert is_suppressed(supp, 3, "rng001")

    def test_wrong_line_or_rule(self):
        supp = {3: frozenset({"RNG001"})}
        assert not is_suppressed(supp, 4, "RNG001")
        assert not is_suppressed(supp, 3, "PY001")

    def test_blanket_suppresses_everything(self):
        supp = {7: ALL_RULES_SENTINEL}
        assert is_suppressed(supp, 7, "RNG001")
        assert is_suppressed(supp, 7, "DET001")


class TestEndToEndSuppression:
    def test_suppressed_finding_is_filtered(self):
        source = (
            "import numpy as np\n"
            "\n"
            "def f():\n"
            "    return np.random.default_rng()  # repro: noqa[RNG001]\n"
        )
        assert check_source("<test>", source) == []

    def test_unsuppressed_sibling_still_fires(self):
        source = (
            "import numpy as np\n"
            "\n"
            "def f():\n"
            "    a = np.random.default_rng()  # repro: noqa[RNG001]\n"
            "    b = np.random.default_rng()\n"
            "    return a, b\n"
        )
        findings = check_source("<test>", source)
        assert [(f.rule, f.line) for f in findings] == [("RNG001", 5)]

    def test_noqa_waives_a_project_finding(self, tmp_path):
        package = tmp_path / "workerseed"
        shutil.copytree(PACKAGES / "workerseed", package)
        stats = package / "stats.py"
        original = stats.read_text(encoding="utf-8").splitlines(keepends=True)
        (finding,) = run_checks([str(package)])
        assert (finding.rule, finding.path) == ("SEED103", str(stats))

        def waive(rules):
            lines = list(original)
            lines[finding.line - 1] = lines[finding.line - 1].replace(
                "# expect[SEED103]", f"# repro: noqa[{rules}]"
            )
            stats.write_text("".join(lines), encoding="utf-8")

        waive("MUT101")
        assert [f.rule for f in run_checks([str(package)])] == ["SEED103"]
        waive("SEED103")
        assert run_checks([str(package)]) == []

    def test_syntax_error_cannot_be_suppressed(self):
        source = "def broken(:  # repro: noqa\n"
        findings = check_source("<test>", source)
        assert [f.rule for f in findings] == ["SYN001"]


class TestStatementSpanSuppression:
    """A noqa anywhere in a statement covers the whole statement span."""

    def test_noqa_on_closing_line_of_multiline_call(self):
        # The finding anchors at the call's first line; the comment
        # sits on the closing parenthesis two lines down.
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # repro: noqa[RNG001]  -- intentional entropy\n"
        )
        assert check_source("mod.py", source) == []

    def test_noqa_on_first_line_covers_later_lines(self):
        source = (
            "import numpy as np\n"
            "values = [\n"
            "    np.random.rand(),  # repro: noqa[RNG001]\n"
            "    np.random.rand(),\n"
            "]\n"
        )
        assert check_source("mod.py", source) == []

    def test_noqa_on_decorator_covers_the_def_header(self):
        source = (
            "@staticmethod  # repro: noqa[PY001]\n"
            "def f(cache={}):\n"
            "    return cache\n"
        )
        assert check_source("mod.py", source) == []

    def test_header_noqa_does_not_blanket_the_body(self):
        # A noqa on the def line must not suppress findings inside the
        # function body -- only the header span is covered.
        source = (
            "def f():  # repro: noqa[PY001]\n"
            "    return 1.0 == 0.5\n"
        )
        findings = check_source("mod.py", source)
        assert [f.rule for f in findings] == ["PY001"]
        assert findings[0].line == 2

    def test_wrong_rule_in_span_still_fires(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # repro: noqa[PY001]\n"
        )
        findings = check_source("mod.py", source)
        assert [f.rule for f in findings] == ["RNG001"]

    def test_unparsable_source_keeps_line_scope(self):
        from repro.lint.noqa import expand_suppressions

        supp = {3: frozenset({"RNG001"})}
        assert expand_suppressions(None, supp) == supp
