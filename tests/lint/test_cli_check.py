"""``repro-sdn check`` exit codes and output formats."""

import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


class TestExitCodes:
    def test_violations_exit_nonzero(self, capsys):
        code = main(["check", str(FIXTURES)])
        assert code == 1
        out = capsys.readouterr().out
        for rule_id in (
            "RNG001", "MUT001", "STO001", "DET001", "PY001", "OBS001",
        ):
            assert rule_id in out

    def test_missing_path_exits_two(self, capsys):
        code = main(["check", "/no/such/path/anywhere"])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["check", "--select", "NOPE42", str(REPO_ROOT / "src")])
        assert code == 2
        assert "NOPE42" in capsys.readouterr().err

    def test_project_finding_exits_one(self, capsys):
        package = REPO_ROOT / "tests" / "lint" / "project" / "fixtures" / "workerseed"
        code = main(["check", str(package)])
        assert code == 1
        assert "SEED103" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option",
        [["--project"], ["--jobs", "2"], ["--baseline", "x.json"],
         ["--write-baseline"], ["--format", "sarif"]],
    )
    def test_removed_options_are_rejected(self, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", *option, str(FIXTURES)])
        assert exit_info.value.code == 2


class TestOutputFormats:
    def test_text_findings_are_file_line_col(self, capsys):
        main(["check", str(FIXTURES / "rng_violations.py")])
        out = capsys.readouterr().out
        first = out.splitlines()[0]
        path, line, col, rest = first.split(":", 3)
        assert path.endswith("rng_violations.py")
        assert int(line) >= 1 and int(col) >= 0
        assert "RNG001" in rest

    def test_json_format_parses(self, capsys):
        code = main(["check", "--format", "json", str(FIXTURES)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and payload
        sample = payload[0]
        assert {"path", "line", "col", "rule", "message"} <= set(sample)

    def test_select_accepts_a_trailing_comma(self, capsys):
        code = main(
            ["check", "--select", "rng001,", "--format", "json", str(FIXTURES)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert {item["rule"] for item in payload} == {"RNG001"}

    def test_select_filters_output(self, capsys):
        main(["check", "--select", "PY001", "--format", "json", str(FIXTURES)])
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert {item["rule"] for item in payload} == {"PY001"}

    def test_list_rules(self, capsys):
        code = main(["check", "--list-rules"])
        assert code == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RNG001", "MUT001", "STO001", "DET001", "PY001", "OBS001",
        ):
            assert rule_id in out
