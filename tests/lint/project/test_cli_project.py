"""Project rules through ``repro-sdn check``: exit codes and output."""

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[3]
FIXTURES = Path(__file__).parent / "fixtures"


class TestExitCodes:
    def test_findings_exit_one(self, capsys):
        code = main(["check", str(FIXTURES / "escape")])
        assert code == 1
        out = capsys.readouterr().out
        assert "MUT101" in out and "MUT102" in out
        assert "3 finding(s)" in out

    def test_clean_package_exits_zero(self, capsys, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "mod.py").write_text("X = 1\n", encoding="utf-8")
        code = main(["check", str(package)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_src_default_runs_clean(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["check"])
        assert code == 0
        assert "clean: no findings in src" in capsys.readouterr().out


class TestProjectFindings:
    def test_json_format_includes_symbols(self, capsys):
        code = main(["check", "--format", "json", str(FIXTURES / "coupling")])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {item["rule"] for item in payload} == {"SEED102"}
        for item in payload:
            assert item["symbol"].startswith("coupling.")

    def test_select_narrows_project_rules(self, capsys):
        code = main(["check", "--select", "MUT102", str(FIXTURES / "escape")])
        assert code == 1
        out = capsys.readouterr().out
        assert "MUT102" in out and "MUT101" not in out


class TestSelection:
    def test_trailing_comma_is_accepted(self, capsys):
        code = main(
            ["check", "--select", "SEED102,", "--format",
             "json", str(FIXTURES / "coupling")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert {item["rule"] for item in payload} == {"SEED102"}


def test_list_rules_includes_project_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert listed == [
        "RNG001", "MUT001", "STO001", "DET001", "PY001", "OBS001",
        "SEED101", "SEED102", "SEED103", "MUT101", "MUT102", "PAR101",
    ]
