"""``repro-sdn check --project`` exit codes and baseline workflow."""

import json
import shutil
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[3]
FIXTURES = Path(__file__).parent / "fixtures"


class TestExitCodes:
    def test_findings_exit_one(self, capsys):
        code = main(["check", "--project", str(FIXTURES / "escape")])
        assert code == 1
        out = capsys.readouterr().out
        assert "MUT101" in out and "MUT102" in out
        assert "new finding(s)" in out

    def test_clean_package_exits_zero(self, capsys, monkeypatch, tmp_path):
        # Run from tmp_path so the repo's own lint-baseline.json is not
        # auto-detected for an unrelated fixture package.
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("", encoding="utf-8")
        (package / "mod.py").write_text("X = 1\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code = main(["check", "--project", str(package)])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_multiple_paths_exit_two(self, capsys):
        code = main(
            ["check", "--project", str(FIXTURES / "escape"),
             str(FIXTURES / "capture")]
        )
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_non_package_exits_two(self, capsys, tmp_path):
        (tmp_path / "loose.py").write_text("x = 1\n", encoding="utf-8")
        code = main(["check", "--project", str(tmp_path)])
        assert code == 2
        assert "__init__.py" in capsys.readouterr().err

    def test_src_default_runs_clean_with_repo_baseline(self, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = main(["check", "--project", "src"])
        assert code == 0
        assert "clean" in capsys.readouterr().out


class TestBaselineWorkflow:
    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        package = tmp_path / "workerseed"
        shutil.copytree(FIXTURES / "workerseed", package)
        monkeypatch.chdir(tmp_path)
        return tmp_path, package

    def test_write_baseline_then_fill_then_clean(self, workdir, capsys):
        tmp_path, package = workdir
        assert main(["check", "--project", str(package)]) == 1
        capsys.readouterr()

        code = main(
            ["check", "--project", "--write-baseline", str(package)]
        )
        assert code == 0
        baseline_path = tmp_path / "lint-baseline.json"
        document = json.loads(baseline_path.read_text(encoding="utf-8"))
        assert document["entries"][0]["rule"] == "SEED103"
        capsys.readouterr()

        # The skeleton's empty justification is refused...
        assert main(["check", "--project", str(package)]) == 2
        assert "justification" in capsys.readouterr().err

        # ...and once filled in, the run is clean with one waiver.
        document["entries"][0]["justification"] = "fixture: intentional"
        baseline_path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["check", "--project", str(package)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_stale_entry_fails_the_run(self, workdir, capsys):
        tmp_path, package = workdir
        document = {
            "version": 1,
            "entries": [
                {
                    "rule": "SEED103",
                    "path": "workerseed/stats.py",
                    "symbol": "workerseed.stats.summarize",
                    "justification": "fixture: intentional",
                },
                {
                    "rule": "MUT101",
                    "path": "workerseed/gone.py",
                    "symbol": "workerseed.gone.f",
                    "justification": "matches nothing any more",
                },
            ],
        }
        (tmp_path / "lint-baseline.json").write_text(
            json.dumps(document), encoding="utf-8"
        )
        code = main(["check", "--project", str(package)])
        assert code == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_json_format_includes_symbols(self, capsys):
        code = main(
            ["check", "--project", "--format", "json",
             str(FIXTURES / "coupling")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {item["rule"] for item in payload} == {"SEED102"}
        for item in payload:
            assert item["symbol"].startswith("coupling.")

    def test_select_narrows_project_rules(self, capsys):
        code = main(
            ["check", "--project", "--select", "MUT102",
             str(FIXTURES / "escape")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "MUT102" in out and "MUT101" not in out


class TestSelection:
    def test_trailing_comma_is_accepted(self, capsys):
        code = main(
            ["check", "--project", "--select", "SEED102,", "--format",
             "json", str(FIXTURES / "coupling")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert {item["rule"] for item in payload} == {"SEED102"}

    def test_per_file_rule_id_names_the_per_file_pass(self, capsys):
        code = main(
            ["check", "--project", "--select", "RNG001",
             str(FIXTURES / "coupling")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown project rule ID(s): RNG001" in err
        assert "per-file pass" in err


def test_list_rules_includes_project_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert listed == [
        "RNG001", "MUT001", "STO001", "DET001", "PY001", "OBS001",
        "SEED101", "SEED102", "SEED103", "MUT101", "MUT102", "PAR101",
    ]
