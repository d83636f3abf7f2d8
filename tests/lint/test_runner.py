"""File discovery, rule selection, and the clean-tree guarantee."""

from pathlib import Path

import pytest

from repro.lint import iter_python_files, rule_by_id, run_checks
from repro.lint.rules import ALL_RULES

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"


class TestCleanTree:
    """The shipped tree lints clean -- the CI gate's core promise."""

    def test_src_has_zero_findings(self):
        assert run_checks([str(REPO_ROOT / "src")]) == []

    def test_benchmarks_and_examples_have_zero_findings(self):
        paths = [
            str(REPO_ROOT / name)
            for name in ("benchmarks", "examples")
            if (REPO_ROOT / name).is_dir()
        ]
        assert paths, "expected benchmarks/ and examples/ to exist"
        assert run_checks(paths) == []


class TestRuleRegistry:
    def test_all_rule_ids_unique_and_stable(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert ids == [
            "RNG001", "MUT001", "STO001", "DET001", "PY001", "OBS001",
        ]
        assert len(set(ids)) == len(ids)

    def test_rule_by_id(self):
        assert rule_by_id("RNG001").rule_id == "RNG001"
        assert rule_by_id("det001").rule_id == "DET001"
        assert rule_by_id("NOPE42") is None

    def test_every_rule_has_summary(self):
        for rule in ALL_RULES:
            assert rule.summary


class TestSelection:
    def test_select_restricts_rules(self):
        findings = run_checks([str(FIXTURES)], select=["RNG001"])
        assert findings
        assert {f.rule for f in findings} == {"RNG001"}

    def test_unknown_rule_raises(self):
        with pytest.raises(ValueError, match="NOPE42"):
            run_checks([str(FIXTURES)], select=["NOPE42"])


class TestDiscovery:
    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files(["/no/such/path/anywhere"]))

    def test_walk_is_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "readme.txt").write_text("not python\n")
        names = [p.name for p in iter_python_files([str(tmp_path)])]
        assert names == ["a.py", "b.py"]

    def test_plain_file_is_checked_directly(self, tmp_path):
        target = tmp_path / "one.py"
        target.write_text("x = 1\n")
        assert list(iter_python_files([str(target)])) == [target]


class TestSyntaxErrors:
    def test_unparsable_file_yields_syn001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = run_checks([str(tmp_path)])
        assert [f.rule for f in findings] == ["SYN001"]
        assert findings[0].line == 1


class TestParallelFilePass:
    """The fork-pool file pass is invisible in the output."""

    def test_forced_pool_matches_serial(self):
        paths = [str(FIXTURES)]
        serial = run_checks(paths, jobs=1)
        assert serial, "fixtures must produce findings"
        for jobs in (2, 4):
            assert run_checks(paths, jobs=jobs) == serial

    def test_auto_jobs_matches_serial_on_src(self):
        paths = [str(REPO_ROOT / "src")]
        assert run_checks(paths, jobs=None) == run_checks(paths, jobs=1)

    def test_resolve_jobs_small_file_sets_stay_serial(self):
        from repro.lint.runner import MIN_FILES_FOR_POOL, resolve_jobs

        assert resolve_jobs(8, MIN_FILES_FOR_POOL - 1) == 1
        assert resolve_jobs(8, 1000) == 8
        assert resolve_jobs(1, 1000) == 1
        assert resolve_jobs(None, 1000) >= 1

    def test_select_threads_through_the_pool(self):
        paths = [str(FIXTURES / "rng_violations.py"), str(FIXTURES)]
        serial = run_checks(paths, select=["RNG001"], jobs=1)
        pooled = run_checks(paths, select=["RNG001"], jobs=2)
        assert pooled == serial
        assert all(f.rule == "RNG001" for f in pooled)
