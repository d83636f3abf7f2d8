"""File discovery, package roots, rule selection, the one-parse,
one-walk pass, and the clean-tree guarantee."""

import ast
import shutil
from pathlib import Path

import pytest

from repro.lint import ModuleSource, iter_python_files, run_checks
from repro.lint.project import PROJECT_RULES
from repro.lint.rules import ALL_RULES
from repro.lint.runner import package_roots

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
PACKAGES = Path(__file__).parent / "project" / "fixtures"


class TestCleanTree:
    """The shipped tree lints clean -- the CI gate's core promise."""

    def test_benchmarks_and_examples_have_zero_findings(self):
        paths = [
            str(REPO_ROOT / name)
            for name in ("benchmarks", "examples")
            if (REPO_ROOT / name).is_dir()
        ]
        assert paths, "expected benchmarks/ and examples/ to exist"
        assert run_checks(paths) == []

    def test_one_pass_with_all_rules_is_clean(self):
        # The `make check` command: all 12 rules, the project rules over
        # both packages among the paths.
        paths = [str(REPO_ROOT / name) for name in ("src", "benchmarks", "examples")]
        assert package_roots(paths) == [
            REPO_ROOT / "src" / "repro", REPO_ROOT / "benchmarks",
        ]
        assert len(ALL_RULES) + len(PROJECT_RULES) == 12
        assert run_checks(paths) == []


class TestRuleRegistry:
    def test_all_rule_ids_unique_and_stable(self):
        ids = [rule.rule_id for rule in ALL_RULES]
        assert ids == [
            "RNG001", "MUT001", "STO001", "DET001", "PY001", "OBS001",
        ]
        assert len(set(ids)) == len(ids)

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

    def test_select_takes_project_rule_ids(self):
        findings = run_checks([str(PACKAGES / "injector")], select="seed102,")
        assert findings
        assert {f.rule for f in findings} == {"SEED102"}


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

    def test_overlapping_paths_yield_each_file_once(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        paths = [str(tmp_path / "a.py"), str(tmp_path)]
        assert list(iter_python_files(paths)) == [tmp_path / "a.py"]


class TestPackageRoots:
    def test_package_directory_is_its_own_root(self):
        package = PACKAGES / "escape"
        assert package_roots([str(package)]) == [package]

    def test_plain_directory_contributes_the_packages_under_it(self, tmp_path):
        for name in ("b", "a", "loose"):
            (tmp_path / name).mkdir()
        (tmp_path / "a" / "__init__.py").write_text("")
        (tmp_path / "b" / "__init__.py").write_text("")
        (tmp_path / "top.py").write_text("x = 1\n")
        assert package_roots([str(tmp_path)]) == [tmp_path / "a", tmp_path / "b"]

    def test_files_contribute_no_root_and_roots_are_not_repeated(self):
        package = PACKAGES / "escape"
        paths = [str(package / "model.py"), str(package), str(package)]
        assert package_roots(paths) == [package]

    def test_nested_roots_keep_the_outermost(self):
        # tests/lint is a package holding the escape fixture package;
        # checking both roots used to report each finding twice.
        lint_tests = Path(__file__).parent
        escape = PACKAGES / "escape"
        assert package_roots([str(escape), str(lint_tests)]) == [lint_tests]
        findings = run_checks([str(lint_tests), str(escape)], select="MUT102")
        assert [(Path(f.path).name, f.line, f.symbol) for f in findings] == [
            ("holder.py", 12, "lint.project.fixtures.escape.holder.Holder.corrupt")
        ]


class TestOneParse:
    def test_each_file_is_parsed_once(self, tmp_path, monkeypatch):
        package = tmp_path / "workerseed"
        shutil.copytree(PACKAGES / "workerseed", package)
        parsed = []
        original = ModuleSource.from_source.__func__

        def counting(cls, path, source):
            parsed.append(path)
            return original(cls, path, source)

        monkeypatch.setattr(ModuleSource, "from_source", classmethod(counting))
        findings = run_checks([str(package)])
        assert [f.rule for f in findings] == ["SEED103"]
        files = sorted(str(path) for path in package.rglob("*.py"))
        assert len(files) == 4
        assert sorted(parsed) == files


class TestOneWalk:
    def test_each_module_is_walked_once(self, monkeypatch):
        # The node index walks each parsed module once; the per-file
        # rules and the project graph read the index instead of walking.
        package = PACKAGES / "escape"
        roots = []
        walk = ast.walk

        def counting(node):
            roots.append(type(node))
            return walk(node)

        monkeypatch.setattr(ast, "walk", counting)
        findings = run_checks([str(package)])
        assert {f.rule for f in findings} == {"MUT101", "MUT102"}
        modules = list(package.rglob("*.py"))
        assert len(modules) == 5
        assert roots.count(ast.Module) == len(modules)
        assert not [
            root for root in roots
            if issubclass(root, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]


class TestSyntaxErrors:
    def test_unparsable_file_yields_syn001(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        findings = run_checks([str(tmp_path)])
        assert [f.rule for f in findings] == ["SYN001"]
        assert findings[0].line == 1
