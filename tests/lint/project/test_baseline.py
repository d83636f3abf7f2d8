"""Baseline load/partition semantics and the committed waiver file.

The baseline is the contract that keeps ``check --project`` both
enforceable and honest: matching is by ``(rule, path suffix, symbol)``
so entries survive line drift, empty justifications are rejected at
load, and entries that stop matching are reported stale.  The final
test pins the real tree: ``src/repro`` must stay clean against the
committed ``lint-baseline.json`` with no stale entries.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint.project import Baseline, run_project_checks
from repro.lint.project.baseline import BaselineEntry
from repro.lint.project.findings import ProjectFinding

REPO_ROOT = Path(__file__).resolve().parents[3]


def finding(rule="SEED101", path="pkg/network.py", symbol="pkg.network.make",
            line=7):
    return ProjectFinding(
        path=path, line=line, col=4, rule=rule, message="m", symbol=symbol
    )


class TestMatching:
    def test_matches_by_rule_path_suffix_and_symbol(self):
        entry = BaselineEntry(
            rule="SEED101",
            path="pkg/network.py",
            symbol="pkg.network.make",
            justification="ok",
        )
        assert entry.matches(finding(path="/abs/prefix/pkg/network.py"))
        assert not entry.matches(finding(rule="SEED102"))
        assert not entry.matches(finding(symbol="pkg.network.other"))
        assert not entry.matches(finding(path="/other/network.py"))

    def test_lines_never_participate(self):
        entry = BaselineEntry(
            rule="SEED101",
            path="pkg/network.py",
            symbol="pkg.network.make",
            justification="ok",
        )
        assert entry.matches(finding(line=7))
        assert entry.matches(finding(line=700))

    def test_suffix_must_align_on_path_components(self):
        entry = BaselineEntry(
            rule="SEED101",
            path="network.py",
            symbol="pkg.network.make",
            justification="ok",
        )
        # 'subnetwork.py' ends with the string but not the component.
        assert not entry.matches(finding(path="pkg/subnetwork.py"))


class TestPartition:
    def test_new_waived_and_stale(self):
        baseline = Baseline(
            [
                BaselineEntry(
                    rule="SEED101",
                    path="pkg/network.py",
                    symbol="pkg.network.make",
                    justification="ok",
                ),
                BaselineEntry(
                    rule="MUT101",
                    path="gone.py",
                    symbol="pkg.gone.f",
                    justification="ok",
                ),
            ]
        )
        covered = finding()
        fresh = finding(rule="SEED102", symbol="pkg.network.draw")
        new, waived, stale = baseline.partition([covered, fresh])
        assert new == [fresh]
        assert waived == [covered]
        assert [entry.rule for entry in stale] == ["MUT101"]

    def test_entries_outside_the_analysed_root_are_never_stale(self, tmp_path):
        baseline = Baseline(
            [
                BaselineEntry(
                    rule="SEED103",
                    path="src/repro/experiments/parallel.py",
                    symbol="repro.experiments.parallel.screening_verdicts",
                    justification="ok",
                ),
                BaselineEntry(
                    rule="MUT101",
                    path="pkg/gone.py",
                    symbol="pkg.gone.f",
                    justification="ok",
                ),
            ],
            origin=str(tmp_path),
        )
        new, waived, stale = baseline.partition(
            [finding()], root=str(tmp_path / "pkg")
        )
        assert new == [finding()] and not waived
        assert [entry.path for entry in stale] == ["pkg/gone.py"]

    def test_empty_baseline_leaves_everything_new(self):
        new, waived, stale = Baseline().partition([finding()])
        assert len(new) == 1 and not waived and not stale


class TestLoad:
    def test_round_trips(self, tmp_path):
        baseline = Baseline(
            [BaselineEntry("SEED101", "a.py", "pkg.a.f", "because")]
        )
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps(baseline.to_json()), encoding="utf-8")
        loaded = Baseline.load(str(target))
        assert loaded.entries == baseline.entries

    def test_rejects_empty_justification(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "rule": "SEED101",
                            "path": "a.py",
                            "symbol": "pkg.a.f",
                            "justification": "   ",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="empty justification"):
            Baseline.load(str(target))

    def test_rejects_missing_keys_and_bad_version(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 2}), encoding="utf-8")
        with pytest.raises(ValueError, match="version 1"):
            Baseline.load(str(target))
        target.write_text(
            json.dumps({"version": 1, "entries": [{"rule": "X"}]}),
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match="missing"):
            Baseline.load(str(target))

    def test_skeleton_is_rejected_until_filled_in(self, tmp_path):
        document = Baseline.skeleton([finding()])
        assert document["entries"][0]["justification"] == ""
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ValueError, match="empty justification"):
            Baseline.load(str(target))

    def test_skeleton_deduplicates_symbols(self):
        document = Baseline.skeleton([finding(line=7), finding(line=9)])
        assert len(document["entries"]) == 1


class TestCommittedBaseline:
    """The real tree against the real waiver file."""

    def test_other_packages_ignore_the_committed_baseline(
        self, capsys, monkeypatch
    ):
        # Run from the repo root, so lint-baseline.json is auto-loaded;
        # its src/repro entry must not turn stale for another package.
        monkeypatch.chdir(REPO_ROOT)
        fixture = Path(__file__).parent / "fixtures" / "escape"
        assert main(["check", "--project", str(fixture)]) == 1
        out = capsys.readouterr().out
        assert "stale baseline entry" not in out
        assert "0 stale" in out

    def test_src_repro_is_clean_against_committed_baseline(self):
        baseline = Baseline.load(str(REPO_ROOT / "lint-baseline.json"))
        report = run_project_checks(
            str(REPO_ROOT / "src" / "repro"), baseline=baseline
        )
        assert report.new == [], [f.render() for f in report.new]
        assert report.stale == [], [e.symbol for e in report.stale]
        assert report.ok

    def test_every_committed_entry_has_a_real_justification(self):
        baseline = Baseline.load(str(REPO_ROOT / "lint-baseline.json"))
        for entry in baseline.entries:
            # Strict loading already rejects empty strings; require a
            # sentence, not a placeholder word.
            assert len(entry.justification.split()) >= 5, entry.symbol
