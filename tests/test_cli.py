"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.trace import Tracer, read_ndjson


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in (
            "demo",
            "fig6a",
            "fig6b",
            "fig7a",
            "fig7b",
            "headline",
            "timing",
            "statecount",
            "leakage",
            "select",
            "reproduce",
        ):
            args = parser.parse_args(
                [command] if command in ("demo", "statecount")
                else [command, "--seed", "1"]
            )
            assert callable(args.func)
        for extra in (
            ["check"],
            ["stats", "trace.ndjson"],
            ["robustness", "--seed", "1"],
            ["submit", "recon"],
            ["serve"],
        ):
            assert callable(parser.parse_args(extra).func)

    def test_reproduce_defaults(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.scale == 0.1
        assert args.mode == "table"
        assert args.out is None

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["fig6a"])
        assert args.configs == 12
        assert args.trials == 30
        assert args.mode == "network"

    def test_mode_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig6a", "--mode", "warp"])


class TestExecution:
    def test_statecount_runs(self, capsys):
        assert main(["statecount"]) == 0
        out = capsys.readouterr().out
        assert "State-space sizes" in out
        assert "2509" in out

    def test_timing_runs_small(self, capsys):
        assert main(["timing", "--samples", "25", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "Section VI-A" in out
        assert "threshold" in out

    def test_demo_runs(self, capsys):
        assert main(["demo", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "Flow reconnaissance demo" in out
        assert "accuracy" in out

    def test_leakage_runs(self, capsys):
        assert main(["leakage", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Per-flow leakage map" in out
        assert "microflow split" in out

    def test_select_runs(self, capsys):
        assert main(["select", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Optimal 2-probe set" in out
        assert "Probe-scoring engine statistics" in out
        assert "prefix cache hits" in out

    @pytest.mark.parametrize("argv", [
        ["select", "--rules", "21"],
        ["leakage", "--rules", "21"],
    ], ids=["select", "leakage"])
    def test_more_than_20_rules_exit_two(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip()
        assert err == (
            f"repro-sdn {argv[0]}: n_rules must be at most 20, the compact "
            "model's limit (got 21)"
        )

    def test_leakage_microflow_split_over_20_rules_exits_two(self, capsys):
        # 8 rules over 32 flows split into 24 per-flow rules.
        assert main(["leakage", "--flows", "32", "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "repro-sdn leakage: the compact model supports at most 20 rules "
            "(policy has 24)"
        )

    def test_select_defaults(self):
        args = build_parser().parse_args(["select"])
        assert args.probes == 2
        assert args.method == "exhaustive"
        assert not hasattr(args, "jobs")

    def test_canonical_jobs_and_out_flags_everywhere(self):
        """Every subcommand that fans out or saves takes the canonical
        spelling."""
        parser = build_parser()
        for command in ("fig6a", "reproduce", "robustness", "defend",
                        "submit"):
            argv = [command, "--trial-jobs", "3"]
            if command == "submit":
                argv.insert(1, "recon")
            assert parser.parse_args(argv).trial_jobs == 3
        for command in ("fig6a", "fig7b", "headline", "reproduce",
                        "robustness"):
            args = parser.parse_args([command, "--out", "x.json"])
            assert args.out == "x.json"

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--n-jobs", "3"],
            ["fig6a", "--save", "x.json"],
            ["select", "--kernel", "sparse"],
            ["fig6a", "--simpath", "fastpath"],
            ["select", "--jobs", "2"],
        ],
        ids=["n-jobs", "save", "kernel", "simpath", "jobs"],
    )
    def test_removed_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_aliases_are_hidden_from_help(self):
        parser = build_parser()
        sub = next(
            action for action in parser._actions
            if action.choices and "fig6a" in action.choices
        )
        help_text = sub.choices["fig6a"].format_help()
        assert "--out" in help_text and "--trial-jobs" in help_text
        assert "--save" not in help_text and "--n-jobs" not in help_text
        assert "--jobs" not in help_text

    def test_common_flags_everywhere(self):
        parser = build_parser()
        for command in ("demo", "fig6a", "headline", "reproduce", "check"):
            args = parser.parse_args([command])
            assert args.trace is None
            assert args.metrics is None


class TestObservability:
    def test_trace_and_metrics_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.ndjson"
        metrics = tmp_path / "metrics.json"
        code = main(
            ["statecount", "--trace", str(trace), "--metrics", str(metrics)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "wrote trace" in err and "wrote metrics" in err

        records = read_ndjson(trace)
        assert [r["name"] for r in records] == ["cli.statecount"]
        document = json.loads(metrics.read_text())
        assert {"counters", "gauges", "histograms", "phases"} <= set(document)

    def test_no_flags_means_no_files(self, tmp_path, capsys):
        assert main(["statecount"]) == 0
        assert "wrote trace" not in capsys.readouterr().err


class TestStats:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        tracer = Tracer()
        with tracer.span("cli.demo"):
            with tracer.span("engine.select"):
                pass
            with tracer.span("engine.select"):
                pass
        return tracer.write_ndjson(tmp_path / "trace.ndjson")

    def test_text_summary(self, trace_file, capsys):
        assert main(["stats", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "span" in out and "count" in out
        assert "cli.demo" in out and "engine.select" in out
        assert "3 span(s)" in out

    def test_json_format(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_name = {row["name"]: row for row in rows}
        assert by_name["engine.select"]["count"] == 2

    def test_limit(self, trace_file, capsys):
        assert main(["stats", str(trace_file), "--limit", "1",
                     "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "absent.ndjson")])
        assert code == 2
        assert "stats:" in capsys.readouterr().err

    def test_malformed_trace_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text("not json\n")
        assert main(["stats", str(bad)]) == 2
        assert "invalid NDJSON" in capsys.readouterr().err
