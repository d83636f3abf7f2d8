"""Command-line entry point: ``repro-sdn <experiment> [options]``.

Subcommands map one-to-one onto the paper's evaluation artifacts::

    repro-sdn demo                    # one end-to-end attack walkthrough
    repro-sdn fig6a [--configs N --trials N --seed S]
    repro-sdn fig6b [...]
    repro-sdn fig7a [...]
    repro-sdn fig7b [...]
    repro-sdn timing [--samples N]
    repro-sdn statecount
    repro-sdn headline [...]
    repro-sdn robustness [--rates 0,0.1 --kinds packet_in_loss ...]
    repro-sdn select [--probes M --method ...]
    repro-sdn submit recon [--spool DIR --targets 1,2 ...]
    repro-sdn serve [--spool DIR --state DIR --shards N]
    repro-sdn check [paths] [--select RULES --format text|json]
    repro-sdn stats trace.ndjson [--format text|json]

Every experiment invocation is internally a
:class:`repro.apispec.JobSpec` -- the same unified job object the
service consumes (docs/SERVICE.md) -- built from the parsed flags by
``JobSpec.from_args``.

Every command prints the same plain-text tables the benchmark suite
emits, so results are scriptable without pytest.

Shared flags are attached by :func:`add_common_args` so their names,
defaults, and help text cannot drift between subparsers.  Every
subcommand accepts ``--trace out.ndjson`` and ``--metrics out.json``:
when either is given, :func:`main` installs a recording
:class:`~repro.obs.Instrumentation` backend around the command and
exports the span trace / metric registry afterwards.  ``repro-sdn
stats`` summarises such a trace into a per-span table.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Dict, List, Optional, cast

if TYPE_CHECKING:
    from repro.apispec import JobSpec


# ----------------------------------------------------------------------
# Shared flags (one definition; subparsers cannot drift)
# ----------------------------------------------------------------------
def add_common_args(
    parser: argparse.ArgumentParser,
    *,
    seed: bool = True,
    seed_fallback: Optional[int] = None,
    experiment: bool = False,
    out: bool = False,
    mode: bool = False,
    mode_default: str = "network",
    faults: bool = False,
    trial_jobs: bool = False,
) -> None:
    """Attach the flags shared across subcommands.

    ``--seed`` always parses to ``None`` by default; the per-command
    fallback (documented in the help text) is applied by
    :func:`_resolved_seed`, so explicit seeds behave identically
    everywhere.  ``experiment`` adds the ``--configs/--trials/--mode/
    --out`` block of the figure pipelines (plus the fault flags and
    ``--trial-jobs``); ``trial_jobs`` adds ``--trial-jobs`` (the
    experiment layer's deterministic fan-out, EXPERIMENTS.md);
    ``faults`` adds ``--fault-plan``/``--probe-retries``
    (docs/FAULTS.md).  ``--trace`` and ``--metrics`` are attached
    unconditionally: observability is available on every subcommand.
    """
    if seed:
        fallback = "fresh entropy" if seed_fallback is None else seed_fallback
        parser.add_argument(
            "--seed", type=int, default=None,
            help=f"RNG seed (default: {fallback})",
        )
        parser.set_defaults(seed_fallback=seed_fallback)
    if experiment:
        parser.add_argument(
            "--configs", type=int, default=12,
            help="configurations to sample (paper: 100)",
        )
        parser.add_argument(
            "--trials", type=int, default=30,
            help="trials per configuration (paper: 100)",
        )
        mode = True
        out = True
        faults = True
        trial_jobs = True
    if faults:
        parser.add_argument(
            "--fault-plan", type=str, default=None, metavar="SPEC",
            help=(
                "seeded fault injection: 'key=value,...' pairs "
                "(packet_in_loss, flow_mod_loss, probe_reply_loss, "
                "controller_jitter, outage_rate, outage_duration, seed) "
                "or '@plan.json'; default: no faults"
            ),
        )
        parser.add_argument(
            "--probe-retries", type=int, default=0, metavar="N",
            help="probe retransmissions after a timeout (default: 0)",
        )
    if mode:
        parser.add_argument(
            "--mode", choices=("network", "table"), default=mode_default,
            help="trial fidelity: packet-level network or fast table replay",
        )
    if out:
        parser.add_argument(
            "--out", dest="out", type=str, default=None,
            metavar="PATH",
            help="archive the run as JSON (see repro.experiments.persist)",
        )
    if trial_jobs:
        parser.add_argument(
            "--trial-jobs", dest="trial_jobs", type=int, default=1,
            metavar="N",
            help=(
                "worker processes for the trial/config fan-out; results "
                "are bit-identical for every N (1 = in this process)"
            ),
        )
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="write an NDJSON span trace of this run to PATH",
    )
    parser.add_argument(
        "--metrics", type=str, default=None, metavar="PATH",
        help="write run metrics (counters/gauges/histograms) to PATH as JSON",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help=(
            "run under the determinism sanitizer (also enabled by "
            "REPRO_SANITIZE=1): verify frozen cache arrays at span "
            "boundaries and reject unseeded generators"
        ),
    )


def _resolved_seed(args: argparse.Namespace) -> Optional[int]:
    """``--seed`` if given, else the subcommand's documented fallback."""
    if args.seed is not None:
        return int(args.seed)
    return getattr(args, "seed_fallback", None)


def _job_spec(args: argparse.Namespace, experiment: str) -> "JobSpec":
    """The unified job for this invocation (repro.apispec.JobSpec)."""
    from repro.apispec import JobSpec

    return JobSpec.from_args(args, experiment)


def _run_job(args: argparse.Namespace, spec: "JobSpec") -> Any:
    """Run a batch job; with ``--out``, archive its result document.

    The runner comes from :data:`repro.experiments.persist.RUNNERS`, the
    table ``reproduce_all`` and the service dispatch through too.
    """
    from repro.experiments.persist import RUNNERS, save_result

    result = RUNNERS[spec.experiment](spec)
    if args.out:
        print(f"saved run to {save_result(result, args.out, spec)}")
    return result


def _print_execution(spec: "JobSpec") -> None:
    """Print a parallel run's fan-out counters (``--metrics``/``--trace`` only)."""
    from repro.obs import get_instrumentation

    obs = get_instrumentation()
    if not obs.enabled or spec.trial_jobs <= 1:
        return
    from repro.experiments.report import format_table

    counters = cast(Dict[str, int], obs.metrics.to_document()["counters"])
    names = (
        "experiment.trials",
        "experiment.configs_sampled",
        "experiment.harnesses_built",
        "experiment.pool.fallbacks",
    )
    print()
    print(
        format_table(
            ["counter", "value"],
            [["trial_jobs", spec.trial_jobs]]
            + [[name, counters.get(name, 0)] for name in names],
            title="Parallel execution statistics",
        )
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import quick_attack_demo

    print(quick_attack_demo(seed=_resolved_seed(args)))
    return 0


def _cmd_fig6(args: argparse.Namespace, which: str) -> int:
    from repro.experiments.report import format_cdf, format_series, format_table

    spec = _job_spec(args, "fig6")
    result = _run_job(args, spec)
    if which == "a":
        print(
            format_series(
                "P(absent)",
                result.bin_centers(),
                result.accuracy_series(),
                title="Figure 6a: average accuracy vs P(absence of target)",
            )
        )
    else:
        print(
            format_cdf(
                result.improvement_cdf(),
                title="Figure 6b: CDF of improvement over naive attacker",
            )
        )
    headline = result.headline()
    print()
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in headline.items()],
            title="Headline statistics",
        )
    )
    _print_execution(spec)
    return 0


def _cmd_fig7(args: argparse.Namespace, which: str) -> int:
    from repro.experiments.report import format_series, format_table

    spec = _job_spec(args, "fig7")
    result = _run_job(args, spec)
    if which == "a":
        table = result.accuracy_by_covering_count()
        rows = [
            [count, row["constrained"], row["naive"], row["random"],
             int(row["n_configs"])]
            for count, row in table.items()
        ]
        print(
            format_table(
                ["#covering rules", "constrained", "naive", "random", "configs"],
                rows,
                title="Figure 7a: accuracy vs rules covering the target",
            )
        )
    else:
        print(
            format_series(
                "P(absent)",
                result.bin_centers(),
                result.accuracy_series(),
                title="Figure 7b: accuracy vs P(absence of target)",
            )
        )
    print()
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in result.summary().items()],
            title="Summary",
        )
    )
    _print_execution(spec)
    return 0


def _cmd_timing(args: argparse.Namespace) -> int:
    from repro.experiments.report import paper_vs_measured
    from repro.experiments.tables import timing_table

    seed = _resolved_seed(args)
    table = timing_table(
        n_samples=args.samples, seed=seed if seed is not None else 0
    )
    hit, miss = table["hit"], table["miss"]
    print(
        paper_vs_measured(
            [
                ("hit mean (ms)", hit.paper_mean * 1e3, hit.mean * 1e3),
                ("hit std (ms)", hit.paper_std * 1e3, hit.std * 1e3),
                ("miss mean (ms)", miss.paper_mean * 1e3, miss.mean * 1e3),
                ("miss std (ms)", miss.paper_std * 1e3, miss.std * 1e3),
            ],
            title="Section VI-A probe latency characterisation",
        )
    )
    print(
        f"\nthreshold = {table['threshold'] * 1e3:g} ms, "
        f"classification accuracy = {table['threshold_accuracy']:.4f}"
    )
    return 0


def _cmd_leakage(args: argparse.Namespace) -> int:
    from repro.analysis.leakage import compare_structures, leakage_map
    from repro.countermeasures.transform import (
        merge_to_coarse,
        split_to_microflows,
    )
    from repro.experiments.report import format_table
    from repro.flows.config import ConfigGenerator, ConfigParams

    # Bad sizes, and structures with more rules than the compact model
    # takes (the microflow split of a large universe), are user errors.
    try:
        params = ConfigParams(
            n_flows=args.flows,
            mask_bits=args.flows.bit_length() - 1,
            n_rules=args.rules,
            cache_size=args.cache,
        )
        config = ConfigGenerator(params, seed=_resolved_seed(args)).sample()
        kwargs = dict(
            universe=config.universe,
            delta=config.delta,
            cache_size=config.cache_size,
            window_steps=config.window_steps,
        )
        leaks = leakage_map(config.policy, **kwargs)
        rows = compare_structures(
            {
                "original": config.policy,
                "microflow split": split_to_microflows(config.policy),
                "coarse merge": merge_to_coarse(
                    config.policy, max(1, len(config.policy) // 3)
                ),
            },
            **kwargs,
        )
    except ValueError as error:
        print(f"repro-sdn leakage: {error}", file=sys.stderr)
        return 2
    print(
        format_table(
            ["flow", "lambda (1/s)", "best-probe IG (bits)"],
            [
                [flow, config.universe.rates[flow], bits]
                for flow, bits in sorted(leaks.items(), key=lambda kv: -kv[1])
            ],
            title="Per-flow leakage map (Section VII-B3 defender tool)",
        )
    )
    print()
    print(
        format_table(
            ["structure", "#rules", "worst target", "worst IG", "mean IG"],
            [
                [
                    r["structure"],
                    r["n_rules"],
                    r["worst_target"],
                    r["worst_leakage_bits"],
                    r["mean_leakage_bits"],
                ]
                for r in rows
            ],
            title="Candidate rule structures",
        )
    )
    return 0


#: ``repro-sdn select``'s engine table: row label -> counter name.
_ENGINE_COUNTER_ROWS = (
    ("evolutions", "engine.evolutions"),
    ("prefix cache hits", "engine.cache.hits"),
    ("prefix cache misses", "engine.cache.misses"),
    ("prefix extensions", "engine.cache.prefix_extensions"),
    ("sequences scored", "engine.sequences_scored"),
    ("scoring blocks", "engine.batches"),
)


def _cmd_select(args: argparse.Namespace) -> int:
    from repro.core.compact_model import CompactModel
    from repro.core.inference import ReconInference
    from repro.core.selection import best_probe_set
    from repro.experiments.report import format_table
    from repro.flows.config import ConfigGenerator
    from repro.obs import (
        Instrumentation,
        get_instrumentation,
        use_instrumentation,
    )

    try:
        spec = _job_spec(args, "select")
    except ValueError as error:
        print(f"repro-sdn select: {error}", file=sys.stderr)
        return 2
    config = ConfigGenerator(spec.config, seed=spec.seed).sample()
    # The engine rows come from the metrics registry: the --metrics /
    # --trace backend when given, else a private one around the model
    # build (fit-time evolutions count) and the selection.
    obs = get_instrumentation()
    if not obs.enabled:
        obs = Instrumentation()
    with use_instrumentation(obs):
        model = CompactModel(
            config.policy,
            config.universe,
            config.delta,
            config.cache_size,
        )
        inference = ReconInference(
            model, config.target_flow, config.window_steps
        )
        choice = best_probe_set(
            inference,
            spec.n_probes,
            method=spec.selection_method,
        )
    counters = obs.metrics.to_document()["counters"]
    print(config.describe())
    print()
    print(
        format_table(
            ["metric", "value"],
            [
                ["probes", ", ".join(str(f) for f in choice.probes)],
                ["joint gain (bits)", f"{choice.gain:.6f}"],
                ["prior P(absent)", f"{inference.prior_absent():.6f}"],
                ["method", spec.selection_method],
            ],
            title=f"Optimal {spec.n_probes}-probe set (Section V)",
        )
    )
    print()
    print(
        format_table(
            ["counter", "value"],
            [
                [label, counters.get(name, 0)]
                for label, name in _ENGINE_COUNTER_ROWS
            ],
            title="Probe-scoring engine statistics",
        )
    )
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import reproduce_all

    report = reproduce_all(_job_spec(args, "reproduce"))
    print(report.render())
    if args.out:
        directory = report.save(args.out)
        print(f"\narchived run under {directory}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_series, format_table

    spec = _job_spec(args, "robustness")
    result = _run_job(args, spec)
    print(
        format_series(
            "fault rate",
            list(result.rates),
            result.accuracy_series(),
            title=(
                "Robustness: average accuracy vs fault rate "
                f"({', '.join(result.kinds)})"
            ),
        )
    )
    print()
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in result.summary().items()],
            title="Robustness summary",
        )
    )
    _print_execution(spec)
    return 0


def _cmd_defend(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table

    spec = _job_spec(args, "defend")
    try:
        result = _run_job(args, spec)
    except ValueError as error:
        print(f"repro-sdn defend: {error}", file=sys.stderr)
        return 2
    clean = result.rates[0]
    rows = []
    # result.baseline holds one cell per fault rate; the clean-channel
    # table wants only the rate == rates[0] one (the first).
    for cell in [result.baseline[0]] + [
        result.cell(name, clean) for name in result.defenses
    ]:
        rows.append([
            cell.defense,
            f"{cell.accuracies.get('model', float('nan')):.4f}",
            f"{cell.rtt_auc:.4f}",
            f"{cell.effective_leakage_bits:.6f}",
            f"{cell.detector_auc:.4f}",
            f"{cell.benign_delay_seconds:.6f}",
            str(cell.rules_installed),
        ])
    print(
        format_table(
            [
                "defense",
                "model acc",
                "rtt auc",
                "leak bits",
                "det auc",
                "delay s",
                "rules",
            ],
            rows,
            title=(
                "Defense grid (clean channel, detector="
                f"{result.detector_method})"
            ),
        )
    )
    if len(result.rates) > 1:
        fault_rows = [
            [cell.defense, f"{cell.rate:g}",
             f"{cell.accuracies.get('model', float('nan')):.4f}"]
            for cell in result.baseline + result.cells
        ]
        print()
        print(
            format_table(
                ["defense", "fault rate", "model acc"],
                fault_rows,
                title=(
                    "Defense x fault-rate model accuracy "
                    f"({', '.join(result.kinds)})"
                ),
            )
        )
    print()
    print(
        format_table(
            ["metric", "value"],
            [[k, v] for k, v in result.summary().items()],
            title="Defend summary",
        )
    )
    _print_execution(spec)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import check_servable, resume_spec, submit_spec

    try:
        check_servable(args.experiment)
        spec = resume_spec(_job_spec(args, args.experiment))
        path = submit_spec(args.spool, spec)
    except ValueError as error:
        print(f"repro-sdn submit: {error}", file=sys.stderr)
        return 2
    print(f"spooled {spec.job_id} -> {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import (
        ServiceBudgetExhausted,
        list_pending,
        serve_jobs,
    )

    specs = list_pending(args.spool)
    if not specs:
        print(f"no jobs spooled under {args.spool}", file=sys.stderr)
        return 0
    try:
        results = serve_jobs(
            specs,
            args.state,
            shards=args.shards,
            max_sessions=args.max_sessions,
        )
    except ValueError as error:
        print(f"repro-sdn serve: {error}", file=sys.stderr)
        return 2
    except ServiceBudgetExhausted as error:
        # Checkpoints up to the budget are durable; rerunning `serve`
        # on the same state directory resumes exactly here.
        print(f"repro-sdn serve: {error}", file=sys.stderr)
        return 3
    for job_id in sorted(results):
        metrics = results[job_id].get("metrics", {})
        summary = ", ".join(
            f"{name}={value:.4f}" if isinstance(value, float) else
            f"{name}={value}"
            for name, value in sorted(metrics.items())  # type: ignore[union-attr]
        )
        print(f"{job_id}: {summary}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """All 12 lint rules in one pass (docs/STATIC_ANALYSIS.md).

    Exit status 0 when nothing is found, 1 on any finding, 2 on usage
    errors (a missing path, an unknown rule ID).
    """
    import json

    from repro.lint import ALL_RULES, run_checks
    from repro.lint.project import PROJECT_RULES

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.summary}")
        for project_rule in PROJECT_RULES:
            print(f"{project_rule.rule_id}  {project_rule.summary}")
        return 0
    try:
        findings = run_checks(args.paths, select=args.select or None)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro-sdn check: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([f.to_json() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        checked = ", ".join(args.paths)
        if findings:
            print(f"\n{len(findings)} finding(s) in {checked}")
        else:
            print(f"clean: no findings in {checked}")
    return 1 if findings else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarise an NDJSON trace file into a per-span-name table."""
    import json

    from repro.obs.stats import format_table as format_span_table
    from repro.obs.stats import summarize_spans
    from repro.obs.trace import read_ndjson

    try:
        records = read_ndjson(args.trace_file)
    except (OSError, ValueError) as error:
        print(f"repro-sdn stats: {error}", file=sys.stderr)
        return 2
    rows = summarize_spans(records)
    # Self times telescope: their sum is the root spans' wall clock.
    self_total = sum(float(row["self_s"]) for row in rows)
    if args.limit is not None:
        rows = rows[: max(args.limit, 0)]
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        print(format_span_table(rows))
        print(
            f"\n{len(records)} span(s) in {args.trace_file}; "
            f"self times sum to {self_total:.6f} s"
        )
    return 0


def _cmd_statecount(_: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.experiments.tables import statecount_report

    report = statecount_report()
    exp = report["experiment"]
    example = report["paper_example"]
    print(
        format_table(
            ["setting", "basic model states", "compact model states"],
            [
                [
                    f"evaluation (|Rules|={exp['n_rules']}, t={exp['timeout']}, "
                    f"n={exp['cache_size']})",
                    exp["basic"],
                    exp["compact"],
                ],
                [
                    f"paper example (|Rules|={example['n_rules']}, "
                    f"t={example['timeout']}, n={example['cache_size']})",
                    example["basic_formula"],
                    "-",
                ],
            ],
            title="State-space sizes (Sections IV-A2 / IV-B)",
        )
    )
    print(
        "\nnote: the paper quotes ~5.9e7 for its example; the printed "
        "formula evaluates to the figure above (see EXPERIMENTS.md)."
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sdn",
        description=(
            "Reproduction of 'Flow Reconnaissance via Timing Attacks on "
            "SDN Switches' (ICDCS 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="one end-to-end attack walkthrough")
    add_common_args(demo, seed_fallback=7)
    demo.set_defaults(func=_cmd_demo)

    for fig, runner in (
        ("fig6a", lambda a: _cmd_fig6(a, "a")),
        ("fig6b", lambda a: _cmd_fig6(a, "b")),
        ("fig7a", lambda a: _cmd_fig7(a, "a")),
        ("fig7b", lambda a: _cmd_fig7(a, "b")),
    ):
        p = sub.add_parser(fig, help=f"reproduce {fig}")
        p.add_argument(
            "--defense", type=str, default=None, metavar="NAME",
            help=(
                "attach one countermeasure to every trial network "
                "(none, delay, proactive; requires --mode network)"
            ),
        )
        add_common_args(p, experiment=True)
        p.set_defaults(func=runner)

    headline = sub.add_parser(
        "headline", help="the paper's summary statistics (fig6 pipeline)"
    )
    add_common_args(headline, experiment=True)
    headline.set_defaults(func=lambda a: _cmd_fig6(a, "b"))

    timing = sub.add_parser("timing", help="Section VI-A latency table")
    timing.add_argument("--samples", type=int, default=300)
    add_common_args(timing, seed_fallback=0)
    timing.set_defaults(func=_cmd_timing)

    statecount = sub.add_parser(
        "statecount", help="Section IV state-space comparison"
    )
    add_common_args(statecount, seed=False)
    statecount.set_defaults(func=_cmd_statecount)

    leakage = sub.add_parser(
        "leakage", help="defender-side rule-structure leakage audit"
    )
    leakage.add_argument(
        "--flows", type=int, default=8,
        help="universe size (a power of two; default 8 for speed)",
    )
    leakage.add_argument("--rules", type=int, default=8)
    leakage.add_argument("--cache", type=int, default=4)
    add_common_args(leakage, seed_fallback=12)
    leakage.set_defaults(func=_cmd_leakage)

    select = sub.add_parser(
        "select",
        help="optimal probe-set selection with engine statistics",
    )
    select.add_argument(
        "--flows", type=int, default=8,
        help="universe size (a power of two; default 8 for speed)",
    )
    select.add_argument("--rules", type=int, default=8)
    select.add_argument("--cache", type=int, default=4)
    select.add_argument(
        "--probes", type=int, default=2,
        help="probe-set size (Section V-B)",
    )
    select.add_argument(
        "--method", choices=("exhaustive", "greedy"), default="exhaustive"
    )
    add_common_args(select, seed_fallback=12)
    select.set_defaults(func=_cmd_select)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every paper artifact in one run"
    )
    reproduce.add_argument(
        "--scale", type=float, default=0.1,
        help="fraction of the paper's 100 configs x 100 trials",
    )
    add_common_args(
        reproduce, seed_fallback=2017, mode=True, mode_default="table",
        out=True, faults=True, trial_jobs=True,
    )
    reproduce.set_defaults(func=_cmd_reproduce)

    robustness = sub.add_parser(
        "robustness",
        help="accuracy-vs-fault-rate sweep (seeded fault injection)",
    )
    robustness.add_argument(
        "--rates", type=str, default=None, metavar="R1,R2,...",
        help="comma-separated fault rates (default: 0,0.05,0.1,0.2,0.4)",
    )
    robustness.add_argument(
        "--kinds", type=str, default=None, metavar="KIND,...",
        help=(
            "loss kinds the swept rate applies to "
            "(default: packet_in_loss,probe_reply_loss)"
        ),
    )
    add_common_args(robustness, seed_fallback=2017, experiment=True)
    robustness.set_defaults(func=_cmd_robustness)

    defend = sub.add_parser(
        "defend",
        help="countermeasure x attacker x fault-plan evaluation grid",
    )
    defend.add_argument(
        "--defenses", dest="defense", type=str, default=None,
        metavar="NAME,...",
        help=(
            "countermeasures to sweep (default: none,delay,proactive; "
            "see repro.countermeasures)"
        ),
    )
    defend.add_argument(
        "--detector", choices=("threshold", "logistic"), default=None,
        help="online recon detector scored in every cell (default: logistic)",
    )
    defend.add_argument(
        "--rates", type=str, default=None, metavar="R1,R2,...",
        help="fault rates crossed with the defenses (default: 0)",
    )
    defend.add_argument(
        "--kinds", type=str, default=None, metavar="KIND,...",
        help=(
            "loss kinds the swept rate applies to "
            "(default: packet_in_loss,probe_reply_loss)"
        ),
    )
    add_common_args(defend, seed_fallback=2017, experiment=True)
    defend.set_defaults(func=_cmd_defend)

    submit = sub.add_parser(
        "submit",
        help="spool a job (unified JobSpec) for repro-sdn serve",
    )
    submit.add_argument(
        "experiment",
        help=(
            "what the job runs: recon (per-target service sessions) or a "
            "batch experiment the service runs (docs/SERVICE.md)"
        ),
    )
    submit.add_argument(
        "--spool", type=str, default="spool", metavar="DIR",
        help="spool directory shared with `repro-sdn serve`",
    )
    submit.add_argument(
        "--job-id", dest="job_id", type=str, default=None,
        help="job identity (default: job-<spec digest prefix>)",
    )
    submit.add_argument(
        "--targets", type=str, default=None, metavar="T1,T2,...",
        help="explicit target flow indices for a recon job",
    )
    submit.add_argument(
        "--n-targets", dest="n_targets", type=int, default=4, metavar="N",
        help="eligible targets to enumerate when --targets is not given",
    )
    submit.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="session shards recorded on the spec (serve may override)",
    )
    add_common_args(submit, seed_fallback=2017, experiment=True)
    submit.set_defaults(func=_cmd_submit)

    serve = sub.add_parser(
        "serve",
        help="run spooled jobs through the reconnaissance service",
    )
    serve.add_argument(
        "--spool", type=str, default="spool", metavar="DIR",
        help="spool directory to drain (see `repro-sdn submit`)",
    )
    serve.add_argument(
        "--state", type=str, default="service-state", metavar="DIR",
        help="checkpoint directory (resume point after a kill)",
    )
    serve.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="worker processes sharing the session load",
    )
    serve.add_argument(
        "--max-sessions", dest="max_sessions", type=int, default=None,
        metavar="N",
        help=(
            "stop (exit 3) after N newly executed sessions; completed "
            "checkpoints survive and a later serve resumes from them"
        ),
    )
    add_common_args(serve, seed=False)
    serve.set_defaults(func=_cmd_serve)

    check = sub.add_parser(
        "check",
        help="domain-aware static analysis over the probability kernels",
    )
    check.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    check.add_argument(
        "--select", type=str, default=None, metavar="RULES",
        help="comma-separated rule IDs to run (default: all)",
    )
    check.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="finding output format",
    )
    check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule IDs and summaries, then exit",
    )
    add_common_args(check, seed=False)
    check.set_defaults(func=_cmd_check)

    stats = sub.add_parser(
        "stats", help="summarise an NDJSON trace (from --trace) per span"
    )
    stats.add_argument(
        "trace_file", help="NDJSON trace file produced with --trace"
    )
    stats.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="summary output format",
    )
    stats.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="keep only the top N span names by total time",
    )
    add_common_args(stats, seed=False)
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (installed as ``repro-sdn``).

    When ``--trace`` or ``--metrics`` is given, the whole command runs
    under a recording :class:`~repro.obs.Instrumentation` backend inside
    a ``cli.<command>`` root span, and the requested files are written
    after the command returns (even on a non-zero exit status).

    With ``--sanitize`` (or ``REPRO_SANITIZE=1``) the command runs under
    the determinism sanitizer (:mod:`repro.obs.sanitize`,
    docs/OBSERVABILITY.md): frozen cache arrays are checksummed at every
    span boundary and unseeded generator construction raises.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.obs import sanitize

    if getattr(args, "sanitize", False) or sanitize.enabled_by_env():
        with sanitize.sanitized() as active:
            status = _run_instrumented(args)
        print(
            f"sanitizer: {len(active.checkpoints)} boundary check(s), "
            f"{len(active.report()['guarded_arrays'])} guarded array(s) -- "
            "clean",
            file=sys.stderr,
        )
        return status
    return _run_instrumented(args)


def _run_instrumented(args: argparse.Namespace) -> int:
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if not trace_path and not metrics_path:
        return args.func(args)

    from repro.obs import Instrumentation, use_instrumentation

    obs = Instrumentation()
    with use_instrumentation(obs):
        with obs.span(f"cli.{args.command}"):
            status = args.func(args)
    if trace_path:
        obs.write_trace(trace_path)
        print(f"wrote trace to {trace_path}", file=sys.stderr)
    if metrics_path:
        obs.write_metrics(metrics_path)
        print(f"wrote metrics to {metrics_path}", file=sys.stderr)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
