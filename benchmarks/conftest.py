"""Shared benchmark scaffolding.

Each experiment benchmark regenerates one of the paper's evaluation
artifacts and prints it in the paper's terms (series, CDFs, or
paper-vs-measured tables).  Experiment sizes scale with the environment:

* default           -- reduced scale, minutes per benchmark;
* ``REPRO_SCALE=x`` -- explicit scale factor on configuration counts;
* ``REPRO_FULL=1``  -- the paper's 100-configuration scale (hours);
* ``REPRO_MODE=network`` -- run trials on the packet-level simulator
  instead of the fast (semantically identical) flow-table replay.

Heavy experiments run exactly once inside ``benchmark.pedantic``; the
timing numbers pytest-benchmark reports for them are wall-clock costs
of the experiment, not statistical micro-benchmarks.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.params import ExperimentParams, bench_scale

#: Stored pytest-benchmark baseline the ``--bench-compare`` gate reads.
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_headline.json"

#: Allowed slowdown of a compared benchmark over its stored baseline
#: before ``--bench-compare`` fails the run.
REGRESSION_BUDGET = 0.20


def pytest_addoption(parser):
    parser.addoption(
        "--bench-compare",
        action="store",
        nargs="?",
        const=str(BASELINE_PATH),
        default=None,
        metavar="BASELINE_JSON",
        help=(
            "compare fast benchmarks against a stored pytest-benchmark "
            "JSON baseline (default BENCH_headline.json) and fail when "
            f"a benchmark regresses by more than {REGRESSION_BUDGET:.0%}"
        ),
    )


def _machine_fingerprint(machine_info) -> tuple:
    """The (cpu brand, cpu count) pair that makes timings comparable."""
    cpu = machine_info.get("cpu", {}) if isinstance(machine_info, dict) else {}
    return (cpu.get("brand_raw"), cpu.get("count"))


@pytest.fixture
def bench_compare(request, print_section):
    """Gate a benchmark's mean against the stored baseline.

    Returns a callable ``check(benchmark)`` to invoke *after* the
    benchmark ran.  A no-op unless ``--bench-compare`` was given.  The
    comparison only holds on the machine that produced the baseline, so
    a differing CPU fingerprint downgrades the gate to a notice instead
    of producing a meaningless pass or fail.
    """
    path = request.config.getoption("--bench-compare")

    def check(benchmark) -> None:
        if path is None:
            return
        baseline = json.loads(Path(path).read_text())
        name = benchmark.name
        entry = next(
            (
                b
                for b in baseline.get("benchmarks", [])
                if b.get("name") == name
            ),
            None,
        )
        if entry is None:
            pytest.skip(f"{path} has no baseline entry for {name}")
        stored_mean = entry["stats"]["mean"]
        measured_mean = benchmark.stats.stats.mean
        session = getattr(request.config, "_benchmarksession", None)
        current = session.get_machine_info() if session is not None else {}
        stored_print = _machine_fingerprint(baseline.get("machine_info", {}))
        current_print = _machine_fingerprint(current)
        report = (
            f"bench-compare {name}: baseline {stored_mean:.3f}s, "
            f"measured {measured_mean:.3f}s "
            f"({measured_mean / stored_mean - 1.0:+.1%})"
        )
        if stored_print != current_print:
            print_section(
                f"{report}\n"
                f"machine differs from baseline ({current_print} vs "
                f"{stored_print}); comparison is informational only"
            )
            return
        print_section(report)
        assert measured_mean <= stored_mean * (1.0 + REGRESSION_BUDGET), (
            f"{name} regressed beyond the {REGRESSION_BUDGET:.0%} budget: "
            f"{measured_mean:.3f}s vs baseline {stored_mean:.3f}s"
        )

    return check


def trial_mode() -> str:
    """Trial fidelity for experiment benchmarks."""
    return os.environ.get("REPRO_MODE", "table")


def experiment_params(seed: int, n_trials: int = 60) -> ExperimentParams:
    """Paper-setup parameters at the benchmark scale."""
    return ExperimentParams(
        n_trials=n_trials,
        seed=seed,
        trial_mode=trial_mode(),
    )


def scaled_configs(per_bin_full: int) -> int:
    """Configurations per bin, scaled from the paper's count."""
    return max(1, round(per_bin_full * bench_scale()))


from repro.experiments.params import (  # noqa: E402
    VIABLE_FIG6_BINS as FIG6_BINS,
    VIABLE_FIG7_BINS as FIG7_BINS,
)

#: Paper-scale configurations per bin (scaled by ``bench_scale``).
FIG6_PER_BIN_FULL = 50
FIG7_PER_BIN_FULL = 33

_experiment_cache = {}


def get_fig6_result():
    """The Figure 6 experiment, shared by fig6a/fig6b/headline benches."""
    key = ("fig6", bench_scale(), trial_mode())
    if key not in _experiment_cache:
        from repro.apispec import JobSpec
        from repro.experiments.fig6 import run_fig6

        params = replace(
            experiment_params(seed=2017),
            n_configs=len(FIG6_BINS) * scaled_configs(FIG6_PER_BIN_FULL),
        )
        _experiment_cache[key] = run_fig6(
            JobSpec.from_params(params, experiment="fig6")
        )
    return _experiment_cache[key]


def get_fig7_result():
    """The Figure 7 experiment, shared by fig7a/fig7b benches."""
    key = ("fig7", bench_scale(), trial_mode())
    if key not in _experiment_cache:
        from repro.apispec import JobSpec
        from repro.experiments.fig7 import run_fig7

        params = replace(
            experiment_params(seed=1848),
            n_configs=len(FIG7_BINS) * scaled_configs(FIG7_PER_BIN_FULL),
        )
        _experiment_cache[key] = run_fig7(
            JobSpec.from_params(params, experiment="fig7")
        )
    return _experiment_cache[key]


@pytest.fixture
def print_section(capsys):
    """Print a benchmark's report outside pytest's capture."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print
