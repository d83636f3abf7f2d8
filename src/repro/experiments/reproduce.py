"""One-call reproduction: regenerate every paper artifact in sequence.

``reproduce_all`` runs the complete Section VI evaluation — both
figures, the timing characterisation, and the state-count comparison —
at a chosen scale, renders every artifact in the paper's terms, and
optionally archives the figure runs as JSON.  It is the programmatic
equivalent of running the whole benchmark suite, packaged for scripts
and notebooks::

    from repro.apispec import JobSpec
    from repro.experiments.reproduce import reproduce_all
    report = reproduce_all(JobSpec(experiment="reproduce", scale=0.1, seed=7))
    print(report.render())
    report.save("runs/2026-07-05")
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Union

if TYPE_CHECKING:
    from repro.apispec import JobSpec
from repro.experiments.fig6 import Fig6Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.params import VIABLE_FIG7_BINS
from repro.experiments.persist import RUNNERS, save_result
from repro.obs import get_instrumentation
from repro.experiments.report import (
    fig6a_section,
    fig6b_section,
    fig7a_section,
    fig7b_section,
    format_table,
    headline_section,
    statecount_section,
    timing_section,
)
from repro.experiments.tables import statecount_report, timing_table


@dataclass
class ReproductionReport:
    """All regenerated artifacts plus rendering/persistence helpers."""

    fig6: Fig6Result
    fig7: Fig7Result
    timing: Dict[str, object]
    statecount: Dict[str, object]
    #: The spec each figure ran, by experiment name: a saved figure
    #: document's ``job`` reruns to that document.
    jobs: Dict[str, "JobSpec"]
    elapsed_seconds: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        """The full plain-text report, artifact by artifact."""
        sections: List[str] = [
            fig6a_section(self.fig6),
            fig6b_section(self.fig6),
            headline_section(self.fig6),
            fig7a_section(self.fig7),
            fig7b_section(self.fig7),
            timing_section(self.timing),
            statecount_section(self.statecount),
        ]
        if self.elapsed_seconds:
            sections.append(
                format_table(
                    ["stage", "seconds"],
                    [[k, v] for k, v in self.elapsed_seconds.items()],
                    title="Wall-clock per stage",
                )
            )
        return "\n\n".join(sections)

    def save(self, directory: Union[str, Path]) -> Path:
        """Archive the figure runs and the text report under a directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for name, result in (("fig6", self.fig6), ("fig7", self.fig7)):
            save_result(result, directory / f"{name}.json", self.jobs[name])
        (directory / "report.txt").write_text(self.render())
        return directory


def reproduce_all(spec: "JobSpec") -> ReproductionReport:
    """Regenerate every artifact at a fraction of the paper's size.

    ``spec`` is a :class:`~repro.apispec.JobSpec` (anything else raises
    ``TypeError``): its ``scale``/``seed``/``trial_mode``/``fault_plan``/
    ``probe_retries``/``trial_jobs`` fields drive the run, and
    ``scale=None`` means the default 0.1.

    ``scale=1.0`` is the paper's 100 configurations x 100 trials (hours
    on one core; the sampling screens dominate).  ``fault_plan`` /
    ``probe_retries`` thread seeded fault injection through every trial
    (docs/FAULTS.md); the defaults reproduce the clean-channel paper
    setting bit-for-bit.  ``trial_jobs`` > 1 fans the screening and
    trial loops across a fork pool without changing a single number
    (EXPERIMENTS.md, "Parallel execution").
    """
    from repro.apispec import require_spec

    require_spec(spec, caller="reproduce_all")
    run_scale = spec.scale if spec.scale is not None else 0.1
    run_spec = replace(
        spec,
        n_configs=max(2, round(100 * run_scale)),
        n_trials=max(10, round(100 * run_scale)),
    )
    elapsed: Dict[str, float] = {}
    obs = get_instrumentation()
    figures: Dict[str, Any] = {}
    jobs = {
        "fig6": replace(run_spec, experiment="fig6"),
        # At least one configuration per Figure 7 bin.
        "fig7": replace(
            run_spec, experiment="fig7",
            n_configs=max(len(VIABLE_FIG7_BINS), run_spec.n_configs),
        ),
    }
    for name, figure_spec in jobs.items():
        start = time.perf_counter()
        with obs.span(f"reproduce.{name}"):
            figures[name] = RUNNERS[name](figure_spec)
        elapsed[name] = time.perf_counter() - start

    start = time.perf_counter()
    with obs.span("reproduce.timing"):
        timing = timing_table(seed=spec.seed or 0)
    elapsed["timing"] = time.perf_counter() - start

    statecount = statecount_report()

    return ReproductionReport(
        fig6=figures["fig6"],
        fig7=figures["fig7"],
        timing=timing,
        statecount=statecount,
        elapsed_seconds=elapsed,
        jobs=jobs,
    )
