"""The defend grid's bit-identity and no-op-defense contracts.

Three contracts lock the countermeasure evaluation in place:

* attaching the ``none`` defense (a real :class:`NoDefense` object
  through the full factory path) is bit-identical to running with no
  defense at all -- through ``run_fig6``, ``reproduce_all``, and the
  defend grid's own baseline column;
* the whole grid is bit-identical for every ``--trial-jobs N``;
* serving a defend job twice (kill/resume through the service's
  checkpoint store) returns the stored document unchanged, and a fresh
  state directory reproduces it bit-for-bit.
"""

import dataclasses
import json

import pytest

from repro.apispec import JobSpec
from repro.experiments.defend import BASELINE, run_defend
from repro.experiments.fig6 import run_fig6
from repro.experiments.persist import result_document
from repro.experiments.reproduce import reproduce_all
from repro.obs import Instrumentation, use_instrumentation
from repro.service import serve_jobs

from tests.experiments.conftest import tiny_config_params


def tiny_network_spec(experiment="defend", **overrides) -> JobSpec:
    defaults = dict(
        experiment=experiment,
        config=tiny_config_params(),
        n_configs=2,
        n_trials=6,
        seed=123,
        trial_mode="network",
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


def canonical(document):
    """A document stripped of run-shape records (parallel-smoke idiom).

    Provenance and the recorded ``trial_jobs`` legitimately differ
    between fan-out settings and between specs that differ only in the
    ``defense`` field; everything else must match exactly.
    """
    document = json.loads(json.dumps(document, sort_keys=True))
    document.pop("provenance", None)
    for section in ("params", "job"):
        if document.get(section):
            document[section].pop("trial_jobs", None)
    return document


class TestNoneDefenseIsInvisible:
    def test_fig6_bit_identical_with_and_without_none_defense(self):
        # Both documents are built from ``spec``, so only the results
        # may differ.
        spec = tiny_network_spec(experiment="fig6")
        undefended = result_document(run_fig6(spec), spec)
        defended = result_document(
            run_fig6(dataclasses.replace(spec, defense=("none",))), spec
        )
        assert canonical(undefended) == canonical(defended)

    def test_reproduce_bit_identical_with_and_without_none_defense(self):
        spec = tiny_network_spec(experiment="reproduce", scale=0.02)
        plain = reproduce_all(spec)
        defended = reproduce_all(
            dataclasses.replace(spec, defense=("none",))
        )
        for name in ("fig6", "fig7"):
            figure_spec = dataclasses.replace(spec, experiment=name)
            assert canonical(
                result_document(getattr(plain, name), figure_spec)
            ) == canonical(
                result_document(getattr(defended, name), figure_spec)
            )

    def test_none_cell_equals_undefended_baseline(self):
        result = run_defend(tiny_network_spec(defense=("none",)))
        none_cell = result.cell("none", 0.0).to_dict()
        baseline = result.baseline[0].to_dict()
        assert none_cell.pop("defense") == "none"
        assert baseline.pop("defense") == BASELINE
        assert none_cell == baseline

    def test_single_defense_requires_a_singleton(self):
        spec = tiny_network_spec(
            experiment="fig6", defense=("none", "delay")
        )
        with pytest.raises(ValueError, match="repro-sdn defend"):
            run_fig6(spec)


class TestDefendGridDeterminism:
    @pytest.fixture(scope="class")
    def serial_document(self):
        spec = tiny_network_spec()
        return canonical(result_document(run_defend(spec), spec))

    @pytest.mark.parametrize("trial_jobs", [2, 4])
    def test_bit_identical_for_any_trial_jobs(
        self, serial_document, trial_jobs
    ):
        spec = tiny_network_spec(trial_jobs=trial_jobs)
        document = canonical(
            result_document(run_defend(spec), spec)
        )
        assert document == serial_document

    def test_grid_repeats_bit_identically(self, serial_document):
        spec = tiny_network_spec()
        again = canonical(result_document(run_defend(spec), spec))
        assert again == serial_document

    def test_rejects_table_mode(self):
        with pytest.raises(ValueError, match="network-mode"):
            run_defend(tiny_network_spec(trial_mode="table"))

    def test_rejects_unknown_defense(self):
        with pytest.raises(ValueError, match="unknown defense"):
            run_defend(tiny_network_spec(defense=("firewall",)))


class TestDefendThroughService:
    def test_serve_checkpoint_resume_is_bit_identical(self, tmp_path):
        spec = tiny_network_spec(job_id="job-defend")
        first = serve_jobs([spec], tmp_path / "state")
        obs = Instrumentation()
        with use_instrumentation(obs):
            resumed = serve_jobs([spec], tmp_path / "state")
        # The rerun never re-executes the grid: it is served wholesale
        # from the checkpoint store...
        assert obs.metrics.counter("service.checkpoint.hits").value == 1
        # JSON round-tripping through the store turns tuples into
        # lists; canonical() applies the same round-trip to both sides.
        assert canonical(resumed["job-defend"]) == canonical(
            first["job-defend"]
        )
        # ...and a cold run in a fresh state directory reproduces the
        # stored document bit-for-bit.
        fresh = serve_jobs([spec], tmp_path / "fresh")
        assert canonical(fresh["job-defend"]) == canonical(
            first["job-defend"]
        )

    def test_defend_document_envelope(self, tmp_path):
        spec = tiny_network_spec(job_id="job-defend-env", defense=("none",))
        (document,) = serve_jobs(
            [spec], tmp_path / "state"
        ).values()
        assert document["artifact"] == "defend"
        assert document["schema_version"] == 3
        assert document["job"]["defense"] == ["none"]
        assert document["series"]["defenses"] == ["none"]
        assert len(document["series"]["baseline"]) == 1
        assert len(document["series"]["cells"]) == 1
