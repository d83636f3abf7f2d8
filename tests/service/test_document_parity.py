"""One document builder serves the CLI and the service, and reruns.

``repro-sdn <experiment> --out`` writes the document
:func:`repro.experiments.persist.save_result` builds; the service
stores :func:`~repro.experiments.persist.result_document`'s as the
job's ``result.json``.  Both run the job through
:data:`~repro.experiments.persist.RUNNERS`.  For a tiny spec of every
batch experiment the two files must be equal key for key.

A runner's only input is its spec, so every saved document -- each
CLI document and both figure documents ``reproduce`` archives -- must
rerun from its own ``job`` section to itself.
"""

import argparse
import json

import pytest

from repro.apispec import JobSpec
from repro.cli import _run_job
from repro.experiments.persist import RUNNERS, result_document
from repro.experiments.reproduce import reproduce_all
from repro.service import SERVICE_EXPERIMENTS, CheckpointStore, serve_jobs

from tests.experiments.conftest import tiny_config_params

#: Per-experiment fields on top of the shared tiny spec.
OVERRIDES = {
    "fig6": dict(n_configs=2, trial_mode="table"),
    # One configuration per Figure 7 bin.
    "fig7": dict(n_configs=3, trial_mode="table"),
    "robustness": dict(n_configs=2, trial_mode="table", rates=(0.0, 0.5)),
    "defend": dict(n_configs=2, trial_mode="network", defense=("delay",)),
}

#: The smallest reproduction: its figures run 2 and 3 configurations of
#: 10 trials each, not the spec's own ``n_configs``/``n_trials``.
REPRODUCE_SPEC = JobSpec(
    experiment="reproduce",
    config=tiny_config_params(),
    scale=0.01,
    seed=61,
    trial_mode="table",
)

#: Every saved document the rerun test covers.
DOCUMENTS = (*OVERRIDES, "reproduce-fig6", "reproduce-fig7")


def _spec(experiment):
    return JobSpec(
        experiment=experiment,
        config=tiny_config_params(),
        n_trials=4,
        seed=61,
        job_id=f"{experiment}-job",
        **OVERRIDES[experiment],
    )


def _saved(path):
    """A saved document without its commit, which reruns may not share."""
    document = json.loads(path.read_text())
    document["provenance"].pop("git_sha")
    return document


@pytest.fixture(scope="module")
def saved_documents(tmp_path_factory):
    """Each covered document as the CLI and ``reproduce`` save it."""
    directory = tmp_path_factory.mktemp("saved")
    paths = {}
    for experiment in OVERRIDES:
        paths[experiment] = directory / f"{experiment}.json"
        _run_job(
            argparse.Namespace(out=str(paths[experiment])), _spec(experiment)
        )
    reproduced = reproduce_all(REPRODUCE_SPEC).save(
        directory / "reproduce"
    )
    for name in ("fig6", "fig7"):
        paths[f"reproduce-{name}"] = reproduced / f"{name}.json"
    return paths


def test_every_batch_experiment_is_covered():
    assert set(OVERRIDES) == set(RUNNERS)
    assert set(SERVICE_EXPERIMENTS) == {"recon"} | set(RUNNERS)


@pytest.mark.parametrize("experiment", list(OVERRIDES))
def test_cli_and_service_write_the_same_document(
    experiment, saved_documents, tmp_path
):
    spec = _spec(experiment)
    serve_jobs([spec], tmp_path / "state")

    written = json.loads(saved_documents[experiment].read_text())
    stored = CheckpointStore(tmp_path / "state").load_result(spec.job_id)
    assert written["artifact"] == experiment
    assert sorted(written) == sorted(stored)
    for key in written:
        assert written[key] == stored[key], key


@pytest.mark.parametrize("name", DOCUMENTS)
def test_saved_document_reruns_to_itself(name, saved_documents, tmp_path):
    saved = _saved(saved_documents[name])
    job = JobSpec.from_dict(saved["job"])
    rerun = tmp_path / "rerun.json"
    rerun.write_text(
        json.dumps(result_document(RUNNERS[job.experiment](job), job))
    )
    assert _saved(rerun) == saved
