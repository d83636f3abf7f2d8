"""One document builder serves the CLI and the service.

``repro-sdn <experiment> --out`` writes the document
:func:`repro.experiments.persist.save_result` builds; the service
stores :func:`~repro.experiments.persist.result_document`'s as the
job's ``result.json``.  Both run the job through
:data:`~repro.experiments.persist.RUNNERS`.  For a tiny spec of every
batch experiment the two files must be equal key for key.
"""

import argparse
import json

import pytest

from repro.apispec import JobSpec
from repro.cli import _run_job
from repro.experiments.persist import RUNNERS
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


def test_every_batch_experiment_is_covered():
    assert set(OVERRIDES) == set(RUNNERS)
    assert set(SERVICE_EXPERIMENTS) == {"recon"} | set(RUNNERS)


@pytest.mark.parametrize("experiment", list(OVERRIDES))
def test_cli_and_service_write_the_same_document(experiment, tmp_path):
    spec = JobSpec(
        experiment=experiment,
        config=tiny_config_params(),
        n_trials=4,
        seed=61,
        job_id=f"{experiment}-job",
        **OVERRIDES[experiment],
    )
    cli_path = tmp_path / "cli.json"
    _run_job(argparse.Namespace(out=str(cli_path)), spec)
    serve_jobs([spec], tmp_path / "state")

    written = json.loads(cli_path.read_text())
    stored = CheckpointStore(tmp_path / "state").load_result(spec.job_id)
    assert written["artifact"] == experiment
    assert sorted(written) == sorted(stored)
    for key in written:
        assert written[key] == stored[key], key
