"""`repro-sdn submit` / `repro-sdn serve`: the service's CLI surface."""

import json

import pytest

from repro.apispec import JobSpec
from repro.cli import main
from repro.service import (
    SERVICE_EXPERIMENTS,
    CheckpointStore,
    list_pending,
    submit_spec,
)
from tests.service.conftest import tiny_recon_spec

#: Flags matching tests/service/conftest.tiny_recon_spec's geometry so
#: CLI runs stay fast (4 flows, short window comes from --flows).
_TINY = [
    "--seed", "11", "--trials", "6", "--mode", "table", "--n-targets", "2",
    "--configs", "2",
]


def _submit(tmp_path, *extra):
    spool = str(tmp_path / "spool")
    argv = ["submit", "recon", "--spool", spool, *_TINY, *extra]
    return spool, main(argv)


class TestSubmit:
    def test_submit_spools_a_jobspec_document(self, tmp_path, capsys):
        spool, status = _submit(tmp_path)
        assert status == 0
        (spec,) = list_pending(spool)
        assert spec.experiment == "recon"
        assert spec.seed == 11
        assert spec.job_id == f"job-{spec.digest()[:12]}"
        assert spec.job_id in capsys.readouterr().out

    def test_resubmitting_the_same_spec_is_idempotent(self, tmp_path):
        spool, _ = _submit(tmp_path)
        _, status = _submit(tmp_path)
        assert status == 0
        assert len(list_pending(spool)) == 1

    def test_same_id_different_spec_exits_two(self, tmp_path, capsys):
        spool, _ = _submit(tmp_path, "--job-id", "job-a")
        status = main(
            ["submit", "recon", "--spool", spool, "--job-id", "job-a",
             "--seed", "99", "--trials", "6", "--mode", "table"]
        )
        assert status == 2
        assert "different spec" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment", ["select", "reproduce"])
    def test_spool_rejects_an_experiment_the_service_cannot_run(
        self, tmp_path, experiment
    ):
        spool = tmp_path / "spool"
        spec = tiny_recon_spec(experiment=experiment)
        with pytest.raises(ValueError, match="cannot be served"):
            submit_spec(spool, spec)
        assert list_pending(spool) == []

    @pytest.mark.parametrize(
        "experiment, message",
        [("select", "cannot be served"), ("bogus", "unknown experiment")],
    )
    def test_submit_of_an_unservable_experiment_exits_two(
        self, tmp_path, capsys, experiment, message
    ):
        spool = str(tmp_path / "spool")
        status = main(["submit", experiment, "--spool", spool, *_TINY])
        assert status == 2
        err = capsys.readouterr().err
        assert message in err
        # The message names what the service runs, and only that.
        listed = err.split("expected one of ", 1)[1].strip().split(", ")
        assert listed == list(SERVICE_EXPERIMENTS)
        assert "reproduce" not in listed and "select" not in listed
        assert list_pending(spool) == []


class TestServe:
    def test_empty_spool_is_a_clean_noop(self, tmp_path, capsys):
        status = main(["serve", "--spool", str(tmp_path / "nothing")])
        assert status == 0
        assert "no jobs spooled" in capsys.readouterr().err

    def test_serve_runs_spooled_jobs_to_result_documents(
        self, tmp_path, capsys
    ):
        spool = str(tmp_path / "spool")
        spec = tiny_recon_spec()
        submit_spec(spool, spec)
        state = str(tmp_path / "state")
        assert main(["serve", "--spool", spool, "--state", state]) == 0
        job_id = f"job-{spec.digest()[:12]}"
        assert job_id in capsys.readouterr().out
        store = CheckpointStore(state)
        document = store.load_result(job_id)
        assert document is not None
        assert document["metrics"]["n_sessions"] == float(spec.n_targets)

    def test_budget_exhaustion_exits_three_and_resumes(
        self, tmp_path, capsys
    ):
        spool = str(tmp_path / "spool")
        spec = tiny_recon_spec()
        submit_spec(spool, spec)
        state = str(tmp_path / "state")
        status = main(
            ["serve", "--spool", spool, "--state", state,
             "--max-sessions", "1"]
        )
        assert status == 3
        assert "budget exhausted" in capsys.readouterr().err
        job_id = f"job-{spec.digest()[:12]}"
        store = CheckpointStore(state)
        assert store.load_result(job_id) is None
        assert sorted(store.completed_sessions(job_id)) == [0]
        # The second serve resumes from the checkpoint and finishes.
        assert main(["serve", "--spool", spool, "--state", state]) == 0
        assert store.load_result(job_id) is not None

    def test_spool_file_is_canonical_jobspec_json(self, tmp_path):
        spool = tmp_path / "spool"
        spec = tiny_recon_spec(job_id="job-z")
        path = submit_spec(spool, spec)
        assert JobSpec.from_dict(json.loads(path.read_text())) == spec


class TestLegacySpoolFiles:
    """Spool files written before the implementation selectors were
    removed still load; a value the old selectors never accepted is
    still an error."""

    def _spool_with(self, tmp_path, **legacy):
        spec = tiny_recon_spec(job_id="job-legacy")
        spool = tmp_path / "spool"
        spool.mkdir()
        (spool / "job-legacy.json").write_text(
            json.dumps({**spec.to_dict(), **legacy}, sort_keys=True)
        )
        return spool, spec

    def test_legacy_selector_is_accepted(self, tmp_path):
        spool, spec = self._spool_with(tmp_path, simpath="reference")
        (loaded,) = list_pending(spool)
        assert loaded == spec
        # Resubmitting the current spec finds the same digest.
        assert submit_spec(spool, spec) == spool / "job-legacy.json"

    def test_invalid_legacy_value_is_rejected(self, tmp_path):
        spool, _ = self._spool_with(tmp_path, kernel="bogus")
        with pytest.raises(ValueError, match="kernel"):
            list_pending(spool)

    def test_explicit_job_id_resumes_a_legacy_state_record(self, tmp_path):
        spec = tiny_recon_spec(job_id="job-old")
        store = CheckpointStore(tmp_path / "state")
        store.record_job(spec)
        path = tmp_path / "state" / "job-old" / "job.json"
        record = json.loads(path.read_text())
        record["spec"].update(
            kernel="auto",
            simpath="auto",
            decision="query",
            constrained_decision="map",
            random_attacker_mode="sample",
            screen=True,
        )
        record["digest"] = "0" * 64  # the digest the old fields gave
        path.write_text(json.dumps(record))
        assert store.load_job("job-old").digest() == spec.digest()
        spool = str(tmp_path / "spool")
        submit_spec(spool, spec)
        state = str(tmp_path / "state")
        assert main(["serve", "--spool", spool, "--state", state]) == 0
        assert store.load_result("job-old") is not None


class TestJobRecord:
    def test_state_records_spec_and_digest(self, tmp_path):
        spool = str(tmp_path / "spool")
        spec = tiny_recon_spec(job_id="job-r")
        submit_spec(spool, spec)
        state = str(tmp_path / "state")
        main(["serve", "--spool", spool, "--state", state])
        record = json.loads(
            (tmp_path / "state" / "job-r" / "job.json").read_text()
        )
        assert record["digest"] == spec.digest()
        assert JobSpec.from_dict(record["spec"]) == spec
