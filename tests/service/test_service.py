"""Service lifecycle: submit, progress, checkpoint, kill, resume.

The central pins:

* an interrupted-and-resumed run produces **bit-identical** checkpoint
  and result digests to an uninterrupted run of the same spec;
* session accuracies equal a serially built
  :class:`~repro.experiments.harness.ConfigHarness` on the retargeted
  configuration with the session's generator (the differential gate);
* pool death degrades to the serial fallback, bumps
  ``service.pool.fallbacks``, and changes no results;
* duplicate job ids are rejected, identical resubmission resumes.
"""

import asyncio
import os
from dataclasses import replace

import numpy as np
import pytest

import repro.experiments.parallel as parallel_mod
import repro.parallel as primitive
from repro.experiments.harness import ConfigHarness
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation
from repro.service import (
    CheckpointStore,
    ReconService,
    ServiceBudgetExhausted,
    serve_jobs,
)
from repro.service.sessions import eligible_targets
from tests.service.conftest import tiny_recon_spec
from tests.test_parallel_primitive import hang_guard


def _digests(state, job_id):
    return CheckpointStore(state).digests(job_id)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """One uninterrupted run: (spec, job_id, digests, result document)."""
    spec = tiny_recon_spec()
    state = tmp_path_factory.mktemp("reference-state")
    results = serve_jobs([spec], state)
    (job_id, document), = results.items()
    return spec, job_id, _digests(state, job_id), document


class TestLifecycle:
    def test_job_id_defaults_to_digest_prefix(self, reference):
        spec, job_id, _, _ = reference
        assert job_id == f"job-{spec.digest()[:12]}"

    def test_result_document_carries_the_job_and_envelope(self, reference):
        spec, _, _, document = reference
        assert document["artifact"] == "recon"
        assert document["schema_version"] == 3
        assert document["job"]["experiment"] == "recon"
        assert document["job"]["seed"] == spec.seed
        assert document["metrics"]["n_sessions"] == float(spec.n_targets)
        for name in ("naive", "model", "random"):
            assert 0.0 <= document["metrics"][name] <= 1.0

    def test_sessions_checkpointed_one_document_each(
        self, reference, tmp_path
    ):
        spec, job_id, digests, _ = reference
        names = sorted(digests)
        assert names == [
            "result", "session/0000", "session/0001", "session/0002",
        ]

    def test_kill_resume_is_bit_identical(self, reference, tmp_path):
        spec, job_id, expected, _ = reference
        state = tmp_path / "state"
        with pytest.raises(ServiceBudgetExhausted):
            serve_jobs([spec], state, max_sessions=1)
        # The kill point is durable: exactly one session landed.
        partial = _digests(state, job_id)
        assert sorted(partial) == ["session/0000"]
        assert partial["session/0000"] == expected["session/0000"]
        # Resume completes the job with identical digests throughout.
        serve_jobs([spec], state)
        assert _digests(state, job_id) == expected

    def test_resume_counts_checkpoint_hits(self, reference, tmp_path):
        spec, job_id, _, _ = reference
        state = tmp_path / "state"
        with pytest.raises(ServiceBudgetExhausted):
            serve_jobs([spec], state, max_sessions=2)
        obs = Instrumentation()
        with use_instrumentation(obs):
            serve_jobs([spec], state)
        assert obs.metrics.counter("service.checkpoint.hits").value == 2
        assert obs.metrics.counter("service.sessions.completed").value == 1

    def test_sharded_run_is_bit_identical_to_serial(
        self, reference, tmp_path
    ):
        spec, job_id, expected, _ = reference
        state = tmp_path / "state"
        serve_jobs([spec], state, shards=2)
        assert _digests(state, job_id) == expected

    def test_completed_job_resubmission_is_a_noop_resume(
        self, reference, tmp_path
    ):
        spec, job_id, expected, _ = reference
        state = tmp_path / "state"
        serve_jobs([spec], state)
        serve_jobs([spec], state)  # all sessions come from checkpoints
        assert _digests(state, job_id) == expected


class TestDifferential:
    def test_session_accuracies_match_serial_harness(
        self, reference, tmp_path
    ):
        """Service session i == fresh harness with rng([seed, i])."""
        spec, job_id, _, _ = reference
        params = spec.to_params()
        scenario = ConfigGenerator(params.config, seed=spec.seed).sample()
        targets = eligible_targets(scenario, spec)
        state = tmp_path / "state"
        serve_jobs([spec], state)
        sessions = CheckpointStore(state).completed_sessions(job_id)
        assert sorted(sessions) == list(range(len(targets)))
        for index, target in enumerate(targets):
            harness = ConfigHarness(
                replace(scenario, target_flow=int(target)),
                params,
                rng=np.random.default_rng([spec.seed, index]),
            )
            serial = harness.run_trials(
                attackers=(
                    harness.naive_attacker,
                    harness.model_attacker,
                    harness.random_attacker,
                )
            )
            row = sessions[index]["series"]["session"]
            assert row["accuracies"] == serial.accuracies
            assert row["target_flow"] == int(target)


class _ExplodingExecutor:
    """Stands in for the process pool; every map raises."""

    def __init__(self, *_args, **_kwargs):
        pass

    def map(self, *_args, **_kwargs):
        raise RuntimeError("worker crashed")

    def shutdown(self, *_args, **_kwargs):
        pass


class TestPoolFallback:
    def test_pool_death_falls_back_serially_and_counts(
        self, reference, tmp_path, monkeypatch
    ):
        spec, job_id, expected, document = reference
        monkeypatch.setattr(
            primitive, "ProcessPoolExecutor", _ExplodingExecutor
        )
        service = ReconService(tmp_path / "state", shards=2)
        obs = Instrumentation()
        try:
            with use_instrumentation(obs):
                service.submit(spec)
                results = asyncio.run(service.drain())
        finally:
            service.close()
        assert obs.metrics.counter("service.pool.fallbacks").value == 1
        # The pool is retired for good -- and the results are identical.
        assert not service.pool.pooled
        assert _digests(tmp_path / "state", job_id) == expected
        assert results[job_id]["metrics"] == document["metrics"]


    def test_worker_killed_mid_batch_falls_back(
        self, reference, tmp_path, monkeypatch
    ):
        spec, job_id, expected, document = reference
        parent = os.getpid()
        run_trial = parallel_mod.run_trial

        def _die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return run_trial(*args, **kwargs)

        monkeypatch.setattr(parallel_mod, "run_trial", _die_in_worker)
        service = ReconService(tmp_path / "state", shards=2)
        obs = Instrumentation()
        try:
            with use_instrumentation(obs), hang_guard():
                service.submit(spec)
                results = asyncio.run(service.drain())
        finally:
            service.close()
        assert obs.metrics.counter("service.pool.fallbacks").value == 1
        assert not service.pool.pooled
        assert _digests(tmp_path / "state", job_id) == expected
        assert results[job_id]["metrics"] == document["metrics"]


class TestSubmissionErrors:
    def test_duplicate_queued_id_rejected(self, tmp_path):
        service = ReconService(tmp_path / "state")
        try:
            spec = tiny_recon_spec(job_id="job-a")
            service.submit(spec)
            with pytest.raises(ValueError, match="already queued"):
                service.submit(spec)
        finally:
            service.close()

    def test_same_id_different_spec_rejected(self, tmp_path):
        state = tmp_path / "state"
        serve_jobs([tiny_recon_spec(job_id="job-a")], state)
        service = ReconService(state)
        try:
            with pytest.raises(ValueError, match="different spec"):
                service.submit(tiny_recon_spec(job_id="job-a", seed=99))
        finally:
            service.close()

    def test_unservable_experiment_rejected(self, tmp_path):
        service = ReconService(tmp_path / "state")
        try:
            with pytest.raises(ValueError, match="cannot be served"):
                service.submit(tiny_recon_spec(experiment="reproduce"))
        finally:
            service.close()

    def test_seedless_jobs_rejected(self, tmp_path):
        service = ReconService(tmp_path / "state")
        try:
            with pytest.raises(ValueError, match="seed"):
                service.submit(tiny_recon_spec(seed=None))
        finally:
            service.close()

    def test_explicit_targets_validated_against_universe(self, tmp_path):
        spec = tiny_recon_spec(targets=(99,))
        with pytest.raises(ValueError, match="universe"):
            serve_jobs([spec], tmp_path / "state")


class TestBatchJobs:
    def test_fig6_job_runs_through_the_service(self, tmp_path):
        from tests.experiments.conftest import tiny_config_params

        from repro.apispec import JobSpec

        spec = JobSpec(
            experiment="fig6",
            config=tiny_config_params(),
            n_configs=2,
            n_trials=4,
            seed=61,
            trial_mode="table",
            job_id="fig6-job",
        )
        results = serve_jobs([spec], tmp_path / "state")
        document = results["fig6-job"]
        assert document["artifact"] == "fig6"
        assert document["job"]["experiment"] == "fig6"
        assert "mean_improvement" in document["metrics"]
