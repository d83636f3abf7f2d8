"""Service lifecycle: submit, progress, checkpoint, kill, resume.

The central pins:

* an interrupted-and-resumed run produces **bit-identical** checkpoint
  and result digests to an uninterrupted run of the same spec;
* session accuracies equal a serially built
  :class:`~repro.experiments.harness.ConfigHarness` on the retargeted
  configuration with the session's generator (the differential gate);
* pool death -- a worker killed while planning or while running
  trials -- degrades to the serial fallback, bumps
  ``service.pool.fallbacks``, and changes no results; a platform
  without fork runs serially with no fallback counted;
* the compact model lives where the session runs: a pooled service
  never builds one in the parent, a serial one builds one per scenario;
* duplicate job ids are rejected, identical resubmission resumes.
"""

import asyncio
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import repro.experiments.parallel as parallel_mod
import repro.parallel as primitive
import repro.service.pool as pool_mod
import repro.service.sessions as sessions_mod
from repro.core.compact_model import CompactModel
from repro.experiments.harness import ConfigHarness
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation
from repro.service import (
    CheckpointStore,
    ReconService,
    ServiceBudgetExhausted,
    serve_jobs,
)
from repro.service.sessions import SESSION_ATTACKERS, eligible_targets
from tests.obs.catalogue import assert_outcome_counters_match
from tests.service.conftest import tiny_recon_spec
from tests.test_parallel_primitive import hang_guard


needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)


def _digests(state, job_id):
    return CheckpointStore(state).digests(job_id)


def _serve(service, *specs):
    """Submit ``specs`` to ``service`` and drain it."""
    for spec in specs:
        service.submit(spec)
    return asyncio.run(service.drain())


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


    @pytest.mark.parametrize("kill_point", ["planning", "trials"])
    def test_worker_killed_mid_batch_falls_back(
        self, reference, tmp_path, monkeypatch, kill_point
    ):
        spec, job_id, expected, document = reference
        parent = os.getpid()
        module, name = {
            "planning": (sessions_mod, "ConfigHarness"),
            "trials": (parallel_mod, "run_trial"),
        }[kill_point]
        original = getattr(module, name)

        def _die_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, _die_in_worker)
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

    def test_no_fork_start_method_runs_serially(
        self, reference, tmp_path, monkeypatch
    ):
        spec, job_id, expected, _ = reference
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        service = ReconService(tmp_path / "state", shards=2)
        obs = Instrumentation()
        try:
            with use_instrumentation(obs):
                _serve(service, spec)
        finally:
            service.close()
        assert not service.pool.pooled
        assert obs.metrics.counter("service.pool.fallbacks").value == 0
        assert _digests(tmp_path / "state", job_id) == expected


@pytest.fixture
def model_builds(monkeypatch, tmp_path):
    """Record the pid of every ``CompactModel`` build, workers included.

    Workers are forked after the patch, so they inherit it; each build
    appends one line to a shared file (``O_APPEND`` writes this short
    do not interleave).
    """
    log = tmp_path / "model-builds.log"
    init = CompactModel.__init__

    def _recording_init(self, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\n")
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompactModel, "__init__", _recording_init)

    def _pids():
        if not log.exists():
            return []
        return [int(line) for line in log.read_text().split()]

    return _pids


class TestModelPlacement:
    @needs_fork
    def test_pooled_service_never_builds_a_model_in_the_parent(
        self, tmp_path, model_builds
    ):
        # Two sessions make one batch of two: both go to the workers.
        # (A batch of one session runs in the parent.)
        spec = tiny_recon_spec(job_id="even", n_targets=2)
        service = ReconService(tmp_path / "state", shards=2)
        try:
            with hang_guard():
                _serve(service, spec)
            assert service.pool.pooled
        finally:
            service.close()
        pids = model_builds()
        assert pids, "no session built a model"
        assert os.getpid() not in pids
        assert not service.pool.models
        serve_jobs([spec], tmp_path / "serial")
        assert _digests(tmp_path / "state", "even") == _digests(
            tmp_path / "serial", "even"
        )

    def test_serial_service_builds_one_model_per_scenario(
        self, tmp_path, model_builds
    ):
        specs = [
            tiny_recon_spec(job_id="a", targets=(0, 1)),
            tiny_recon_spec(job_id="b", targets=(2, 3)),
            tiny_recon_spec(job_id="c", seed=12, n_targets=2),
        ]
        service = ReconService(tmp_path / "state", shards=1)
        try:
            _serve(service, *specs)
        finally:
            service.close()
        assert model_builds() == [os.getpid()] * 2
        assert len(service.pool.models) == 2

    def test_evicted_scenario_rebuilds_into_identical_rows(
        self, tmp_path, model_builds, monkeypatch
    ):
        # A one-model bound: the second scenario evicts the first, so
        # the third job rebuilds the first scenario's model.
        monkeypatch.setattr(pool_mod, "MAX_SCENARIO_MODELS", 1)
        first = tiny_recon_spec(job_id="first", targets=(0, 1))
        other = tiny_recon_spec(job_id="other", seed=12, n_targets=2)
        again = tiny_recon_spec(job_id="again", targets=(0, 1))
        service = ReconService(tmp_path / "state", shards=1)
        try:
            _serve(service, first, other, again)
        finally:
            service.close()
        assert model_builds() == [os.getpid()] * 3
        assert len(service.pool.models) == 1
        serve_jobs([again], tmp_path / "fresh")
        assert _digests(tmp_path / "state", "again") == _digests(
            tmp_path / "fresh", "again"
        )
        store = CheckpointStore(tmp_path / "state")
        first_rows, again_rows = (
            {
                index: row["series"]
                for index, row in store.completed_sessions(job).items()
            }
            for job in ("first", "again")
        )
        assert first_rows and first_rows == again_rows

    @needs_fork
    def test_scenario_first_served_after_the_fork(self, tmp_path):
        first = tiny_recon_spec(job_id="first")
        second = tiny_recon_spec(job_id="second", seed=12, n_targets=2)
        pooled = ReconService(tmp_path / "pooled", shards=2)
        try:
            with hang_guard():
                _serve(pooled, first)
                assert pooled.pool.pooled  # the workers exist now
                _serve(pooled, second)
            assert pooled.pool.pooled
        finally:
            pooled.close()
        serve_jobs([second], tmp_path / "serial")
        assert _digests(tmp_path / "pooled", "second") == _digests(
            tmp_path / "serial", "second"
        )

        params = second.to_params()
        scenario = ConfigGenerator(params.config, seed=second.seed).sample()
        target = eligible_targets(scenario, second)[0]
        harness = ConfigHarness(
            replace(scenario, target_flow=int(target)),
            params,
            rng=np.random.default_rng([second.seed, 0]),
        )
        serial = harness.run_trials().accuracies
        row = CheckpointStore(tmp_path / "pooled").completed_sessions(
            "second"
        )[0]["series"]["session"]
        assert row["accuracies"] == {
            name: serial[name] for name in SESSION_ATTACKERS
        }


class TestSessionCounters:
    #: The two work counters a pooled service cannot hold: each process
    #: powers its own full chain.  Every other work counter is pinned on
    #: top of the outcome contract.
    CHAIN = ("kernel.sparse.matvecs", "kernel.power_chain.reuses")

    @needs_fork
    def test_metrics_match_serial(self, reference, tmp_path):
        spec, _, _, _ = reference
        documents = {}
        for shards in (1, 2):
            obs = Instrumentation()
            with use_instrumentation(obs), hang_guard():
                serve_jobs([spec], tmp_path / f"shards{shards}", shards=shards)
            documents[shards] = obs.metrics.to_document()
        compared = assert_outcome_counters_match(
            documents[1]["counters"], documents[2]["counters"]
        )
        assert compared["service.sessions.completed"] == spec.n_targets
        assert any(name.startswith("sim.table.") for name in compared)
        counters = {
            shards: {
                name: value
                for name, value in document["counters"].items()
                if name not in self.CHAIN
            }
            for shards, document in documents.items()
        }
        assert any(name.startswith("engine.") for name in counters[1])
        assert counters[2] == counters[1]
        # Histograms hold timings; their observation counts match.
        histograms = {
            shards: {
                name: histogram["count"]
                for name, histogram in document["histograms"].items()
            }
            for shards, document in documents.items()
        }
        assert histograms[1]["engine.score.batch_ms"] > 0
        assert histograms[2] == histograms[1]


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
