"""End-to-end: a small experiment run under a recording backend.

One harness, a handful of table-mode trials.  Asserts the wiring across
layers: simulator counters, engine counters/histogram, harness spans
and their inclusive/self times, and that the exported artifacts are
valid and loadable.
"""

import pytest

from repro.core.compact_model import CompactModel
from repro.experiments.harness import ConfigHarness
from repro.experiments.params import ExperimentParams
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation
from repro.obs.trace import iter_spans, read_ndjson

N_TRIALS = 3


@pytest.fixture(scope="module")
def instrumented_run():
    obs = Instrumentation()
    with use_instrumentation(obs):
        harness = ConfigHarness.sample(
            ExperimentParams(n_trials=N_TRIALS, seed=11, trial_mode="table")
        )
        result = harness.run_trials()
    return obs, result


def test_counters_cover_every_layer(instrumented_run):
    obs, _ = instrumented_run
    counters = obs.metrics.to_document()["counters"]
    assert counters["experiment.harnesses_built"] == 1
    assert counters["experiment.trials"] == N_TRIALS
    assert counters["engine.sequences_scored"] > 0
    assert counters["engine.evolutions"] > 0
    assert counters["sim.table.hits"] + counters["sim.table.misses"] > 0
    assert 0 < counters["sim.table.installs"] <= counters["sim.table.misses"]


def test_engine_histogram_and_gauge(instrumented_run):
    obs, _ = instrumented_run
    document = obs.metrics.to_document()
    batch_ms = document["histograms"]["engine.score.batch_ms"]
    assert batch_ms["count"] > 0
    assert batch_ms["min"] >= 0.0
    # Scoring runs in process: the engine reports no pool gauge.
    gauges = document["gauges"]
    assert not [name for name in gauges if name.startswith("engine.")]


def test_phases_record_wall_and_cpu(instrumented_run):
    obs, _ = instrumented_run
    phases = obs.metrics_document()["phases"]
    # probe_selection fires once per attacker selection: eagerly for the
    # model attacker, lazily for the constrained attacker's first use.
    expected_counts = {
        "harness.model_build": 1,
        "harness.inference": 1,
        "harness.probe_selection": 2,
        "experiment.trial_batch": 1,
    }
    for name, count in expected_counts.items():
        assert phases[name]["count"] == count
    for name, phase in phases.items():
        assert set(phase) == {
            "count", "wall_s", "self_s", "cpu_s", "self_cpu_s",
        }
        assert phase["self_s"] >= 0.0, name
        assert phase["cpu_s"] >= 0.0, name


def test_self_times_sum_to_each_root(instrumented_run, tmp_path):
    obs, _ = instrumented_run
    records = read_ndjson(obs.write_trace(tmp_path / "run.ndjson"))
    children = {}
    for record in records:
        children.setdefault(record["parent_id"], []).append(record)

    def subtree_self(record):
        kids = children.get(record["span_id"], [])
        own = record["duration_s"] - sum(kid["duration_s"] for kid in kids)
        return own + sum(subtree_self(kid) for kid in kids)

    roots = children[None]
    assert roots
    for root in roots:
        assert subtree_self(root) == pytest.approx(
            root["duration_s"], rel=1e-9
        )
    # The metrics document's self column accounts for the same seconds.
    phases = obs.metrics_document()["phases"]
    assert sum(phase["self_s"] for phase in phases.values()) == pytest.approx(
        sum(root["duration_s"] for root in roots), rel=1e-9
    )
    for record in records:
        assert record["cpu_s"] >= 0.0


def test_spans_nest_trials_under_the_run(instrumented_run, tmp_path):
    obs, _ = instrumented_run
    records = read_ndjson(obs.write_trace(tmp_path / "run.ndjson"))
    trials = list(iter_spans(records, "experiment.trial"))
    assert len(trials) == N_TRIALS
    assert all(t["attrs"]["mode"] == "table" for t in trials)
    selects = list(iter_spans(records, "engine.select"))
    assert selects, "probe selection must be traced"
    assert list(iter_spans(records, "harness.model_build"))


def test_a_handed_over_model_opens_no_build_span():
    # The fast screen hands its CompactModel to the harness; only the
    # inference's exact chains are then timed.
    params = ExperimentParams(n_trials=N_TRIALS, seed=11, trial_mode="table")
    config = ConfigGenerator(params.config, seed=11).sample()
    model = CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )
    obs = Instrumentation()
    with use_instrumentation(obs):
        ConfigHarness(config, params, model=model)
    phases = obs.metrics_document()["phases"]
    assert "harness.model_build" not in phases
    assert phases["harness.inference"]["count"] == 1


def test_metrics_document_exports_valid_json(instrumented_run, tmp_path):
    import json

    obs, _ = instrumented_run
    path = obs.write_metrics(tmp_path / "metrics.json")
    document = json.loads(path.read_text())
    assert set(document) == {
        "schema_version", "counters", "gauges", "histograms", "phases",
    }


def test_instrumentation_does_not_change_results(instrumented_run):
    _, instrumented_result = instrumented_run
    bare = ConfigHarness.sample(
        ExperimentParams(n_trials=N_TRIALS, seed=11, trial_mode="table")
    ).run_trials()
    assert bare.accuracies == instrumented_result.accuracies
    assert bare.optimal_probe == instrumented_result.optimal_probe
