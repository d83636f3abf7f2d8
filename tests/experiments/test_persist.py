"""Tests for experiment result persistence."""

import json
from pathlib import Path

import pytest

from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.params import VIABLE_FIG6_BINS
from repro.experiments.persist import (
    SCHEMA_VERSION,
    compare_headlines,
    load_document,
    migrate_document,
    result_document,
    save_result,
)
from repro.version import __version__

from tests.experiments.conftest import tiny_experiment_params, tiny_job_spec

#: One configuration per absence bin.
FIG6_SPEC = tiny_job_spec("fig6", n_configs=2, n_trials=6, seed=91)
FIG7_SPEC = tiny_job_spec("fig7", n_configs=3, n_trials=6, seed=92)


@pytest.fixture(scope="module")
def fig6_result():
    return run_fig6(FIG6_SPEC)


@pytest.fixture(scope="module")
def fig7_result():
    return run_fig7(FIG7_SPEC)


def fig6_document(result):
    return result_document(result, FIG6_SPEC)


def fig7_document(result):
    return result_document(result, FIG7_SPEC)


class TestDocuments:
    def test_fig6_document_is_json(self, fig6_result):
        document = fig6_document(fig6_result)
        text = json.dumps(document)  # must not raise
        assert '"artifact": "fig6"' in text
        assert document["headline"]["n_configs"] == 2.0

    def test_fig7_document_is_json(self, fig7_result):
        document = fig7_document(fig7_result)
        json.dumps(document)
        assert document["artifact"] == "fig7"
        assert set(document["summary"]) >= {"constrained", "naive", "random"}

    def test_config_rows_complete(self, fig6_result):
        document = fig6_document(fig6_result)
        for bucket in document["configurations"]:
            for row in bucket:
                assert {"prior_absent", "accuracies", "improvement"} <= set(
                    row
                )


class TestSaveLoad:
    def test_roundtrip(self, fig6_result, tmp_path):
        path = save_result(
            fig6_result, tmp_path / "out" / "fig6.json", FIG6_SPEC
        )
        assert path.exists()
        document = load_document(path)
        assert document["artifact"] == "fig6"
        assert document["bins"] == [list(b) for b in VIABLE_FIG6_BINS]

    def test_fig7_roundtrip(self, fig7_result, tmp_path):
        path = save_result(fig7_result, tmp_path / "fig7.json", FIG7_SPEC)
        assert load_document(path)["artifact"] == "fig7"

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_result(object(), tmp_path / "x.json", FIG6_SPEC)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_document(path)


class TestResultDocumentEnvelope:
    def test_documents_carry_the_versioned_envelope(self, fig6_result):
        document = fig6_document(fig6_result)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["metrics"] == document["headline"]
        assert set(document["series"]) == {
            "bins", "bin_centers", "accuracy_series", "improvement_cdf",
        }
        assert document["series"]["bins"] == document["bins"]
        assert document["provenance"]["repro_version"] == __version__
        assert "seed" in document["provenance"]
        assert "git_sha" in document["provenance"]

    def test_fig7_metrics_mirror_summary(self, fig7_result):
        document = fig7_document(fig7_result)
        assert document["metrics"] == document["summary"]
        assert "accuracy_by_covering_count" in document["series"]

    def test_spec_fills_job_params_and_provenance(self, fig6_result, tmp_path):
        path = save_result(fig6_result, tmp_path / "fig6.json", FIG6_SPEC)
        document = load_document(path)
        assert document["job"] == FIG6_SPEC.to_dict()
        assert document["params"]["n_trials"] == 6
        assert document["params"]["seed"] == 91
        assert document["provenance"]["seed"] == 91
        assert document["provenance"]["trial_jobs"] == 1
        assert document["provenance"]["pool_fallbacks"] == 0

    @pytest.mark.parametrize(
        "spec",
        [None, tiny_experiment_params(n_trials=6, seed=91)],
        ids=["none", "params"],
    )
    def test_writers_require_a_job_spec(self, fig6_result, tmp_path, spec):
        with pytest.raises(TypeError, match="expected a JobSpec"):
            result_document(fig6_result, spec)
        with pytest.raises(TypeError, match="expected a JobSpec"):
            save_result(fig6_result, tmp_path / "fig6.json", spec)
        with pytest.raises(TypeError):
            save_result(fig6_result, tmp_path / "fig6.json")
        assert not (tmp_path / "fig6.json").exists()


class TestMigration:
    def _legacy_v1(self, fig6_result):
        """A pre-envelope (v1) document as older releases wrote it."""
        document = fig6_document(fig6_result)
        for key in ("schema_version", "params", "metrics", "series",
                    "provenance"):
            del document[key]
        return document

    def test_v1_file_loads_and_is_upgraded(self, fig6_result, tmp_path):
        legacy = self._legacy_v1(fig6_result)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(legacy))
        document = load_document(path)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["metrics"] == legacy["headline"]
        assert document["series"]["bins"] == legacy["bins"]
        assert document["params"] is None
        assert document["provenance"]["seed"] is None
        # Legacy keys are untouched.
        assert document["headline"] == legacy["headline"]
        assert document["configurations"] == legacy["configurations"]

    def test_migration_does_not_rewrite_the_file(self, fig6_result, tmp_path):
        legacy = self._legacy_v1(fig6_result)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(legacy))
        load_document(path)
        assert json.loads(path.read_text()) == legacy

    def test_current_documents_pass_through_unchanged(self, fig6_result):
        document = fig6_document(fig6_result)
        assert migrate_document(document) is document

    def test_migrate_rejects_artifactless_dicts(self):
        with pytest.raises(ValueError, match="artifact"):
            migrate_document({"hello": 1})

    def test_compare_headlines_accepts_v1_and_v2(self, fig6_result):
        v2 = fig6_document(fig6_result)
        v1 = self._legacy_v1(fig6_result)
        rows = compare_headlines(v1, v2)
        assert rows
        for row in rows:
            assert row["delta"] == pytest.approx(0.0)


class TestV2FixtureMigration:
    """A committed schema-v2 file (written by the previous release)
    must upgrade in memory to v3 with a synthesized ``job`` section."""

    FIXTURE = Path(__file__).parent / "fixtures" / "result_v2.json"

    def test_fixture_is_still_v2_on_disk(self):
        raw = json.loads(self.FIXTURE.read_text())
        assert raw["schema_version"] == 2
        assert "job" not in raw

    def test_v2_file_upgrades_to_current_schema(self):
        document = load_document(self.FIXTURE)
        assert document["schema_version"] == SCHEMA_VERSION
        job = document["job"]
        # Migration swallows JobSpec errors into ``job: None``; the
        # legacy kernel key in the v2 params must not trip it.
        assert job is not None
        assert job["experiment"] == "fig6"
        assert job["seed"] == 12
        assert document["params"]["kernel"] == "auto"
        assert "kernel" not in job
        # The job section embeds the full legacy params verbatim.
        assert job["config"] == document["params"]["config"]
        assert job["n_trials"] == document["params"]["n_trials"]
        # The spec is loadable through the public API.
        from repro.apispec import JobSpec

        spec = JobSpec.from_dict(job)
        assert spec.experiment == "fig6"
        assert spec.to_params().seed == 12

    def test_v2_envelope_sections_survive_untouched(self):
        raw = json.loads(self.FIXTURE.read_text())
        document = load_document(self.FIXTURE)
        for key in ("metrics", "series", "params", "provenance",
                    "configurations", "headline"):
            assert document[key] == raw[key]

    def test_migration_does_not_rewrite_the_fixture(self):
        before = self.FIXTURE.read_text()
        load_document(self.FIXTURE)
        assert self.FIXTURE.read_text() == before


class TestV3DefendFixture:
    """The committed schema-v3 defend envelope (written by this
    release) loads verbatim: it is already the current schema, carries
    the defense/detector job fields, and round-trips through
    :class:`JobSpec` without loss."""

    FIXTURE = Path(__file__).parent / "fixtures" / "result_v3_defend.json"

    def test_fixture_is_current_schema_on_disk(self):
        raw = json.loads(self.FIXTURE.read_text())
        assert raw["schema_version"] == SCHEMA_VERSION
        assert raw["artifact"] == "defend"
        assert raw["job"]["defense"] == ["delay"]
        assert raw["job"]["detector"] == "logistic"
        assert raw["job"]["trial_mode"] == "network"

    def test_load_is_a_no_op_migration(self):
        raw = json.loads(self.FIXTURE.read_text())
        document = load_document(self.FIXTURE)
        assert document == raw
        assert self.FIXTURE.read_text() == json.dumps(
            raw, indent=2, sort_keys=True
        )

    def test_job_section_round_trips_through_jobspec(self):
        from repro.apispec import LEGACY_FIELDS, JobSpec

        job = load_document(self.FIXTURE)["job"]
        spec = JobSpec.from_dict(job)
        assert spec.experiment == "defend"
        assert spec.defense == ("delay",)
        assert spec.detector == "logistic"
        # Everything but the removed implementation selectors survives.
        assert set(job) - set(spec.to_dict()) == set(LEGACY_FIELDS)
        assert spec.to_dict() == {
            key: value for key, value in job.items()
            if key not in LEGACY_FIELDS
        }

    def test_series_carries_the_grid_axes(self):
        series = load_document(self.FIXTURE)["series"]
        assert series["defenses"] == ["delay"]
        assert series["detector_method"] == "logistic"
        assert len(series["baseline"]) == 1
        assert len(series["cells"]) == 1
        assert series["cells"][0]["defense"] == "delay"


class TestCompareHeadlines:
    def test_deltas(self, fig6_result):
        document = fig6_document(fig6_result)
        rows = compare_headlines(document, document)
        assert rows
        for row in rows:
            assert row["delta"] == pytest.approx(0.0)

    def test_requires_fig6(self, fig6_result, fig7_result):
        with pytest.raises(ValueError):
            compare_headlines(
                fig6_document(fig6_result), fig7_document(fig7_result)
            )
