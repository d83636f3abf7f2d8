"""Runtime determinism sanitizer: the two bug classes it must catch.

The static project rules reason about the AST; these tests pin the
runtime net underneath them -- a frozen cache array that gets thawed or
mutated is caught at the next observability boundary, and an unseeded
``default_rng()`` is refused outright while the sanitizer is active.
The last class checks the integration: ``Instrumentation`` span/phase
exits run a checkpoint only when a sanitizer is installed.
"""

import numpy as np
import pytest

from repro.obs import Instrumentation, use_instrumentation
from repro.obs.sanitize import (
    DeterminismError,
    Sanitizer,
    enabled_by_env,
    is_active,
    sanitized,
)


def frozen(values):
    array = np.asarray(values, dtype=np.float64)
    array.setflags(write=False)
    return array


class TestArrayGuards:
    def test_writeable_array_rejected_at_registration(self):
        sanitizer = Sanitizer()
        with pytest.raises(DeterminismError, match="writeable"):
            sanitizer.guard_array("cache.dist", np.zeros(4))

    def test_thawed_array_caught_at_boundary(self):
        sanitizer = Sanitizer()
        array = frozen([1.0, 2.0])
        sanitizer.guard_array("cache.dist", array)
        array.setflags(write=True)
        with pytest.raises(DeterminismError, match="thawed"):
            sanitizer.checkpoint("phase:attack")

    def test_checksum_drift_caught_at_boundary(self):
        sanitizer = Sanitizer()
        array = np.asarray([1.0, 2.0])
        view = array[:]
        view.setflags(write=False)
        sanitizer.guard_array("cache.dist", view)
        # Mutate through the still-writeable base: the flag check alone
        # cannot see this, the checksum must.
        array[0] = 9.0
        with pytest.raises(DeterminismError, match="checksum"):
            sanitizer.checkpoint("phase:attack")

    def test_reregistering_same_object_is_idempotent(self):
        sanitizer = Sanitizer()
        array = frozen([1.0])
        sanitizer.guard_array("cache.dist", array)
        sanitizer.guard_array("cache.dist", array)
        sanitizer.checkpoint("ok")
        assert len(sanitizer.checkpoints) == 1


class TestRngGuards:
    def test_unseeded_default_rng_refused_while_active(self):
        with sanitized():
            with pytest.raises(DeterminismError, match="without a seed"):
                np.random.default_rng()
            # Seeded construction stays allowed.
            generator = np.random.default_rng(7)
            assert generator.integers(10) < 10

    def test_default_rng_restored_after_exit(self):
        original = np.random.default_rng
        with sanitized():
            assert np.random.default_rng is not original
        assert np.random.default_rng is original
        np.random.default_rng()  # unseeded is fine again

    def test_restored_even_when_body_raises(self):
        original = np.random.default_rng
        with pytest.raises(RuntimeError):
            with sanitized():
                raise RuntimeError("boom")
        assert np.random.default_rng is original
        assert not is_active()

    def test_checkpoints_record_generator_state_hashes(self):
        with sanitized() as sanitizer:
            generator = np.random.default_rng(3)
            sanitizer.guard_rng("network.rng", generator)
            sanitizer.checkpoint("before")
            generator.random(8)
            sanitizer.checkpoint("after")
        before, after = sanitizer.checkpoints[:2]
        assert before["rng_state"]["network.rng"] != (
            after["rng_state"]["network.rng"]
        )

    def test_same_seed_runs_hash_identically(self):
        def states():
            with sanitized() as sanitizer:
                generator = np.random.default_rng(3)
                sanitizer.guard_rng("rng", generator)
                generator.random(8)
                sanitizer.checkpoint("end")
            return [c["rng_state"]["rng"] for c in sanitizer.checkpoints]

        assert states() == states()


class TestActivation:
    def test_inactive_by_default(self):
        assert not is_active()

    def test_nested_activation_reuses_outer(self):
        with sanitized() as outer:
            with sanitized() as inner:
                assert inner is outer
            # Inner exit must not deactivate the outer activation.
            assert is_active()
        assert not is_active()

    def test_exit_runs_a_final_checkpoint(self):
        with sanitized() as sanitizer:
            pass
        assert sanitizer.checkpoints[-1]["label"] == "sanitize.exit"

    @pytest.mark.parametrize(
        "value,expected",
        [("1", True), ("true", True), ("YES", True), ("on", True),
         ("0", False), ("", False), ("no", False)],
    )
    def test_enabled_by_env(self, value, expected, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert enabled_by_env() is expected

    def test_report_lists_guards(self):
        with sanitized() as sanitizer:
            sanitizer.guard_array("cache.dist", frozen([1.0]))
            sanitizer.guard_rng("rng", np.random.default_rng(1))
        report = sanitizer.report()
        assert report["guarded_arrays"] == ["cache.dist"]
        assert report["guarded_rngs"] == ["rng"]
        assert report["checkpoints"]


class TestObsBoundaryIntegration:
    def test_span_exit_checkpoints_when_active(self):
        obs = Instrumentation()
        with sanitized() as sanitizer:
            with use_instrumentation(obs):
                with obs.span("probe"):
                    with obs.span("attack"):
                        pass
        labels = [c["label"] for c in sanitizer.checkpoints]
        assert labels.index("span:attack") < labels.index("span:probe")

    def test_corruption_surfaces_at_span_exit(self):
        obs = Instrumentation()
        array = frozen([1.0, 2.0])
        with sanitized() as sanitizer:
            sanitizer.guard_array("cache.dist", array)
            with use_instrumentation(obs):
                with pytest.raises(DeterminismError, match="thawed"):
                    with obs.span("probe"):
                        array.setflags(write=True)
            array.setflags(write=False)  # let the exit checkpoint pass

    def test_spans_do_not_checkpoint_when_inactive(self):
        obs = Instrumentation()
        with use_instrumentation(obs):
            with obs.span("probe") as span:
                pass
        # Without a sanitizer the span object is the plain tracer span.
        assert type(span).__name__ != "_SanitizedBoundary"
