"""Tests for the latency model."""

import copy
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.simulator.timing import (
    DEFAULT_THRESHOLD_SECONDS,
    NORMAL_BLOCK,
    PAPER_HIT_MEAN,
    PAPER_MISS_MEAN,
    LatencyModel,
    NormalBlock,
)

#: The six delay components: method name -> its mean field.
MEAN_FIELDS = {
    "link_delay": "link_mean",
    "lookup_delay": "lookup_mean",
    "host_reply_delay": "host_reply_mean",
    "control_link_delay": "control_link_mean",
    "controller_processing_delay": "controller_proc_mean",
    "flowmod_install_delay": "flowmod_install_mean",
}
COMPONENTS = tuple(MEAN_FIELDS)

MODELS = {
    "calibrated": LatencyModel.calibrated(),
    "noiseless": LatencyModel.noiseless(),
    "scaled": LatencyModel(
        **{
            field.name: 3.0 * getattr(LatencyModel.calibrated(), field.name)
            for field in fields(LatencyModel)
        }
    ),
}


@pytest.fixture
def model():
    return LatencyModel.calibrated()


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestSampling:
    def test_samples_positive(self, model, rng):
        for _ in range(200):
            assert model.link_delay(rng) > 0
            assert model.controller_processing_delay(rng) > 0

    def test_samples_clipped_at_tenth_of_mean(self, model, rng):
        samples = [model.controller_processing_delay(rng) for _ in range(2000)]
        assert min(samples) >= model.controller_proc_mean * 0.1

    def test_sample_mean_near_parameter(self, model):
        rng = np.random.default_rng(0)
        samples = [model.link_delay(rng) for _ in range(5000)]
        assert np.mean(samples) == pytest.approx(model.link_mean, rel=0.15)

    def test_noiseless_is_deterministic(self, rng):
        model = LatencyModel.noiseless()
        values = {model.controller_processing_delay(rng) for _ in range(10)}
        assert len(values) == 1


class TestDerivedQuantities:
    def test_setup_dwarfs_hit_path(self, model):
        # The side channel requires t_setup >> per-hop forwarding time:
        # packet-in up, processing, flow-mod down and install (the terms
        # the paper folds into t_setup, Section III-A).
        setup = (
            2 * model.control_link_mean
            + model.controller_proc_mean
            + model.flowmod_install_mean
        )
        assert setup > 20 * model.link_mean

    def test_threshold_separates_paper_means(self):
        assert PAPER_HIT_MEAN < DEFAULT_THRESHOLD_SECONDS < PAPER_MISS_MEAN


class TestBlockDraws:
    """A network's block-drawn latencies equal scalar ``rng.normal`` draws.

    numpy computes ``normal(loc, scale)`` as ``loc + scale *
    standard_normal()``; if a platform's numpy ever fused that into one
    rounding, these comparisons fail instead of fixtures drifting.
    """

    DRAWS = 200_000

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_block_draws_equal_scalar_draws_bit_for_bit(self, name):
        model = MODELS[name]
        normals = NormalBlock(np.random.default_rng(11))
        twin = np.random.default_rng(11)
        order = np.random.default_rng(5).integers(
            len(COMPONENTS), size=self.DRAWS
        )
        for step, index in enumerate(order.tolist()):
            component = COMPONENTS[index]
            if step % 2:
                # The delay as the simulator sees it (clipped).
                drawn = getattr(model, component)(normals)
                scalar = getattr(model, component)(twin)
            else:
                # The raw draw, below the clip too.
                mean = getattr(model, MEAN_FIELDS[component])
                std = getattr(model, MEAN_FIELDS[component][:-4] + "std")
                drawn = normals.normal(mean, std)
                scalar = float(twin.normal(mean, std))
            assert drawn == scalar, component
        # The block's generator is ahead of the twin by exactly the
        # unread rest of its block.
        twin.standard_normal(len(normals._block) - normals._cursor)
        assert normals.rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("component", COMPONENTS)
    def test_components_with_zero_mean_draw_nothing(self, component):
        model = replace(LatencyModel.calibrated(), **{MEAN_FIELDS[component]: 0.0})
        normals = NormalBlock(np.random.default_rng(2))
        state = normals.rng.bit_generator.state
        assert getattr(model, component)(normals) == 0.0
        assert normals._cursor == 0 and not normals._block
        assert normals.rng.bit_generator.state == state

    def test_fork_mid_block_continues_with_the_original_delays(self):
        model = LatencyModel.calibrated()
        normals = NormalBlock(np.random.default_rng(8))
        for _ in range(NORMAL_BLOCK + NORMAL_BLOCK // 3):
            model.link_delay(normals)
        assert 0 < normals._cursor < NORMAL_BLOCK
        fork = copy.deepcopy(normals)
        assert fork.rng is not normals.rng
        draws = 3 * NORMAL_BLOCK
        original = [
            getattr(model, COMPONENTS[i % 6])(normals) for i in range(draws)
        ]
        forked = [
            getattr(model, COMPONENTS[i % 6])(fork) for i in range(draws)
        ]
        assert forked == original
