"""Tests for the Section VI-A configuration generator."""

import math

import pytest

from repro.flows.config import (
    ConfigGenerator,
    ConfigParams,
    NetworkConfiguration,
    enumerate_mask_rules,
)
from repro.flows.flowid import FlowId, str_to_ip


class TestEnumerateMaskRules:
    def test_81_rules_for_4_bits(self):
        assert len(enumerate_mask_rules(mask_bits=4)) == 81  # 3^4

    def test_counts_scale_as_powers_of_three(self):
        assert len(enumerate_mask_rules(mask_bits=0)) == 1
        assert len(enumerate_mask_rules(mask_bits=2)) == 9
        assert len(enumerate_mask_rules(mask_bits=3)) == 27

    def test_rules_distinct_as_matchers(self):
        rules = enumerate_mask_rules(mask_bits=4)
        signatures = {(r.src.value & r.src.mask, r.src.mask) for r in rules}
        assert len(signatures) == 81

    def test_every_host_covered_by_exact_rule(self):
        rules = enumerate_mask_rules(mask_bits=4)
        base = str_to_ip("10.0.1.0")
        server = str_to_ip("10.0.1.16")
        for host in range(16):
            flow = FlowId(src=base + host, dst=server)
            exact = [
                r for r in rules if r.covers(flow) and r.src.is_exact()
            ]
            assert len(exact) == 1

    def test_full_wildcard_rule_covers_all_hosts(self):
        rules = enumerate_mask_rules(mask_bits=4)
        base = str_to_ip("10.0.1.0")
        server = str_to_ip("10.0.1.16")
        widest = [
            r
            for r in rules
            if all(
                r.covers(FlowId(src=base + h, dst=server)) for h in range(16)
            )
        ]
        assert len(widest) == 1  # only the all-wildcard-low-bits rule

    def test_rules_do_not_cover_other_subnets(self):
        rules = enumerate_mask_rules(mask_bits=4)
        alien = FlowId(src=str_to_ip("10.0.2.1"), dst=str_to_ip("10.0.1.16"))
        assert not any(r.covers(alien) for r in rules)

    def test_rules_pin_destination(self):
        rules = enumerate_mask_rules(mask_bits=4)
        wrong_dst = FlowId(src=str_to_ip("10.0.1.1"), dst=str_to_ip("10.9.9.9"))
        assert not any(r.covers(wrong_dst) for r in rules)


class TestConfigParams:
    def test_defaults_match_paper(self):
        params = ConfigParams()
        assert params.n_flows == 16
        assert params.n_rules == 12
        assert params.cache_size == 6
        assert params.window_steps == math.ceil(15.0 / params.delta)

    def test_timeout_menu_spans_tenths(self):
        params = ConfigParams(delta=0.1)
        menu = params.timeout_steps_menu()
        assert menu == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]

    def test_flows_must_match_mask_bits(self):
        with pytest.raises(ValueError):
            ConfigParams(n_flows=8, mask_bits=4)

    def test_bad_absence_range(self):
        with pytest.raises(ValueError):
            ConfigParams(absence_range=(0.9, 0.1))


class TestConfigGenerator:
    @pytest.fixture(scope="class")
    def config(self):
        return ConfigGenerator(ConfigParams(), seed=7).sample()

    def test_rule_count(self, config):
        assert len(config.policy) == 12
        assert len(config.concrete_rules) == 12

    def test_priorities_distinct_descending(self, config):
        priorities = [rule.priority for rule in config.policy]
        assert priorities == sorted(priorities, reverse=True)
        assert len(set(priorities)) == 12

    def test_specificity_ordering(self, config):
        # More wildcarded rules never outrank strictly more specific ones.
        sizes = [len(rule.flows) for rule in config.policy]
        assert sizes == sorted(sizes)

    def test_timeouts_from_menu(self, config):
        allowed = set(config.params.timeout_steps_menu())
        for rule in config.policy:
            assert rule.timeout_steps in allowed

    def test_rates_in_range(self, config):
        for rate in config.universe.rates:
            assert 0.0 <= rate <= 1.0

    def test_target_covered(self, config):
        assert config.rules_covering_target()

    def test_abstract_and_concrete_agree(self, config):
        for model_rule in config.policy:
            concrete = next(
                r for r in config.concrete_rules if r.name == model_rule.name
            )
            covered = frozenset(
                i
                for i, flow in enumerate(config.universe.flows)
                if concrete.covers(flow)
            )
            assert covered == model_rule.flows

    def test_absence_range_respected(self):
        params = ConfigParams(absence_range=(0.5, 0.95))
        config = ConfigGenerator(params, seed=3).sample()
        assert 0.5 <= config.absence_probability() <= 0.95

    def test_impossible_range_raises(self):
        # Absence in (0.99999, 1.0) requires an essentially zero-rate
        # flow; with lambda >= 0.2 the range is unreachable.
        params = ConfigParams(
            absence_range=(0.999999, 1.0), lambda_low=0.2
        )
        generator = ConfigGenerator(params, seed=1)
        with pytest.raises(RuntimeError, match="could not sample"):
            generator.sample(max_attempts=5)

    def test_sample_many(self):
        generator = ConfigGenerator(ConfigParams(), seed=11)
        configs = [generator.sample() for _ in range(3)]
        assert len(configs) == 3
        targets = {c.target_flow for c in configs}
        rates = {c.universe.rates for c in configs}
        assert len(rates) == 3  # independent draws


class TestNetworkConfiguration:
    def test_absence_probability_formula(self):
        config = ConfigGenerator(ConfigParams(), seed=5).sample()
        rate = config.universe.rates[config.target_flow]
        expected = math.exp(-rate * config.window_steps * config.delta)
        assert config.absence_probability() == pytest.approx(expected)

    def test_window_seconds(self):
        config = ConfigGenerator(ConfigParams(), seed=5).sample()
        assert config.window_seconds == pytest.approx(
            config.window_steps * config.delta
        )

    def test_describe_mentions_target(self):
        config = ConfigGenerator(ConfigParams(), seed=5).sample()
        assert f"target flow #{config.target_flow}" in config.describe()
