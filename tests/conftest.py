"""Shared fixtures and builders for the test suite.

Most tests run on deliberately tiny universes (2-4 flows, 2-3 rules,
short timeouts) so the exact recency enumeration and the basic model
stay tractable; a few integration tests use the full paper-scale
configuration and are kept to a handful.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np
import pytest

from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse
from repro.obs import Instrumentation, use_instrumentation


def make_universe(rates: Sequence[float], dst: int = 999) -> FlowUniverse:
    """A universe with one flow per rate, sources 0, 1, 2, ..."""
    flows = tuple(FlowId(src=i, dst=dst) for i in range(len(rates)))
    return FlowUniverse(flows, tuple(float(r) for r in rates))


def make_policy(
    rule_specs: Sequence[Tuple[Sequence[int], int]],
    base_priority: int = 100,
) -> Policy:
    """Build a policy from ``(covered flow indices, timeout_steps)`` specs.

    Rules are created in the given order, highest priority first.
    """
    rules = [
        ModelRule(
            index=rank,
            name=f"r{rank}",
            flows=frozenset(covered),
            timeout_steps=timeout,
            priority=base_priority - rank,
        )
        for rank, (covered, timeout) in enumerate(rule_specs)
    ]
    return Policy(rules)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_universe() -> FlowUniverse:
    """Three flows with distinct, moderate rates."""
    return make_universe([0.5, 1.0, 0.25])


@pytest.fixture
def tiny_policy() -> Policy:
    """The paper's Figure 3 structure: r0 ⊂ r1 overlap plus a disjoint r2.

    r0 covers {f0}; r1 covers {f0, f1} (overlapping, lower priority);
    r2 covers {f2}.
    """
    return make_policy([({0}, 5), ({0, 1}, 10), ({2}, 7)])


@pytest.fixture
def fig2c_policy() -> Policy:
    """The Figure 2c structure: r0 covers {f0, f1}, r1 covers {f0, f2}."""
    return make_policy([({0, 1}, 6), ({0, 2}, 6)])


@pytest.fixture
def paper_scale_config():
    """One full Section VI-A configuration (cached per session)."""
    from repro.flows.config import ConfigGenerator, ConfigParams

    generator = ConfigGenerator(ConfigParams(), seed=2017)
    return generator.sample()


@pytest.fixture
def obs():
    """A private recording backend installed for the whole test.

    Every count lives only in the metrics registry, so tests read them
    from here: ``obs.metrics.counter("sim.table.hits").value``.
    """
    backend = Instrumentation()
    with use_instrumentation(backend):
        yield backend
