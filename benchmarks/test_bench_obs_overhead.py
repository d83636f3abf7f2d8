"""The null observability backend must be ~free on the scoring path.

The engine resolves its instruments once at construction, so with the
default :data:`repro.obs.NULL` backend each of its events costs a
single no-op method call (``NullCounter.inc``).  The inference resolves
its counters from the current backend at every event
(``counter_inc``: a module-global read, the null registry's
``counter()`` and the no-op ``inc``), because an inference can outlive
the process that built it.  Enabled-only work (the per-batch
histogram) is gated on ``Instrumentation.enabled``.  These benchmarks
pin that discipline:

* the measured per-call costs, multiplied by the number of
  instrumentation events of each kind a full exhaustive 2-probe
  selection emits, must stay under 5% of the selection's wall time;
* recording instrumentation must not change what the engine computes
  (same probes, same gain, bitwise).

The event counts are taken from a *recording* run of the same selection
(each scored prefix emits a fixed number of engine increments and
scores at least one block, so ``engine.batches`` bounds the prefixes
from above; the ``engine.evolutions`` and ``engine.cache.*`` counters
count the inference's increments one for one), so the bound tracks the
code as it evolves rather than a hand-maintained constant.
"""

from __future__ import annotations

import time

import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_probe_set
from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse
from repro.obs import Instrumentation, counter_inc, use_instrumentation
from repro.obs.metrics import _NULL_COUNTER

N_FLOWS = 10
CACHE_SIZE = 4
TARGET = 0
WINDOW_STEPS = 40
DELTA = 0.1

RULE_SPECS = [
    ({0, 1}, 12),
    ({1, 2}, 9),
    ({3, 4}, 15),
    ({4, 5}, 10),
    ({6, 7}, 8),
    ({7, 8}, 14),
    ({9}, 11),
    ({0, 9}, 7),
]

RATES = [0.6, 1.1, 0.4, 0.9, 0.5, 1.3, 0.7, 0.3, 1.0, 0.8]

#: Counter increments per scored prefix on the null path
#: (``engine.sequences_scored`` + ``engine.batches``, once each per
#: ``ProbeScoringEngine._score`` call).
_OBS_CALLS_PER_BATCH = 2

#: The counters the inference bumps through ``counter_inc``, one
#: increment per event.
_INFERENCE_COUNTERS = (
    "engine.evolutions",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.prefix_extensions",
)


@pytest.fixture(scope="module")
def model():
    flows = tuple(FlowId(src=i, dst=999) for i in range(N_FLOWS))
    universe = FlowUniverse(flows, tuple(RATES))
    rules = [
        ModelRule(
            index=rank,
            name=f"r{rank}",
            flows=frozenset(covered),
            timeout_steps=timeout,
            priority=100 - rank,
        )
        for rank, (covered, timeout) in enumerate(RULE_SPECS)
    ]
    return CompactModel(Policy(rules), universe, DELTA, CACHE_SIZE)


def _fresh_inference(model):
    return ReconInference(model, TARGET, WINDOW_STEPS)


def _best_call_cost(call, iterations=200_000):
    """Best-of-3 per-call cost of ``call()``."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iterations):
            call()
        best = min(best, time.perf_counter() - start)
    return best / iterations


def _noop_call_cost():
    """Per-call cost of the shared null counter's ``inc``."""
    return _best_call_cost(_NULL_COUNTER.inc)


def _ambient_call_cost():
    """Per-call cost of ``counter_inc`` on the null backend."""
    return _best_call_cost(lambda: counter_inc("engine.cache.hits"))


def test_bench_selection_null_backend(benchmark, model):
    """Headline scoring benchmark under the default null backend."""

    def run():
        return best_probe_set(_fresh_inference(model), 2)

    choice = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(choice.probes) == 2


def test_null_backend_overhead_under_5_percent(model):
    """No-op instrumentation events cost <5% of a selection's wall time."""
    # Recording run: counts the events and warms every cache-free path.
    obs = Instrumentation()
    with use_instrumentation(obs):
        recorded = best_probe_set(_fresh_inference(model), 2)
    n_batches = obs.metrics.counter("engine.batches").value
    assert n_batches > 0
    n_obs_calls = _OBS_CALLS_PER_BATCH * n_batches
    n_ambient_calls = sum(
        obs.metrics.counter(name).value for name in _INFERENCE_COUNTERS
    )
    assert n_ambient_calls > 0

    # Timed run under the default null backend (best of 3).
    null_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        null_choice = best_probe_set(_fresh_inference(model), 2)
        null_best = min(null_best, time.perf_counter() - start)

    obs_cost = (
        n_obs_calls * _noop_call_cost()
        + n_ambient_calls * _ambient_call_cost()
    )
    assert obs_cost < 0.05 * null_best, (
        f"{n_obs_calls + n_ambient_calls} null-backend events cost "
        f"{obs_cost * 1e3:.3f}ms, >5% of the {null_best * 1e3:.1f}ms selection"
    )

    # Instrumentation must be observation-only: identical selection.
    assert null_choice.probes == recorded.probes
    assert null_choice.gain == recorded.gain


def test_disabled_sanitizer_overhead_not_measurable(model):
    """With the sanitizer off, its hooks must not tax the hot path.

    Every sanitizer hook is one gated call (``sanitize.is_active()``,
    a module-global read).  Hooks fire on cache *construction* paths
    (evolutions, prefix extensions, coverage/probe-matrix builds), so
    the same cost model as the null-backend test applies: measured
    per-gate cost times the number of cache events in a full selection
    must stay under 5% of the selection's wall time.
    """
    from repro.obs import sanitize

    assert not sanitize.is_active()

    # Count the gated cache events a full selection performs.
    obs = Instrumentation()
    with use_instrumentation(obs):
        best_probe_set(_fresh_inference(model), 2)
    counter = obs.metrics.counter
    n_hook_calls = (
        counter("engine.evolutions").value
        + counter("engine.cache.misses").value
        + counter("engine.cache.prefix_extensions").value
        # coverage + probe-matrix builds: one pair per distinct flow.
        + 2 * N_FLOWS
    )
    assert n_hook_calls > 0

    # Best-of-3 per-call cost of the disabled gate.
    is_active = sanitize.is_active
    iterations = 200_000
    gate_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(iterations):
            is_active()
        gate_best = min(gate_best, time.perf_counter() - start)
    gate_cost = gate_best / iterations

    selection_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        best_probe_set(_fresh_inference(model), 2)
        selection_best = min(selection_best, time.perf_counter() - start)

    hook_cost = n_hook_calls * gate_cost
    assert hook_cost < 0.05 * selection_best, (
        f"{n_hook_calls} disabled sanitizer gates cost "
        f"{hook_cost * 1e3:.3f}ms, >5% of the "
        f"{selection_best * 1e3:.1f}ms selection"
    )
