"""Per-layer spans recorded from outside the program.

The benchmark does not edit the program to trace it.  For the traced pass
it swaps each layer's entry point -- a module function or a class method
-- for a wrapper that records a span, and puts the originals back
afterwards.  A span records its name, start, end, parent span and the id
of the operation it belongs to; spans are kept in memory, written as
NDJSON at the end and reduced to self time (duration minus the time its
child spans cover).  Work done inside pool worker processes is not seen
by these wrappers: it shows up as the parent's wait in the span around
the pool call.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  Module-level functions imported
#: by name into other modules are patched under every alias.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.flows.config", "ConfigGenerator.sample", "flows.sample"),
    ("repro.core.compact_model", "CompactModel.__init__", "core.compact_model.init"),
    ("repro.core.transition_build", "build_entries", "core.transition_build.build_entries"),
    ("repro.core.compact_model", "CompactModel.transition_matrix", "core.compact_model.operator"),
    ("repro.core.compact_model", "CompactModel.transition_operator", "core.compact_model.operator"),
    ("repro.core.cnative", "pair_chain_f32", "core.cnative.pair_chain_f32"),
    ("repro.core.inference", "ReconInference.evolution", "core.inference.evolution"),
    ("repro.core.engine", "ProbeScoringEngine.best_single", "core.engine.best_single"),
    ("repro.experiments.fastscreen", "screen_candidate", "experiments.fastscreen.screen_candidate"),
    ("repro.experiments.harness", "ConfigHarness.__init__", "experiments.harness.ConfigHarness"),
    ("repro.experiments.screening", "paper_screen", "experiments.screening.paper_screen"),
    ("repro.experiments.trials", "run_trial", "experiments.trials.run_trial"),
    ("repro.simulator.network", "Network.__init__", "simulator.network.build"),
    ("repro.simulator.network", "Network.schedule_arrivals", "simulator.network.schedule_arrivals"),
    ("repro.simulator.events", "Simulator.run_until", "simulator.run_until"),
    ("repro.simulator.probing", "Prober.outcomes", "simulator.probing.outcomes"),
    ("repro.service.sessions", "plan_session", "service.plan_session"),
    ("repro.service.pool", "SessionPool.run_sessions", "service.pool.run_sessions"),
    ("repro.service.checkpoint", "CheckpointStore.record_job", "service.checkpoint.record_job"),
    ("repro.service.checkpoint", "CheckpointStore.write_session", "service.checkpoint.write_session"),
    ("repro.service.checkpoint", "CheckpointStore.write_result", "service.checkpoint.write_result"),
)

#: Modules that import a patched function by name.
ALIAS_MODULES = (
    "repro.experiments.harness",
    "repro.experiments.parallel",
    "repro.service.service",
)


class Recorder:
    """In-memory span store with an explicit stack for parent links."""

    def __init__(self) -> None:
        #: (span id, parent id, name, op id, start, end, self seconds)
        self.spans: List[Tuple[int, Optional[int], str, Optional[int], float, float, float]] = []
        #: Work counted at the span boundaries (entries built, events run, ...).
        self.counts: Dict[str, float] = {}
        self.op: Optional[int] = None
        self._stack: List[list] = []
        self._next_id = 0

    def set_op(self, op: int) -> None:
        self.op = op

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append([self._next_id, parent, name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, parent, name, start, child_s = self._stack.pop()
        if self._stack:
            self._stack[-1][4] += end - start
        self.spans.append((span_id, parent, name, self.op, start, end, end - start - child_s))

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, summed self seconds)."""
        totals: Dict[str, Tuple[int, float]] = {}
        for _, _, name, _, _, _, self_s in self.spans:
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + self_s)
        return totals

    def self_seconds(self) -> float:
        return sum(span[6] for span in self.spans)

    def write_ndjson(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, name, op, start, end, self_s in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "op": op,
                    "start_s": start, "end_s": end, "self_s": self_s,
                }) + "\n")


def _span_wrapper(recorder: Recorder, name: str, function: Callable) -> Callable:
    def traced(*args, **kwargs):
        recorder.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.exit()

    traced.__wrapped__ = function  # type: ignore[attr-defined]
    return traced


def _counting(recorder: Recorder, attr: str, function: Callable) -> Callable:
    """Boundary counts that the spans alone do not give."""
    if attr == "build_entries":
        def build_entries(model):
            entries = function(model)
            recorder.count("core.transition_build.build_entries.entries", len(entries[0]))
            return entries
        return build_entries
    if attr == "Simulator.run_until":
        def run_until(sim, *args, **kwargs):
            before = sim.events_run
            try:
                return function(sim, *args, **kwargs)
            finally:
                recorder.count("simulator.events", sim.events_run - before)
        return run_until
    if attr == "screen_candidate":
        def screen_candidate(*args, **kwargs):
            outcome = function(*args, **kwargs)
            recorder.count("experiments.fastscreen.certified_rejects", int(outcome.certified_reject))
            return outcome
        return screen_candidate
    return function


class LayerTracer:
    """Installs the span wrappers for the duration of a ``with`` block."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        #: Entry points the program no longer has.
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "LayerTracer":
        aliases = [importlib.import_module(name) for name in ALIAS_MODULES]
        for module_name, path, span_name in LAYER_ENTRY_POINTS:
            *classes, attr = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for class_name in classes:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                # Gone from the program: its time shows up in the calling
                # layer or in ``unattributed_s``.
                self.missing.append(f"{module_name}.{path}")
                continue
            traced = _span_wrapper(
                self.recorder, span_name, _counting(self.recorder, path, original)
            )
            self._patch(owner, attr, traced)
            if not classes:
                for module in aliases:
                    if module.__dict__.get(attr) is original:
                        self._patch(module, attr, traced)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
