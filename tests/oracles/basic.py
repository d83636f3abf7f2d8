"""Oracle: the basic Markov model of the switch cache (Section IV-A).

The paper's full-fidelity chain, kept as the ground truth the compact
model is checked against (``tests/core/test_basic_model.py``,
``test_exclusion_agreement.py``, ``test_model_agreement_sweep.py``);
production runs only the compact model.

A state is the complete cache contents: an ordered tuple of
``(rule, exp)`` pairs, most recently touched first, where ``exp`` is the
remaining time in steps.  Transitions follow the paper exactly:

* **Timeout (takes priority).** If any entry has ``exp = 0``, the single
  outgoing transition (probability 1) removes the deepest such entry and
  shifts later entries up.  No timers decrement on a timeout step.
* **Flow arrival, covering rule cached.** The matched rule (highest
  priority among cached covering rules) moves to the front with its
  timer reset to ``t_j`` (idle timeout) or decremented (hard timeout);
  all other timers decrement.
* **Flow arrival, no covering rule cached.** The highest-priority
  covering rule in the full policy is installed at the front with timer
  ``t_j``; if the cache was full, the entry with the smallest remaining
  time is evicted (ties broken toward the least recently touched entry);
  all other timers decrement.
* **No arrival** (including arrivals of flows the policy does not
  cover): all timers decrement.

Per-step event probabilities use the same normalised Poisson
decomposition as the compact model, and every transition is tagged with
the flow that caused it so the target-excluded substochastic dynamics of
Section V-A are available here too.

The state space is enormous (Section IV-A2 gives the closed form; see
:func:`repro.analysis.statecount.basic_state_count`), so the model never
materialises a matrix: distributions are evolved lazily as sparse
``{state: probability}`` dictionaries with optional pruning, and the
reachable state set can be enumerated breadth-first under a cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.chain import per_flow_step_probabilities, validate_stochastic
from repro.core.context import ModelContext
from repro.flows.policy import Policy
from repro.flows.universe import FlowUniverse

#: Flow tag for the no-arrival / uncovered-arrival event.
NO_FLOW = -1


@dataclass(frozen=True, order=True)
class CacheEntry:
    """One cache slot: rule index and remaining time in steps."""

    rule: int
    exp: int


#: A full cache state: entries front (most recent) to back.
BasicState = Tuple[CacheEntry, ...]

#: One outgoing transition: (next state, probability, causing flow tag).
Transition = Tuple[BasicState, float, int]


class BasicModel:
    """Full-fidelity chain over complete cache contents."""

    def __init__(
        self,
        policy: Policy,
        universe: FlowUniverse,
        delta: float,
        cache_size: int,
    ) -> None:
        self.context = ModelContext(policy, universe, delta, cache_size)
        self._transition_cache: Dict[BasicState, List[Transition]] = {}
        p_flows, p_none = per_flow_step_probabilities(
            np.asarray(self.context.step_rates)
        )
        self._p_flows = p_flows
        # Arrivals of flows the policy does not cover leave the cache set
        # unchanged but still consume a step; fold them into "no arrival".
        uncovered = sum(
            float(p_flows[f])
            for f in range(self.context.n_flows)
            if self.context.install_rule[f] is None
        )
        self._p_none = float(p_none) + uncovered

    # ------------------------------------------------------------------
    # Single-state transition function
    # ------------------------------------------------------------------
    @staticmethod
    def _decrement(entries: Iterable[CacheEntry]) -> Tuple[CacheEntry, ...]:
        return tuple(CacheEntry(e.rule, e.exp - 1) for e in entries)

    def _timeout_successor(self, state: BasicState) -> Optional[BasicState]:
        """The paper's timeout transition, or ``None`` if inapplicable."""
        expired_positions = [i for i, e in enumerate(state) if e.exp == 0]
        if not expired_positions:
            return None
        deepest = max(expired_positions)
        return state[:deepest] + state[deepest + 1 :]

    def _hit_successor(
        self, state: BasicState, position: int
    ) -> BasicState:
        """Matched cached rule at ``position`` moves to front, timer reset."""
        ctx = self.context
        entry = state[position]
        rule = ctx.policy[entry.rule]
        if rule.hard:
            front = CacheEntry(entry.rule, entry.exp - 1)
        else:
            front = CacheEntry(entry.rule, ctx.timeouts[entry.rule])
        before = self._decrement(state[:position])
        after = self._decrement(state[position + 1 :])
        return (front,) + before + after

    def _install_successor(
        self, state: BasicState, rule: int
    ) -> BasicState:
        """Install ``rule`` at the front, evicting if at capacity."""
        ctx = self.context
        entries = state
        if len(entries) >= ctx.cache_size:
            # Evict smallest remaining time; ties toward the deepest
            # (least recently touched) entry.
            victim = max(
                range(len(entries)),
                key=lambda i: (-entries[i].exp, i),
            )
            entries = entries[:victim] + entries[victim + 1 :]
        front = CacheEntry(rule, ctx.timeouts[rule])
        return (front,) + self._decrement(entries)

    def transitions(self, state: BasicState) -> List[Transition]:
        """All outgoing transitions of ``state`` (memoised)."""
        cached = self._transition_cache.get(state)
        if cached is not None:
            return cached

        ctx = self.context
        result: List[Transition] = []
        timeout_successor = self._timeout_successor(state)
        if timeout_successor is not None:
            # Timeout takes priority: it is the only transition.
            result.append((timeout_successor, 1.0, NO_FLOW))
        else:
            result.append((self._decrement(state), self._p_none, NO_FLOW))
            cached_mask = 0
            for entry in state:
                cached_mask |= 1 << entry.rule
            for flow in range(ctx.n_flows):
                p_flow = float(self._p_flows[flow])
                if p_flow <= 0.0:
                    continue
                install = ctx.install_rule[flow]
                if install is None:
                    continue  # folded into the no-arrival event
                matched = ctx.match_in_cache(flow, cached_mask)
                if matched is not None:
                    position = next(
                        i for i, e in enumerate(state) if e.rule == matched
                    )
                    successor = self._hit_successor(state, position)
                else:
                    successor = self._install_successor(state, install)
                result.append((successor, p_flow, flow))

        self._transition_cache[state] = result
        return result

    # ------------------------------------------------------------------
    # Target-excluded (substochastic) dynamics
    # ------------------------------------------------------------------
    def _excluded_probabilities(
        self, excluded: Iterable[int]
    ) -> Tuple[float, float]:
        """``(total arrival mass, uncovered arrival mass)`` of a flow set."""
        p_excluded = 0.0
        p_uncovered = 0.0
        for flow in excluded:
            p_flow = float(self._p_flows[flow])
            p_excluded += p_flow
            if self.context.install_rule[flow] is None:
                p_uncovered += p_flow
        return p_excluded, p_uncovered

    def _transitions_excluding(
        self,
        state: BasicState,
        excluded: FrozenSet[int],
        p_excluded: float,
        p_uncovered: float,
    ) -> List[Transition]:
        """Outgoing transitions with the excluded flows' mass removed.

        Every step must shed exactly the per-step probability of an
        excluded flow arriving, so that the surviving mass after ``T``
        steps is ``(1 - sum p_f)^T`` -- the Section V-A joint
        ``P(no excluded flow occurred ∧ state)``, and the same quantity
        the compact model's tagged-entry construction yields.  Three
        cases per state:

        * covered excluded flows own tagged transitions: drop them;
        * uncovered excluded flows were folded into the no-arrival
          event at construction: subtract their mass from it;
        * timeout states have a single probability-1 transition carrying
          no arrival at all ("timeout takes priority"): scale it by the
          survival probability instead.
        """
        transitions = self.transitions(state)
        if not excluded or p_excluded <= 0.0:
            return transitions
        if self._timeout_successor(state) is not None:
            successor, prob, tag = transitions[0]
            return [(successor, prob * (1.0 - p_excluded), tag)]
        result: List[Transition] = []
        for successor, prob, tag in transitions:
            if tag in excluded:
                continue
            if tag == NO_FLOW and p_uncovered > 0.0:
                prob -= p_uncovered
                if prob <= 0.0:
                    continue
            result.append((successor, prob, tag))
        return result

    # ------------------------------------------------------------------
    # Distribution evolution
    # ------------------------------------------------------------------
    @staticmethod
    def initial_distribution() -> Dict[BasicState, float]:
        """All mass on the empty cache."""
        return {(): 1.0}

    def evolve(
        self,
        distribution: Dict[BasicState, float],
        steps: int,
        exclude_flows: Iterable[int] = (),
        prune: float = 1e-12,
    ) -> Dict[BasicState, float]:
        """Evolve a sparse distribution ``steps`` steps.

        ``exclude_flows`` drops transitions caused by those flows (the
        substochastic Section V-A dynamics); ``prune`` discards states
        whose mass falls below the threshold to bound the support size.
        """
        if steps < 0:
            raise ValueError("steps must be non-negative")
        excluded = frozenset(int(f) for f in exclude_flows)
        p_excluded, p_uncovered = self._excluded_probabilities(excluded)
        current = dict(distribution)
        for _ in range(steps):
            nxt: Dict[BasicState, float] = {}
            for state, mass in current.items():
                if mass <= prune:
                    continue
                for successor, prob, tag in self._transitions_excluding(
                    state, excluded, p_excluded, p_uncovered
                ):
                    weight = mass * prob
                    if weight <= 0.0:
                        continue
                    nxt[successor] = nxt.get(successor, 0.0) + weight
            current = nxt
        return current

    def distribution_after(
        self,
        steps: int,
        exclude_flows: Iterable[int] = (),
        prune: float = 1e-12,
    ) -> Dict[BasicState, float]:
        """Evolve from the empty cache for ``steps`` steps."""
        return self.evolve(
            self.initial_distribution(), steps, exclude_flows, prune
        )

    # ------------------------------------------------------------------
    # Projections and summaries
    # ------------------------------------------------------------------
    @staticmethod
    def state_rule_set(state: BasicState) -> FrozenSet[int]:
        """Project a full state to its cached-rule set (compact state)."""
        return frozenset(entry.rule for entry in state)

    def project_to_sets(
        self, distribution: Dict[BasicState, float]
    ) -> Dict[FrozenSet[int], float]:
        """Marginalise a basic distribution onto compact states."""
        projected: Dict[FrozenSet[int], float] = {}
        for state, mass in distribution.items():
            key = self.state_rule_set(state)
            projected[key] = projected.get(key, 0.0) + mass
        return projected

    def rule_presence_marginals(
        self, distribution: Dict[BasicState, float]
    ) -> np.ndarray:
        """``P(rule_j in cache)`` under a basic distribution."""
        marginals = np.zeros(self.context.n_rules)
        for state, mass in distribution.items():
            for entry in state:
                marginals[entry.rule] += mass
        return marginals

    def state_covers_flow(self, state: BasicState, flow: int) -> bool:
        """Whether a probe for ``flow`` would hit in ``state``."""
        mask = 0
        for entry in state:
            mask |= 1 << entry.rule
        return self.context.state_covers(flow, mask)

    # ------------------------------------------------------------------
    # Explicit matrix construction (tiny instances only)
    # ------------------------------------------------------------------
    def transition_matrix(
        self,
        start: Optional[BasicState] = None,
        max_states: int = 200_000,
        exclude_flows: Iterable[int] = (),
    ) -> Tuple[List[BasicState], sparse.csr_matrix]:
        """Sparse transition matrix over the reachable state space.

        Only feasible for small policies/timeouts (the Section IV-A2
        blow-up); raises like :meth:`enumerate_reachable` beyond
        ``max_states``.  Returns ``(states, csr_matrix)`` where row/
        column indices follow the returned state order.
        """
        states = self.enumerate_reachable(start=start, max_states=max_states)
        index = {state: i for i, state in enumerate(states)}
        excluded = frozenset(int(f) for f in exclude_flows)
        p_excluded, p_uncovered = self._excluded_probabilities(excluded)
        rows: List[int] = []
        cols: List[int] = []
        probs: List[float] = []
        for row, state in enumerate(states):
            for successor, prob, tag in self._transitions_excluding(
                state, excluded, p_excluded, p_uncovered
            ):
                if prob <= 0.0:
                    continue
                rows.append(row)
                cols.append(index[successor])
                probs.append(prob)
        matrix = sparse.coo_matrix(
            (probs, (rows, cols)), shape=(len(states), len(states))
        ).tocsr()
        # Same read-only discipline as the compact model's matrices: the
        # chain helpers accept sparse inputs without copying, so frozen
        # buffers turn accidental in-place writes into errors.
        matrix.data.setflags(write=False)
        matrix.indices.setflags(write=False)
        matrix.indptr.setflags(write=False)
        validate_stochastic(matrix, substochastic=bool(excluded))
        return states, matrix

    def stationary_rule_marginals(
        self, max_states: int = 200_000
    ) -> np.ndarray:
        """``P(rule_j cached)`` under the chain's stationary distribution."""
        from repro.core.chain import stationary_distribution

        states, matrix = self.transition_matrix(max_states=max_states)
        pi = stationary_distribution(matrix)
        marginals = np.zeros(self.context.n_rules)
        for weight, state in zip(pi, states):
            for entry in state:
                marginals[entry.rule] += weight
        return marginals

    # ------------------------------------------------------------------
    # Reachable state enumeration (for scalability studies)
    # ------------------------------------------------------------------
    def enumerate_reachable(
        self,
        start: Optional[BasicState] = None,
        max_states: int = 1_000_000,
    ) -> List[BasicState]:
        """Breadth-first reachable states from ``start`` (default empty).

        Raises ``RuntimeError`` when the frontier exceeds ``max_states``
        -- the expected outcome for realistic parameters, illustrating
        the Section IV-A2 blow-up that motivates the compact model.
        """
        from collections import deque

        start_state: BasicState = start if start is not None else ()
        seen = {start_state}
        order = [start_state]
        queue = deque([start_state])
        while queue:
            state = queue.popleft()
            for successor, prob, _ in self.transitions(state):
                if prob <= 0.0 or successor in seen:
                    continue
                seen.add(successor)
                order.append(successor)
                if len(order) > max_states:
                    raise RuntimeError(
                        f"reachable state count exceeds {max_states}"
                    )
                queue.append(successor)
        return order
