"""The compact Markov model of the switch cache (Section IV-B).

The paper's states are the subsets of the policy's rules of size at most
the cache capacity ``n`` (``sum_{k=1..n} C(|Rules|, k)`` non-empty
states).  Only *installable* rules ever enter the cache -- a rule is
installed when it is the highest-priority cover of a flow that misses --
so the model enumerates the subsets of at most ``n`` installable rules,
the empty cache (the chain's natural start state) included.  This live
set is closed under every transition (arrivals and probes install
installable rules; evictions and expirations remove rules), so the
chain over it is the principal submatrix of the all-subsets chain and
every dropped state carries exactly zero mass from any live start.  A
rule that is never any flow's highest-priority cover -- shadowed for
every flow it covers -- removes every state holding it.  Of the paper's
2510 states at 12 rules and cache 6, half the pinned benchmark
candidates keep a third or fewer (tests/core/test_live_states_diff.py
holds the result against the all-subsets oracle, bit for bit).

Each step of duration ``Delta`` carries at most one flow arrival; the
per-flow/no-arrival probabilities come from the normalised Poisson
decomposition (:func:`repro.core.chain.per_flow_step_probabilities`).

Transition semantics per state ``S``:

* **arrival of flow f, hit** -- some cached rule covers ``f``; the set is
  unchanged (the matched rule's timer resets invisibly).
* **arrival of flow f, miss + install** -- no cached rule covers ``f``
  and the policy does; the controller installs the highest-priority
  covering rule ``j``.  If ``|S| = n`` one cached rule is evicted,
  split across the eviction distribution of the recency tables.
* **arrival of flow f, uncovered** -- the policy does not cover ``f``;
  the controller forwards without installing (set unchanged).
* **no arrival** -- set unchanged before expirations.

After the arrival phase, each cached rule that was not matched or
installed this step expires with its per-step timeout hazard from the
recency tables.  At most one expiration is modelled per step (matching
the paper's Figure 5 transitions), with the at-most-one branch
probabilities renormalised.  Eviction splits and hazards come from the
independence approximation of Eqns. 1-7, which
:func:`repro.core.transition_build.recency_tables` evaluates for every
state at once; the model memoises them (:meth:`CompactModel.recency_tables`)
for its chain and its probe matrices.

Every transition entry is tagged with the flow that caused it (or ``-1``
for the no-arrival event), so the target-excluded substochastic matrix
needed for ``P(X̂ = 0 ∧ Q_f = q)`` (Section V-A) is produced by dropping
exactly one flow's entries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core import transition_build
from repro.core.chain import (
    PowerChain,
    TransitionOperator,
    validate_stochastic,
)
from repro.core.context import ModelContext
from repro.core.masks import (
    indices_from_mask,
    iter_bits,
    subsets_within,
)
from repro.flows.policy import Policy
from repro.flows.universe import FlowUniverse
from repro.obs import get_instrumentation, sanitize

#: Flow tag used for the no-arrival event in transition entries.
NO_FLOW = -1


def run_starts(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal ``(row, col)`` pairs.

    ``rows`` and ``cols`` are non-empty and ``(row, col)``-sorted, as
    :meth:`CompactModel._sorted_entries` returns them; each run sums to
    one matrix entry.
    """
    boundary = np.empty(len(rows), dtype=bool)
    boundary[0] = True
    boundary[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return np.flatnonzero(boundary)


class CompactModel:
    """Compact chain over cached-rule sets.

    Parameters
    ----------
    policy, universe, delta, cache_size:
        The modelled switch: abstract rules with priorities and step
        timeouts, the flow universe with Poisson rates, the step duration
        ``Delta`` (seconds), and the cache capacity ``n``.  A policy
        of more than :data:`~repro.core.transition_build.MAX_LOOKUP_RULES`
        rules raises ``ValueError``.

    The state list is enumerated under a ``model.states`` span.
    Transition matrices are CSR, assembled from the entries of the
    vectorised builder (:func:`repro.core.transition_build.build_entries`).
    """

    def __init__(
        self,
        policy: Policy,
        universe: FlowUniverse,
        delta: float,
        cache_size: int,
    ) -> None:
        if len(policy) > transition_build.MAX_LOOKUP_RULES:
            raise ValueError(
                "the compact model supports at most "
                f"{transition_build.MAX_LOOKUP_RULES} rules "
                f"(policy has {len(policy)})"
            )
        self.context = ModelContext(policy, universe, delta, cache_size)

        #: Bitmask of the rules some flow installs (its highest-priority
        #: cover).  Every flow counts, zero-rate ones included, so probe
        #: matrices stay closed over the state list too.
        self.live_rules = 0
        for rule in self.context.install_rule:
            if rule is not None:
                self.live_rules |= 1 << rule
        with get_instrumentation().span("model.states") as span:
            self.states: List[int] = subsets_within(self.live_rules, cache_size)
            span.set_attr("states", len(self.states))
        self.state_index: Dict[int, int] = {
            state: index for index, state in enumerate(self.states)
        }
        self.n_states = len(self.states)

        self._entries_sorted: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self._recency: Optional[transition_build.RecencyTables] = None
        self._coverage_cache: Dict[int, np.ndarray] = {}
        self._probe_matrix_cache: Dict[int, sparse.csr_matrix] = {}
        self._membership_matrix: Optional[np.ndarray] = None
        self._state_popcounts: Optional[np.ndarray] = None
        self._matrix_cache: Dict[Tuple[int, ...], sparse.csr_matrix] = {}
        self._operator_cache: Dict[Tuple[int, ...], TransitionOperator] = {}
        self._chain_cache: Dict[Tuple[int, ...], PowerChain] = {}

    # ------------------------------------------------------------------
    # Public conveniences
    # ------------------------------------------------------------------
    @property
    def policy(self) -> Policy:
        """The underlying abstract policy."""
        return self.context.policy

    def index_of(self, state: int, role: str) -> int:
        """Index of the (bitmask) ``state``, or a ``ValueError``.

        Only subsets of the installable rules are states
        (:attr:`live_rules`); a mask holding any other rule names that
        rule in the error.  ``role`` describes the mask in the message.
        """
        index = self.state_index.get(state)
        if index is None:
            raise self.state_error(state, role)
        return index

    def state_error(self, state: int, role: str) -> ValueError:
        """The error for a mask that is not in the state list."""
        rules = indices_from_mask(state)
        dead = state & ~self.live_rules
        if dead:
            rule = next(iter_bits(dead))
            reason = (
                f"holds rule {rule} ({self.policy[rule].name}), which no "
                "flow installs, so no reachable cache state holds it"
            )
        elif len(rules) > self.context.cache_size:
            reason = f"exceeds the cache capacity {self.context.cache_size}"
        else:
            reason = "is not in the model's state list"
        return ValueError(
            f"{role} mask {state:#x} (rules {rules}) {reason}"
        )

    def state_rules(self, index: int) -> FrozenSet[int]:
        """Cached rule indices of the state at ``index``."""
        return frozenset(indices_from_mask(self.states[index]))

    # ------------------------------------------------------------------
    # Vectorised probe views (the probe-scoring engine's primitives)
    # ------------------------------------------------------------------
    def state_membership_matrix(self) -> np.ndarray:
        """0/1 matrix ``M[j, i] = 1`` iff rule ``j`` is cached in state ``i``.

        Built once by a single pass over the state list, then every
        state marginal (coverage vectors, rule-presence marginals) is a
        row reduction or matrix product over it instead of a pure-Python
        loop.  Frozen: the matrix is aliased to every caller (runtime
        complement of lint rule MUT001).
        """
        cached = self._membership_matrix
        if cached is None:
            states = np.asarray(self.states, dtype=np.int64)
            bits = np.arange(self.context.n_rules, dtype=np.int64)
            cached = ((states[None, :] >> bits[:, None]) & 1).astype(
                np.float64
            )
            cached.setflags(write=False)
            self._membership_matrix = cached
        if sanitize.is_active():
            sanitize.guard_array("compact.membership_matrix", cached)
        return cached

    def state_popcounts(self) -> np.ndarray:
        """Cached-rule count of every state, as a frozen int vector.

        The column sums of :meth:`state_membership_matrix` (0/1 values,
        so every sum is exact).
        """
        cached = self._state_popcounts
        if cached is None:
            cached = self.state_membership_matrix().sum(axis=0).astype(np.int64)
            cached.setflags(write=False)
            self._state_popcounts = cached
        if sanitize.is_active():
            sanitize.guard_array("compact.state_popcounts", cached)
        return cached

    def coverage_vector(self, flow: int) -> np.ndarray:
        """0/1 vector over states: 1 where a probe of ``flow`` hits."""
        flow = int(flow)
        cached = self._coverage_cache.get(flow)
        if cached is None:
            covering = self.context.covering[flow]
            if covering:
                membership = self.state_membership_matrix()
                cached = membership[list(covering)].max(axis=0)
            else:
                cached = np.zeros(self.n_states, dtype=np.float64)
            # Frozen: the cached vector is aliased to every caller
            # (runtime complement of lint rule MUT001).
            cached.setflags(write=False)
            self._coverage_cache[flow] = cached
        if sanitize.is_active():
            sanitize.guard_array(f"compact.coverage[{flow}]", cached)
        return cached

    def coverage_matrix(self, flows: Iterable[int]) -> np.ndarray:
        """Stacked coverage vectors, one row per flow."""
        return np.stack([self.coverage_vector(flow) for flow in flows])

    def recency_tables(self) -> transition_build.RecencyTables:
        """Timeout hazards and eviction splits of every state, memoised.

        Computed once per model by
        :func:`repro.core.transition_build.recency_tables`; the chain and
        every probe matrix read them.  Frozen: the arrays are aliased to
        every caller (runtime complement of lint rule MUT001).
        """
        tables = self._recency
        if tables is None:
            tables = transition_build.recency_tables(self)
            for array in tables:
                array.setflags(write=False)
            self._recency = tables
        if sanitize.is_active():
            sanitize.guard_array("compact.recency.hazard", tables.hazard)
            sanitize.guard_array(
                "compact.recency.evict_probs", tables.evict_probs
            )
        return tables

    def probe_matrix(self, flow: int) -> sparse.csr_matrix:
        """Row-stochastic matrix of a probe's cache perturbation.

        A probe is itself a flow, so row ``i`` spreads state ``i`` over
        the outcomes of one packet of ``flow`` there
        (:func:`repro.core.transition_build.packet_outcomes`): identity
        for hits and uncovered misses, the install/evict branching for
        misses the policy covers.
        """
        flow = int(flow)
        cached = self._probe_matrix_cache.get(flow)
        if cached is None:
            states = np.asarray(self.states, dtype=np.int64)
            rows, successors, _, probs = transition_build.branch_columns(
                transition_build.packet_outcomes(self, flow, states)
            )
            cols = transition_build.state_lookup(self, states)[successors]
            escaped = np.flatnonzero(cols < 0)
            if escaped.size:
                raise self.state_error(
                    int(successors[escaped[0]]), "probe successor"
                )
            cached = sparse.coo_matrix(
                (probs, (rows, cols)), shape=(self.n_states, self.n_states)
            ).tocsr()
            validate_stochastic(cached)
            # Frozen like the transition CSR buffers: the matrix is
            # aliased to every caller (runtime complement of MUT001).
            cached.data.setflags(write=False)
            cached.indices.setflags(write=False)
            cached.indptr.setflags(write=False)
            self._probe_matrix_cache[flow] = cached
        if sanitize.is_active():
            sanitize.guard_array(f"compact.probe[{flow}].data", cached.data)
        return cached

    # ------------------------------------------------------------------
    # Transition construction
    # ------------------------------------------------------------------
    def _sorted_entries(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The transition entries in stable (row, col) order, memoised.

        :func:`repro.core.transition_build.build_entries` returns them
        sorted; any tag-filtered subset of these arrays is still sorted,
        so every exclusion matrix assembles from them without its own
        sort pass.
        """
        if self._entries_sorted is None:
            sorted_entries = transition_build.build_entries(self)
            # Aliased to every caller (transition_matrix, the fast
            # screen's pair layout, reachability): read-only, like the
            # transition CSR buffers (runtime complement of MUT001).
            for array in sorted_entries:
                array.setflags(write=False)
            if sanitize.is_active():
                sanitize.guard_array(
                    "model.sorted_entries.probs", sorted_entries[2]
                )
            self._entries_sorted = sorted_entries
        return self._entries_sorted

    def _assemble_csr(
        self, rows: np.ndarray, cols: np.ndarray, probs: np.ndarray
    ) -> sparse.csr_matrix:  # repro: noqa[STO001]
        """Build a CSR matrix from (row, col)-sorted COO entries.

        Equivalent to ``coo_matrix(...).tocsr()`` -- consecutive
        duplicates are summed left to right -- minus the sort that
        conversion would redo for every exclusion set.

        Stochasticity is validated by the sole caller,
        ``transition_matrix``: only it knows the excluded flows' mass
        a substochastic matrix is expected to shed.
        """
        n = self.n_states
        if len(rows) == 0:
            return sparse.csr_matrix((n, n), dtype=np.float64)
        starts = run_starts(rows, cols)
        data = np.add.reduceat(probs, starts)
        indices = cols[starts].astype(np.int32, copy=False)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(
            np.bincount(rows[starts], minlength=n), out=indptr[1:],
            dtype=np.int32,
        )
        return sparse.csr_matrix(
            (data, indices, indptr), shape=(n, n)
        )

    @staticmethod
    def _exclusion_key(exclude_flows: Iterable[int]) -> Tuple[int, ...]:
        return tuple(sorted({int(flow) for flow in exclude_flows}))

    def transition_matrix(
        self, exclude_flows: Iterable[int] = ()
    ) -> sparse.csr_matrix:
        """The chain's transition matrix, optionally dropping flows.

        With ``exclude_flows`` empty the matrix is row-stochastic; with
        flows excluded it is substochastic (the dropped mass equals the
        per-step probability of an excluded flow arriving), implementing
        the Section V-A construction for ``P(X̂ = 0 ∧ ...)``.

        Returns a ``csr_matrix`` whose buffers are frozen, memoised per
        exclusion set and aliased to every caller.
        """
        key = self._exclusion_key(exclude_flows)
        cached = self._matrix_cache.get(key)
        if cached is not None:
            return cached
        rows, cols, probs, tags = self._sorted_entries()
        if key:
            if len(key) == 1:
                keep = tags != key[0]
            else:
                keep = ~np.isin(tags, key)
            rows, cols, probs = rows[keep], cols[keep], probs[keep]
        # Entries arrive (row, col)-sorted, so the CSR assembles without
        # a per-exclusion sort: duplicate (row, col) runs collapse via
        # reduceat and the structure comes straight from the run starts.
        # Sorting once per model (not once per exclusion set) is what
        # lets many-target callers -- the recon service above all --
        # re-exclude cheaply.
        matrix = self._assemble_csr(rows, cols, probs)
        matrix.data.setflags(write=False)
        matrix.indices.setflags(write=False)
        matrix.indptr.setflags(write=False)
        validate_stochastic(matrix, substochastic=bool(key))
        self._matrix_cache[key] = matrix
        if sanitize.is_active():
            sanitize.guard_array(f"compact.transition[{key}]", matrix.data)
        return matrix

    def transition_operator(
        self, exclude_flows: Iterable[int] = ()
    ) -> TransitionOperator:
        """Memoised one-step operator ``d -> d @ A`` per exclusion set.

        Hoists the sparse transpose out of repeated powering.
        """
        key = self._exclusion_key(exclude_flows)
        operator = self._operator_cache.get(key)
        if operator is None:
            operator = TransitionOperator(self.transition_matrix(key))
            self._operator_cache[key] = operator
        return operator

    def power_chain(self, exclude_flows: Iterable[int] = ()) -> PowerChain:
        """Memoised incremental power chain from the empty cache, per
        exclusion set.

        Shared across every inference fitted on this model, so
        re-windowing (fig6/fig7 sweeps, the window ablation) pays only
        the step delta instead of a full re-powering.
        """
        key = self._exclusion_key(exclude_flows)
        chain = self._chain_cache.get(key)
        if chain is None:
            chain = PowerChain(
                self.transition_operator(key), self.initial_distribution()
            )
            self._chain_cache[key] = chain
        return chain

    # ------------------------------------------------------------------
    # Distribution evolution
    # ------------------------------------------------------------------
    def initial_distribution(self) -> np.ndarray:
        """Point distribution at the empty cache (Section VI-A's start)."""
        from repro.core.chain import point_distribution

        return point_distribution(
            self.n_states, self.index_of(0, "start state")
        )

    def distribution_after(self, steps: int) -> np.ndarray:
        """``I_T = A^T I_0`` (Eqn. 8), row-vector convention.

        Goes through the memoised power chain, so repeated calls with
        growing ``steps`` pay only the delta; the result is always a
        fresh writable copy.
        """
        return np.array(self.power_chain().advance(steps))

    def rule_presence_marginals(self, distribution: np.ndarray) -> np.ndarray:
        """``P(rule_j in cache)`` for each rule, under a state distribution."""
        membership = self.state_membership_matrix()
        return membership @ np.asarray(distribution, dtype=np.float64)

    def occupancy_distribution(self, distribution: np.ndarray) -> np.ndarray:
        """Distribution of the number of cached rules.

        ``bincount`` accumulates the weights in state order, so the
        result is bit-identical to the original per-state loop.
        """
        return np.bincount(
            self.state_popcounts(),
            weights=np.asarray(distribution, dtype=np.float64),
            minlength=self.context.cache_size + 1,
        )
