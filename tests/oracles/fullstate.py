"""Oracle: the compact model over every subset of at most ``n`` rules.

The paper's state space (Section IV-B), before the model dropped the
states holding a rule that no flow installs.  Those states carry zero
mass from any start that can occur, so production's chain must be this
chain's principal submatrix on the live states;
tests/core/test_live_states_diff.py holds the two against each other.
"""

from __future__ import annotations

from typing import Any

from repro.core.compact_model import CompactModel
from repro.core.masks import enumerate_subsets


class FullStateCompactModel(CompactModel):
    """:class:`CompactModel` with all ``sum_{k<=n} C(|Rules|, k)`` states."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.states = enumerate_subsets(
            self.context.n_rules, self.context.cache_size
        )
        self.state_index = {
            state: index for index, state in enumerate(self.states)
        }
        self.n_states = len(self.states)
