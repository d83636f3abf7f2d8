"""Hypothesis property tests for match/rule algebra."""

from hypothesis import given
from hypothesis import strategies as st

from repro.flows.flowid import FlowId
from repro.flows.rules import Match, Rule

keys = st.integers(0, 0xFFFFFFFF)


@st.composite
def matches(draw):
    return Match(draw(keys), draw(keys))


class TestMatchAlgebra:
    @given(matches(), matches())
    def test_overlaps_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(matches())
    def test_overlaps_reflexive(self, a):
        assert a.overlaps(a)

    @given(matches(), matches(), keys)
    def test_common_key_implies_overlap(self, a, b, key):
        if a.matches(key) and b.matches(key):
            assert a.overlaps(b)

    @given(keys)
    def test_exact_matches_only_itself(self, value):
        match = Match.exact(value)
        assert match.matches(value)
        assert match.specificity() == 32

    @given(keys, st.integers(0, 32))
    def test_prefix_specificity(self, value, length):
        assert Match.prefix(value, length).specificity() == length


class TestRuleAlgebra:
    @given(keys, keys)
    def test_covers_implies_overlap_with_exact_rule(self, src, dst):
        flow = FlowId(src=src, dst=dst)
        exact = Rule(
            name="exact", src=Match.exact(src), dst=Match.exact(dst)
        )
        wide = Rule(name="wide")
        assert exact.covers(flow)
        assert wide.covers(flow)
        assert exact.overlaps(wide)

    @given(keys)
    def test_disjoint_exact_rules_never_overlap(self, src):
        a = Rule(name="a", src=Match.exact(src))
        b = Rule(name="b", src=Match.exact(src ^ 1))
        assert not a.overlaps(b)
        assert a.overlaps(a)
