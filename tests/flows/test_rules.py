"""Tests for value/mask matches, rules, and rule tables."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flows.flowid import PROTO_ICMP, PROTO_TCP, FlowId, str_to_ip
from repro.flows.rules import Match, Rule, RuleTable


class TestMatch:
    def test_any_matches_everything(self):
        assert Match.ANY.matches(0)
        assert Match.ANY.matches(0xFFFFFFFF)
        assert Match.ANY.is_wildcard()

    def test_exact_matches_only_value(self):
        match = Match.exact(42)
        assert match.matches(42)
        assert not match.matches(43)
        assert match.is_exact()

    def test_prefix_match(self):
        match = Match.prefix(str_to_ip("10.0.1.0"), 24)
        assert match.matches(str_to_ip("10.0.1.200"))
        assert not match.matches(str_to_ip("10.0.2.1"))

    def test_prefix_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Match.prefix(0, 33)

    def test_arbitrary_mask_non_contiguous(self):
        # Pin bit 0 to 1, wildcard bit 1: matches x1 patterns.
        match = Match(value=0b01, mask=0xFFFFFFFD)
        assert match.matches(0b01)
        assert match.matches(0b11)
        assert not match.matches(0b00)
        assert not match.matches(0b10)

    def test_specificity_counts_pinned_bits(self):
        assert Match.ANY.specificity() == 0
        assert Match.exact(0).specificity() == 32
        assert Match(0, 0xFFFFFFF0).specificity() == 28

    def test_overlaps_symmetric(self):
        a = Match(0b00, 0xFFFFFFFE)  # {0, 1}
        b = Match(0b01, 0xFFFFFFFD)  # {1, 3}
        assert a.overlaps(b)
        assert b.overlaps(a)

    def test_no_overlap(self):
        a = Match.exact(1)
        b = Match.exact(2)
        assert not a.overlaps(b)

    def test_subsumes_implies_overlaps(self):
        wide = Match(0, 0xFFFFFFFE)  # {0, 1}
        narrow = Match.exact(1)  # a subset of wide
        assert wide.overlaps(narrow)
        assert narrow.overlaps(wide)

    def test_describe_ip_forms(self):
        assert Match.ANY.describe_ip() == "*"
        assert Match.exact(str_to_ip("1.2.3.4")).describe_ip() == "1.2.3.4"
        assert "/" in Match.prefix(0, 24).describe_ip()

    @given(
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFFFFFF),
        st.integers(0, 0xFFFFFFFF),
    )
    def test_matches_definition(self, value, mask, key):
        match = Match(value, mask)
        assert match.matches(key) == ((key & mask) == (value & mask))


def _rule(name="r", priority=10, src=Match.ANY, proto=None, **kwargs):
    return Rule(name=name, src=src, priority=priority, proto=proto, **kwargs)


class TestRule:
    def test_covers_checks_all_fields(self):
        rule = Rule(
            name="r",
            src=Match.exact(1),
            dst=Match.exact(2),
            proto=PROTO_ICMP,
        )
        assert rule.covers(FlowId(src=1, dst=2, proto=PROTO_ICMP))
        assert not rule.covers(FlowId(src=1, dst=3, proto=PROTO_ICMP))
        assert not rule.covers(FlowId(src=1, dst=2, proto=PROTO_TCP))

    def test_proto_none_is_wildcard(self):
        rule = _rule()
        assert rule.covers(FlowId(src=0, dst=0, proto=PROTO_ICMP))
        assert rule.covers(FlowId(src=0, dst=0, proto=PROTO_TCP))

    def test_overlaps_requires_all_fields(self):
        a = Rule(name="a", src=Match.exact(1), proto=PROTO_ICMP)
        b = Rule(name="b", src=Match.exact(1), proto=PROTO_TCP)
        assert not a.overlaps(b)
        c = Rule(name="c", src=Match.ANY, proto=PROTO_ICMP)
        assert a.overlaps(c)

    def test_permanent_detection(self):
        assert _rule().is_permanent()
        assert not _rule(idle_timeout=1.0).is_permanent()
        assert not _rule(hard_timeout=1.0).is_permanent()

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            _rule(idle_timeout=-1.0)

    def test_describe_mentions_priority_and_timeouts(self):
        text = _rule(name="xyz", priority=7, idle_timeout=2.0).describe()
        assert "xyz" in text
        assert "prio=7" in text
        assert "idle=2s" in text


class TestRuleTable:
    def test_sorted_by_priority_descending(self):
        table = RuleTable(
            [_rule("low", 1), _rule("high", 9, src=Match.exact(5))]
        )
        assert [r.name for r in table.rules] == ["high", "low"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RuleTable([_rule("same", 1), _rule("same", 2)])

    def test_overlapping_same_priority_rejected(self):
        with pytest.raises(ValueError, match="distinct priorities"):
            RuleTable([_rule("a", 5), _rule("b", 5)])

    def test_disjoint_same_priority_allowed(self):
        table = RuleTable(
            [
                _rule("a", 5, src=Match.exact(1)),
                _rule("b", 5, src=Match.exact(2)),
            ]
        )
        assert len(table) == 2

    def test_highest_covering_respects_priority(self):
        specific = Rule(name="specific", src=Match.exact(1), priority=10)
        broad = Rule(name="broad", src=Match.ANY, priority=1)
        table = RuleTable([broad, specific])
        assert table.highest_covering(FlowId(src=1, dst=0)).name == "specific"
        assert table.highest_covering(FlowId(src=2, dst=0)).name == "broad"

    def test_highest_covering_none(self):
        table = RuleTable([Rule(name="only", src=Match.exact(1), priority=1)])
        assert table.highest_covering(FlowId(src=9, dst=0)) is None

    def test_covering_returns_all_in_priority_order(self):
        specific = Rule(name="specific", src=Match.exact(1), priority=10)
        broad = Rule(name="broad", src=Match.ANY, priority=1)
        table = RuleTable([broad, specific])
        names = [r.name for r in table.covering(FlowId(src=1, dst=0))]
        assert names == ["specific", "broad"]

    def test_contains_and_iter(self):
        rule = _rule("x", 1)
        table = RuleTable([rule])
        assert rule in table
        assert list(table) == [rule]
