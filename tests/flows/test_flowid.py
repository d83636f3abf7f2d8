"""Tests for flow identifiers and IPv4 helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.flows.flowid import (
    PROTO_ICMP,
    PROTO_TCP,
    FlowId,
    ip_to_str,
    str_to_ip,
)


class TestIpConversion:
    def test_str_to_ip_known_value(self):
        assert str_to_ip("10.0.1.5") == (10 << 24) | (1 << 8) | 5

    def test_ip_to_str_known_value(self):
        assert ip_to_str((10 << 24) | (1 << 8) | 5) == "10.0.1.5"

    def test_zero_address(self):
        assert str_to_ip("0.0.0.0") == 0
        assert ip_to_str(0) == "0.0.0.0"

    def test_broadcast_address(self):
        assert str_to_ip("255.255.255.255") == 0xFFFFFFFF
        assert ip_to_str(0xFFFFFFFF) == "255.255.255.255"

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "-1.0.0.0", "a.b.c.d"]
    )
    def test_str_to_ip_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            str_to_ip(bad)

    @pytest.mark.parametrize("bad", [-1, 1 << 32])
    def test_ip_to_str_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ip_to_str(bad)

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_roundtrip(self, value):
        assert str_to_ip(ip_to_str(value)) == value


class TestFlowId:
    def test_defaults_are_icmp_no_ports(self):
        flow = FlowId(src=1, dst=2)
        assert flow.proto == PROTO_ICMP
        assert flow.sport == 0
        assert flow.dport == 0

    def test_reversed_swaps_endpoints_and_ports(self):
        flow = FlowId(src=1, dst=2, proto=PROTO_TCP, sport=1000, dport=80)
        rev = flow.reversed()
        assert rev.src == 2 and rev.dst == 1
        assert rev.sport == 80 and rev.dport == 1000
        assert rev.proto == PROTO_TCP

    def test_reversed_is_involution(self):
        flow = FlowId(src=7, dst=9, sport=5, dport=6)
        assert flow.reversed().reversed() == flow

    def test_hashable_and_equal(self):
        a = FlowId(src=1, dst=2)
        b = FlowId(src=1, dst=2)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering_is_total(self):
        flows = [FlowId(src=s, dst=d) for s in (2, 1) for d in (4, 3)]
        ordered = sorted(flows)
        assert ordered[0] == FlowId(src=1, dst=3)
        assert ordered[-1] == FlowId(src=2, dst=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"src": -1, "dst": 0},
            {"src": 0, "dst": 1 << 32},
            {"src": 0, "dst": 0, "proto": 256},
            {"src": 0, "dst": 0, "sport": -1},
            {"src": 0, "dst": 0, "dport": 1 << 16},
        ],
    )
    def test_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            FlowId(**kwargs)

    def test_describe_without_ports(self):
        flow = FlowId(str_to_ip("10.0.1.2"), str_to_ip("10.0.1.16"))
        assert flow.describe() == "10.0.1.2 -> 10.0.1.16 (icmp)"

    def test_describe_with_ports(self):
        flow = FlowId(
            str_to_ip("10.0.1.2"),
            str_to_ip("10.0.1.16"),
            proto=PROTO_TCP,
            sport=1234,
            dport=80,
        )
        assert "10.0.1.2:1234" in flow.describe()
        assert "(tcp)" in flow.describe()
