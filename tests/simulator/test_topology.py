"""Tests for the topology builders."""

import networkx as nx
import pytest

from repro.simulator.topology import (
    BACKBONE_ROUTERS,
    ZONE_PREFIXES,
    linear_topology,
    stanford_backbone,
    validate_topology,
)


class TestStanfordBackbone:
    def test_sixteen_routers(self):
        assert stanford_backbone().number_of_nodes() == 16

    def test_connected(self):
        assert nx.is_connected(stanford_backbone())

    def test_two_backbone_fourteen_zone(self):
        graph = stanford_backbone()
        kinds = nx.get_node_attributes(graph, "kind")
        assert sum(1 for k in kinds.values() if k == "backbone") == 2
        assert sum(1 for k in kinds.values() if k == "zone") == 14

    def test_zone_routers_uplink_to_both_backbones(self):
        graph = stanford_backbone()
        kinds = nx.get_node_attributes(graph, "kind")
        zones = [node for node, kind in kinds.items() if kind == "zone"]
        assert len(zones) == 14
        for zone in zones:
            for core in BACKBONE_ROUTERS:
                assert graph.has_edge(zone, core)

    def test_zone_pairs_interconnected(self):
        graph = stanford_backbone()
        for prefix in ZONE_PREFIXES:
            assert graph.has_edge(f"{prefix}a", f"{prefix}b")

    def test_backbone_peering(self):
        assert stanford_backbone().has_edge("bbra", "bbrb")

    def test_diameter_small(self):
        # Any pair of routers is at most 2 backbone hops apart.
        assert nx.diameter(stanford_backbone()) <= 3

    def test_expected_edge_count(self):
        # 1 core link + 14 uplink pairs * 2 + 7 zone pair links.
        assert stanford_backbone().number_of_edges() == 1 + 28 + 7


class TestLinearTopology:
    def test_chain(self):
        graph = linear_topology(4)
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 3

    def test_single(self):
        graph = linear_topology(1)
        assert graph.number_of_nodes() == 1

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            linear_topology(0)


class TestValidateTopology:
    def test_accepts_connected(self):
        validate_topology(stanford_backbone())

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no nodes"):
            validate_topology(nx.Graph())

    def test_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_node("a")
        graph.add_node("b")
        with pytest.raises(ValueError, match="connected"):
            validate_topology(graph)
