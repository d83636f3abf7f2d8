"""The Stanford backbone topology (the paper's Mininet substrate).

The paper builds its Mininet network from the publicly released Stanford
University backbone configurations [13]: 16 routers -- two backbone
routers (``bbra``, ``bbrb``) and fourteen zone routers in seven
redundant pairs (``boza/bozb``, ``coza/cozb``, ``goza/gozb``,
``poza/pozb``, ``roza/rozb``, ``soza/sozb``, ``yoza/yozb``).  Each zone
router uplinks to both backbone routers, paired zone routers
interconnect, and the two backbone routers peer with each other.  This
module reconstructs that graph shape; exact link metrics from the
original configurations are not needed because the paper uses the
topology only as realistic plumbing (all monitored hosts share one
switch, the server sits behind another).
"""

from __future__ import annotations

from typing import Tuple

import networkx as nx

#: Backbone (core) router names.
BACKBONE_ROUTERS: Tuple[str, str] = ("bbra", "bbrb")

#: Zone router pairs (a/b redundancy per zone).
ZONE_PREFIXES: Tuple[str, ...] = ("boz", "coz", "goz", "poz", "roz", "soz", "yoz")


def stanford_backbone() -> nx.Graph:
    """The 16-router Stanford backbone graph.

    Nodes carry a ``kind`` attribute (``"backbone"`` or ``"zone"``);
    edges carry nothing (latency comes from the network's
    :class:`~repro.simulator.timing.LatencyModel`).
    """
    graph = nx.Graph()
    bbra, bbrb = BACKBONE_ROUTERS
    graph.add_node(bbra, kind="backbone")
    graph.add_node(bbrb, kind="backbone")
    graph.add_edge(bbra, bbrb)
    for prefix in ZONE_PREFIXES:
        a, b = f"{prefix}a", f"{prefix}b"
        graph.add_node(a, kind="zone")
        graph.add_node(b, kind="zone")
        graph.add_edge(a, b)
        for core in BACKBONE_ROUTERS:
            graph.add_edge(a, core)
            graph.add_edge(b, core)
    return graph


def linear_topology(n_switches: int) -> nx.Graph:
    """A simple chain of switches (small tests and examples)."""
    if n_switches < 1:
        raise ValueError("need at least one switch")
    graph = nx.Graph()
    names = [f"s{i}" for i in range(n_switches)]
    for name in names:
        graph.add_node(name, kind="switch")
    for left, right in zip(names, names[1:]):
        graph.add_edge(left, right)
    return graph


def validate_topology(graph: nx.Graph) -> None:
    """Sanity checks: non-empty and connected."""
    if graph.number_of_nodes() == 0:
        raise ValueError("topology has no nodes")
    if not nx.is_connected(graph):
        raise ValueError("topology must be connected")
