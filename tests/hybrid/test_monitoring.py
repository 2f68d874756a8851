"""Network monitoring tests (§1.4 corollary via [27])."""

import math

import numpy as np
import pytest

from repro.core.pipeline import build_well_formed_tree
from repro.graphs import generators as G
from repro.hybrid.monitoring import NetworkMonitor


class TestCounts:
    def test_node_count(self):
        mon = NetworkMonitor(G.grid_2d(6, 7))
        assert mon.node_count().value == 42

    def test_edge_count(self):
        g = G.grid_2d(6, 7)
        mon = NetworkMonitor(g)
        assert mon.edge_count().value == g.number_of_edges()

    def test_degree_extremes(self):
        mon = NetworkMonitor(G.star_graph(12))
        assert mon.max_degree().value == 11
        assert mon.min_degree().value == 1


class TestBipartiteness:
    @pytest.mark.parametrize(
        "make,expected",
        [
            (lambda: G.cycle_graph(8), True),
            (lambda: G.cycle_graph(9), False),
            (lambda: G.grid_2d(5, 5), True),
            (lambda: G.complete_graph(4), False),
            (lambda: G.binary_tree(15), True),
            (lambda: G.lollipop(4, 5), False),
        ],
        ids=["even_cycle", "odd_cycle", "grid", "clique", "tree", "lollipop"],
    )
    def test_matches_truth(self, make, expected):
        import networkx as nx

        g = make()
        mon = NetworkMonitor(g)
        assert mon.is_bipartite().value == nx.is_bipartite(g)
        assert mon.is_bipartite().value is expected


class TestRoundCharges:
    def test_aggregations_cost_tree_height(self):
        g = G.cycle_graph(32)
        result = build_well_formed_tree(g, rng=np.random.default_rng(0))
        mon = NetworkMonitor(g, tree=result.tree)
        report = mon.node_count()
        # Well-formed tree: O(log n) rounds per monitor.
        assert report.rounds <= math.ceil(math.log2(32)) + 1

    def test_wft_monitor_beats_bfs_tree_on_line(self):
        g = G.line_graph(128)
        result = build_well_formed_tree(g, rng=np.random.default_rng(1))
        fast = NetworkMonitor(g, tree=result.tree)
        slow = NetworkMonitor(g)  # BFS tree of the line: depth 127
        assert fast.node_count().rounds < slow.node_count().rounds

    def test_all_monitors_battery(self):
        g = G.torus_2d(5, 5)
        mon = NetworkMonitor(g)
        battery = mon.all_monitors()
        assert set(battery) == {
            "node_count",
            "edge_count",
            "max_degree",
            "min_degree",
            "is_bipartite",
        }
        assert battery["node_count"].value == 25


class TestEngineSelection:
    """Smoke: the monitor's tree construction runs on any execution tier
    and every tier yields the identical monitors (same values, same
    round charges) — the bench_x2 path no longer needs object-level
    rooting."""

    @pytest.mark.parametrize("rooting", ["protocol", "soa"])
    def test_tiers_match_reference_monitor(self, rooting):
        g = G.torus_2d(4, 4)
        ref = NetworkMonitor(g).all_monitors()
        got = NetworkMonitor(g, rooting=rooting).all_monitors()
        for query, report in ref.items():
            assert got[query].value == report.value, query
            assert got[query].rounds == report.rounds, query

    def test_unknown_rooting_rejected(self):
        with pytest.raises(ValueError, match="rooting"):
            NetworkMonitor(G.cycle_graph(6), rooting="warp-drive")

    def test_disconnected_rejected_on_message_tier(self):
        mix, _ = G.component_mixture([G.line_graph(4), G.line_graph(4)])
        with pytest.raises(ValueError, match="connected"):
            NetworkMonitor(mix, rooting="soa")


class TestValidation:
    def test_disconnected_rejected(self):
        mix, _ = G.component_mixture([G.line_graph(4), G.line_graph(4)])
        with pytest.raises(ValueError):
            NetworkMonitor(mix)

    def test_mismatched_tree_rejected(self):
        from repro.core.child_sibling import RootedTree

        tree = RootedTree(root=0, parent=np.array([0, 0]))
        with pytest.raises(ValueError):
            NetworkMonitor(G.cycle_graph(5), tree=tree)
