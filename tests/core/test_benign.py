"""MakeBenign (Definition 2.1 preparation) tests."""

import numpy as np
import pytest

from repro.core.benign import check_benign, make_benign, undirected_edge_list
from repro.core.params import ExpanderParams
from repro.graphs import generators as G
from repro.graphs.analysis import adjacency_sets
from repro.graphs.mincut import min_cut_of_portgraph


PARAMS = ExpanderParams(delta=48, lam=4, ell=8, num_evolutions=5)


class TestEdgeExtraction:
    def test_undirected_edges_of_digraph(self, rng):
        d = G.random_orientation(G.cycle_graph(5), rng)
        n, edges = undirected_edge_list(d)
        assert n == 5
        assert len(edges) == 5

    def test_duplicates_and_loops_removed(self):
        import networkx as nx

        d = nx.DiGraph()
        d.add_nodes_from(range(3))
        d.add_edges_from([(0, 1), (1, 0), (1, 1), (1, 2)])
        _, edges = undirected_edge_list(d)
        assert edges == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_plain_set_extraction(self, seed):
        """The columnar extraction against the plain per-edge set rule,
        on multigraph / digraph inputs with loops and numpy-int labels."""
        import networkx as nx

        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        cls = [nx.Graph, nx.DiGraph, nx.MultiGraph, nx.MultiDiGraph][seed % 4]
        g = cls()
        g.add_nodes_from(np.arange(n)[rng.permutation(n)].tolist())
        ends = rng.integers(0, n, size=(3 * n, 2))
        g.add_edges_from((np.int64(a), int(b)) for a, b in ends)
        expected = sorted({(min(a, b), max(a, b)) for a, b in g.edges() if a != b})
        got_n, got = undirected_edge_list(g)
        assert got_n == n
        assert got == expected

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            undirected_edge_list([[1], [0]])


class TestMakeBenign:
    def test_regular_and_lazy(self):
        pg, registry = make_benign(G.line_graph(10), PARAMS)
        assert pg.delta == PARAMS.delta
        assert pg.is_lazy()
        assert pg.is_symmetric()

    def test_lambda_copies(self):
        pg, registry = make_benign(G.line_graph(10), PARAMS)
        # Interior node: 2 incident edges, each copied lam times.
        assert pg.real_degree()[5] == 2 * PARAMS.lam
        assert pg.real_degree()[0] == PARAMS.lam

    def test_registry_matches_copies(self):
        pg, registry = make_benign(G.line_graph(10), PARAMS)
        assert len(registry) == 9 * PARAMS.lam
        # All copies of an edge share their source.
        sources = {}
        for e in registry:
            sources.setdefault(e.source, 0)
            sources[e.source] += 1
        assert all(count == PARAMS.lam for count in sources.values())

    def test_min_cut_is_lambda(self):
        pg, _ = make_benign(G.line_graph(12), PARAMS)
        assert min_cut_of_portgraph(pg) == PARAMS.lam

    def test_adjacency_preserved(self):
        pg, _ = make_benign(G.cycle_graph(9), PARAMS)
        assert adjacency_sets(pg) == adjacency_sets(G.cycle_graph(9))

    def test_too_dense_input_rejected(self):
        with pytest.raises(ValueError, match="increase delta"):
            make_benign(G.star_graph(30), PARAMS)

    def test_single_node_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_node(0)
        with pytest.raises(ValueError):
            make_benign(g, PARAMS)


class TestCheckBenign:
    def test_fresh_benign_graph_passes(self):
        pg, _ = make_benign(G.cycle_graph(10), PARAMS)
        report = check_benign(pg, PARAMS, cut_target=PARAMS.lam)
        assert report.is_regular
        assert report.is_lazy
        assert report.has_lambda_cut
        assert report.all_ok()

    def test_cut_target_defaults_to_floor(self):
        pg, _ = make_benign(G.cycle_graph(10), PARAMS)
        report = check_benign(pg, PARAMS)
        assert report.min_cut == 2 * PARAMS.lam
        assert report.has_lambda_cut  # floor = max(2, lam//2) = 2

    def test_cut_check_skipped_above_limit(self):
        pg, _ = make_benign(G.cycle_graph(10), PARAMS)
        report = check_benign(pg, PARAMS, cut_n_limit=5)
        assert report.min_cut is None
        assert report.has_lambda_cut is None
        assert report.all_ok()  # unknown cut does not fail the report

    def test_non_lazy_graph_fails(self):
        # All ports real: a 4-cycle with delta=8 and 4 copies per edge.
        from repro.graphs.portgraph import PortGraph

        ends_a = np.repeat(np.arange(4), 4)
        ends_b = np.repeat((np.arange(4) + 1) % 4, 4)
        pg = PortGraph.from_edge_multiset(
            n=4, delta=8, endpoints_a=ends_a, endpoints_b=ends_b
        )
        params = ExpanderParams(delta=8, lam=2, ell=4, num_evolutions=1)
        report = check_benign(pg, params)
        assert not report.is_lazy
        assert not report.all_ok()
