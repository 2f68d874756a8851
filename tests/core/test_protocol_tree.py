"""Message-level rooting phase tests (flooding + BFS under NCC0)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.core.params import ExpanderParams
from repro.core.protocol import run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.analysis import adjacency_sets, bfs_distances
from repro.core.benign import make_benign


def small_expander(n: int, seed: int):
    params = ExpanderParams.recommended(n, ell=16).with_evolutions(
        math.ceil(math.log2(n)) + 2
    )
    return run_protocol_expander(
        G.line_graph(n), params=params, rng=np.random.default_rng(seed)
    ).final_graph


class TestRooting:
    def test_roots_at_minimum_id(self):
        graph = small_expander(48, seed=0)
        result = run_protocol_rooting(graph, flood_rounds=8)
        assert result.root == 0
        assert result.parent[0] == 0
        assert result.depth[0] == 0

    def test_tree_spans_with_correct_depths(self):
        graph = small_expander(48, seed=1)
        result = run_protocol_rooting(graph, flood_rounds=8)
        dist = bfs_distances(graph.neighbor_sets(), result.root)
        assert (result.depth == dist).all()
        for v in range(graph.n):
            if v != result.root:
                p = int(result.parent[v])
                assert result.depth[v] == result.depth[p] + 1
                assert p in graph.neighbor_sets()[v]

    def test_no_drops_within_capacity(self):
        graph = small_expander(64, seed=2)
        result = run_protocol_rooting(graph, flood_rounds=8)
        assert result.metrics.total_drops == 0
        assert result.metrics.max_sent_per_round <= graph.delta

    def test_rounds_logarithmic(self):
        graph = small_expander(64, seed=3)
        result = run_protocol_rooting(graph, flood_rounds=8)
        assert result.rounds <= 4 * math.ceil(math.log2(64))

    def test_works_on_benign_input_directly(self):
        # Rooting also works on any connected PortGraph (e.g. the benign
        # preparation of a cycle), just with more flooding rounds.
        params = ExpanderParams.recommended(16)
        base, _ = make_benign(G.cycle_graph(16), params)
        result = run_protocol_rooting(base, flood_rounds=10)
        assert result.root == 0
        dist = bfs_distances(base.neighbor_sets(), 0)
        assert (result.depth == dist).all()

    def test_disconnected_raises(self):
        import numpy as np
        from repro.graphs.portgraph import PortGraph

        ports = np.arange(4)[:, None] * np.ones((4, 8), dtype=np.int64)
        with pytest.raises(RuntimeError):
            run_protocol_rooting(PortGraph(ports.astype(np.int64)), flood_rounds=4)


def _reversed_path_graph(n: int):
    """Path 1-2-…-(n-1)-0: the minimum id sits at one end, so flooding
    needs the full ``diameter = n - 1`` hops to reach the far end."""
    order = list(range(1, n)) + [0]
    g = nx.Graph()
    g.add_edges_from(zip(order, order[1:]))
    return g


class TestFloodBoundary:
    """Regression for the flooding off-by-one: min_id messages arriving in
    round ``flood_rounds`` (sent in the last flooding round) must still be
    processed before the BFS hand-off.  Discarding them cut the flood one
    hop short, so ``flood_rounds == diameter`` left a second self-believed
    root at the far end of the path and raised a spurious RuntimeError."""

    @pytest.mark.parametrize("runner", [run_protocol_rooting, run_soa_rooting])
    def test_path_with_flood_rounds_equal_diameter(self, runner):
        n = 10
        params = ExpanderParams.recommended(n)
        base, _ = make_benign(_reversed_path_graph(n), params)
        result = runner(base, flood_rounds=n - 1)  # exactly the diameter
        assert result.root == 0
        dist = bfs_distances(base.neighbor_sets(), 0)
        assert (result.depth == dist).all()

    @pytest.mark.parametrize("runner", [run_protocol_rooting, run_soa_rooting])
    def test_insufficient_flooding_still_detected(self, runner):
        # One round short of the diameter: the far end never hears id 0,
        # roots itself, and the unique-root check must fire.
        n = 10
        params = ExpanderParams.recommended(n)
        base, _ = make_benign(_reversed_path_graph(n), params)
        with pytest.raises(RuntimeError, match="unique root"):
            runner(base, flood_rounds=n - 2)
