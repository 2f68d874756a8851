"""Object-vs-SoA differential matrix for both message-level phases.

Each phase keeps two tiers: object nodes, the plainly written oracle, and
the structure-of-arrays production tier.  Rooting nodes draw no
randomness of their own, and the expander's object nodes draw from one
shared protocol generator in node order — the stream the SoA class draws
in one flat call — so both phases must produce **bit-for-bit** identical
results (trees or final port matrices, accepted-edge logs, metrics and
round counts) over a 20-seed matrix on both delivery engines, and the
rooting must match the reference BFS oracle.
"""

import math

import numpy as np
import pytest

import networkx as nx

from repro.core.batch_protocol import run_soa_expander
from repro.core.bfs import build_bfs_forest
from repro.core.params import ExpanderParams
from repro.core.pipeline import build_well_formed_tree
from repro.core.protocol import run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting
from repro.core.soa_rooting import SoARootingClass, csr_neighbors, run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.portgraph import PortGraph
from repro.net.network import CapacityPolicy

SEEDS = range(20)


def overlay_like(n: int, seed: int, chords: int = 2, delta: int = 16) -> PortGraph:
    """Connected low-diameter multigraph standing in for evolution output
    (the ring-plus-chords family shared with the S3/S4 benches)."""
    return PortGraph.ring_with_chords(n, delta=delta, chords=chords, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 4


class TestRootingThreeWay:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_three_tiers_bit_for_bit(self, seed):
        # Vary size and chord structure with the seed.
        n = 48 + 8 * (seed % 5)
        graph = overlay_like(n, seed, chords=2 + seed % 2)
        fr = _flood_rounds(n)
        obj = run_protocol_rooting(
            graph, fr, rng=np.random.default_rng(seed), engine="legacy"
        )
        obj_vec = run_protocol_rooting(graph, fr, rng=np.random.default_rng(seed))
        soa = run_soa_rooting(graph, fr, rng=np.random.default_rng(seed))
        for other in (obj_vec, soa):
            assert other.root == obj.root
            assert np.array_equal(other.parent, obj.parent)
            assert np.array_equal(other.depth, obj.depth)
            assert other.metrics.as_dict() == obj.metrics.as_dict()
            assert other.rounds == obj.rounds

    @pytest.mark.parametrize("seed", range(6))
    def test_soa_matches_reference_bfs(self, seed):
        graph = overlay_like(56, seed)
        soa = run_soa_rooting(graph, _flood_rounds(56), rng=np.random.default_rng(seed))
        forest = build_bfs_forest(graph)
        assert forest.roots == [soa.root]
        assert np.array_equal(soa.parent, forest.parent)
        assert np.array_equal(soa.depth, forest.depth)

    def test_no_drops_within_capacity(self):
        graph = overlay_like(200, seed=3)
        result = run_soa_rooting(graph, _flood_rounds(200))
        assert result.metrics.total_drops == 0
        assert result.metrics.max_sent_per_round <= graph.delta

    def test_csr_matches_neighbor_sets(self):
        graph = overlay_like(80, seed=5, chords=3)
        indptr, flat = csr_neighbors(graph)
        sets = graph.neighbor_sets()
        for v in range(graph.n):
            assert flat[indptr[v] : indptr[v + 1]].tolist() == sorted(sets[v])

    def test_soa_rejects_legacy_engine(self):
        with pytest.raises(ValueError, match="vectorized"):
            run_soa_rooting(overlay_like(32, 0), 6, engine="legacy")

    def test_unreached_nodes_raise(self):
        # Two disjoint rings: the flood never crosses, BFS cannot span.
        idx = np.arange(8, dtype=np.int64)
        half = np.concatenate([np.roll(idx[:4], -1), 4 + np.roll(idx[:4], -1)])
        graph = PortGraph.from_edge_multiset(
            n=8, delta=4, endpoints_a=idx, endpoints_b=half
        )
        with pytest.raises(RuntimeError):
            run_soa_rooting(graph, 6)


def _expander_params(n: int) -> ExpanderParams:
    return ExpanderParams.recommended(n, ell=16).with_evolutions(
        math.ceil(math.log2(n)) + 2
    )


class TestExpanderObjectVsSoA:
    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_equals_soa_bit_for_bit(self, seed, engine):
        n = 24 + 8 * (seed % 4)
        params = _expander_params(n)
        g = G.line_graph(n) if seed % 2 else G.cycle_graph(n)
        obj = run_protocol_expander(
            g, params=params, rng=np.random.default_rng(seed), engine=engine
        )
        soa = run_soa_expander(g, params=params, rng=np.random.default_rng(seed))
        assert np.array_equal(obj.final_graph.ports, soa.final_graph.ports)
        assert obj.metrics.as_dict() == soa.metrics.as_dict()
        assert obj.rounds == soa.rounds

    def test_equal_when_capacities_bind(self):
        # A starved budget forces send/receive truncation draws from the
        # network stream and over-full acceptors on the protocol stream.
        n = 32
        params = _expander_params(n)
        capacity = CapacityPolicy(max_send=3, max_receive=2)
        g = G.line_graph(n)
        obj = run_protocol_expander(
            g, params=params, rng=np.random.default_rng(7), capacity=capacity
        )
        soa = run_soa_expander(
            g, params=params, rng=np.random.default_rng(7), capacity=capacity
        )
        assert obj.metrics.total_drops > 0
        assert np.array_equal(obj.final_graph.ports, soa.final_graph.ports)
        assert obj.metrics.as_dict() == soa.metrics.as_dict()

    @pytest.mark.parametrize("seed", range(6))
    def test_both_tiers_keep_the_invariants(self, seed):
        n = 32
        params = _expander_params(n)
        g = G.cycle_graph(n)
        runs = {
            "object": run_protocol_expander(g, params=params, rng=np.random.default_rng(seed)),
            "soa": run_soa_expander(g, params=params, rng=np.random.default_rng(seed)),
        }
        for tier, r in runs.items():
            assert r.metrics.total_drops == 0, tier
            assert r.metrics.max_sent_per_round <= params.delta, tier
            assert r.final_graph.delta == params.delta, tier
            assert r.final_graph.is_lazy(), tier
            assert r.final_graph.is_symmetric(), tier

    def test_accepted_log_matches_object_nodes(self):
        # The columnar accepted-edge log equals the per-node logs of the
        # object run, node by node and in order.
        n = 40
        params = _expander_params(n)
        g = G.line_graph(n)
        from repro.core.batch_protocol import SoAExpanderClass
        from repro.core.protocol import ExpanderNode, prepare_network_inputs
        from repro.net.network import SyncNetwork

        rng = np.random.default_rng(11)
        _, neighbors, params2, capacity = prepare_network_inputs(g, params, None)
        proto_rng, net_rng = rng.spawn(2)
        cls = SoAExpanderClass(n, neighbors, params2, proto_rng)
        network = SyncNetwork(cls, capacity, net_rng)
        network.run(max_rounds=params2.num_evolutions * (params2.ell + 2) + 1)

        rng_o = np.random.default_rng(11)
        proto_o, net_o = rng_o.spawn(2)
        nodes = {v: ExpanderNode(v, neighbors[v], params2, proto_o) for v in range(n)}
        net2 = SyncNetwork(nodes, capacity, net_o)
        net2.run(max_rounds=params2.num_evolutions * (params2.ell + 2) + 1)

        assert len(cls.accepted_log) == params2.num_evolutions
        for v in range(n):
            mine = [
                (origin, v)
                for acceptors, origins in cls.accepted_log
                for origin in origins[acceptors == v].tolist()
            ]
            assert mine == nodes[v].accepted_log, v

    def test_soa_rejects_legacy_engine(self):
        with pytest.raises(ValueError, match="vectorized"):
            run_soa_expander(G.cycle_graph(16), engine="legacy")


class TestPipelineSoAModes:
    def test_rooting_soa_builds_the_identical_tree(self):
        g = G.cycle_graph(72)
        runs = {
            mode: build_well_formed_tree(g, rng=np.random.default_rng(9), rooting=mode)
            for mode in ("reference", "protocol", "soa")
        }
        ref = runs["reference"]
        for mode, run in runs.items():
            assert np.array_equal(run.bfs.parent, ref.bfs.parent), mode
            assert np.array_equal(run.bfs.depth, ref.bfs.depth), mode
        assert runs["protocol"].round_ledger == runs["soa"].round_ledger

    def test_expander_soa_mode_builds_valid_overlay(self):
        g = G.cycle_graph(64)
        result = build_well_formed_tree(
            g, rng=np.random.default_rng(2), expander="soa", rooting="soa"
        )
        n = g.number_of_nodes()
        assert result.well_formed.max_degree() <= 3
        assert result.well_formed.depth() <= math.ceil(math.log2(n)) + 1
        assert result.round_ledger["evolutions"] > 0
        assert result.total_rounds == sum(result.round_ledger.values())

    def test_message_expander_modes_reject_walk_only_features(self):
        with pytest.raises(ValueError, match="walks"):
            build_well_formed_tree(G.cycle_graph(32), expander="protocol", track_gap=True)
        with pytest.raises(ValueError, match="expander must be one of"):
            build_well_formed_tree(G.cycle_graph(32), expander="hyperdrive")


class TestSoAStateMachine:
    def test_rooting_class_is_idle_only_after_spanning(self):
        graph = overlay_like(40, 1)
        from repro.net.network import CapacityPolicy, SyncNetwork

        cls = SoARootingClass(*csr_neighbors(graph), _flood_rounds(40))
        net = SyncNetwork(
            cls, CapacityPolicy.ncc0(40, graph.delta), np.random.default_rng(0)
        )
        assert not cls.is_idle()
        net.run(max_rounds=200)
        assert cls.is_idle()
        assert (cls.parent >= 0).all()
        assert (cls.announced).all()


EXPANDER_TIERS = {"object": run_protocol_expander, "soa": run_soa_expander}


class TestExpanderInputBoundary:
    @pytest.mark.parametrize("tier", sorted(EXPANDER_TIERS))
    def test_multigraph_parallel_edges_collapse(self, tier):
        run = EXPANDER_TIERS[tier]
        multi = nx.MultiGraph(G.line_graph(24))
        multi.add_edges_from([(0, 1), (5, 6), (5, 6)])
        got = run(multi, rng=np.random.default_rng(3))
        simple = run(G.line_graph(24), rng=np.random.default_rng(3))
        assert np.array_equal(got.final_graph.ports, simple.final_graph.ports)
        assert got.metrics.as_dict() == simple.metrics.as_dict()

    @pytest.mark.parametrize("tier", sorted(EXPANDER_TIERS))
    def test_noncontiguous_labels_named_up_front(self, tier):
        g = nx.Graph([(10, 11), (11, 13), (13, 20)])
        with pytest.raises(ValueError, match=r"0\.\.3; label 10 is outside"):
            EXPANDER_TIERS[tier](g, rng=np.random.default_rng(0))

    def test_pipeline_accepts_a_multigraph(self):
        multi = nx.MultiGraph(G.cycle_graph(32))
        multi.add_edge(0, 1)
        result = build_well_formed_tree(
            multi, rng=np.random.default_rng(1), expander="soa", rooting="soa"
        )
        assert result.well_formed.max_degree() <= 3
