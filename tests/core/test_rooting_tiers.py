"""Rooting tiers on real expander output: engines, reference BFS, delays.

The object nodes agree with themselves across both delivery engines, the
SoA tier matches the reference oracle of :mod:`repro.core.bfs` (same
min-id election, same min-id parent tie-break) on message-level expander
output, and both tiers build the synchronous tree under the footnote-2
asynchrony synchroniser.  The 20-seed object-vs-SoA bit-for-bit matrix
lives in ``tests/core/test_soa_engines.py``.
"""

import math

import numpy as np
import pytest

from repro.core.bfs import build_bfs_forest
from repro.core.params import ExpanderParams
from repro.core.protocol import run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting, run_rooting_under_asynchrony
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.analysis import bfs_distances

SEEDS = range(20)
FLOOD_ROUNDS = 8


def small_expander(n: int, seed: int):
    params = ExpanderParams.recommended(n, ell=16).with_evolutions(
        math.ceil(math.log2(n)) + 2
    )
    return run_protocol_expander(
        G.line_graph(n), params=params, rng=np.random.default_rng(seed)
    ).final_graph


class TestObjectEngines:
    @pytest.mark.parametrize("seed", range(6))
    def test_object_nodes_agree_across_engines(self, seed):
        graph = small_expander(40, seed)
        vec = run_protocol_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        leg = run_protocol_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed), engine="legacy"
        )
        assert vec.root == leg.root
        assert np.array_equal(vec.parent, leg.parent)
        assert np.array_equal(vec.depth, leg.depth)
        assert vec.metrics.as_dict() == leg.metrics.as_dict()


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_bfs(self, seed):
        # The same tree as the centralised §2.1 oracle: min-id root,
        # min-id parent tie-break, true BFS depths.
        graph = small_expander(48, seed)
        soa = run_soa_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        forest = build_bfs_forest(graph)
        assert forest.roots == [soa.root]
        assert np.array_equal(soa.parent, forest.parent)
        assert np.array_equal(soa.depth, forest.depth)
        dist = bfs_distances(graph.neighbor_sets(), soa.root)
        assert np.array_equal(soa.depth, dist)

    def test_no_drops_within_capacity(self):
        graph = small_expander(64, seed=3)
        result = run_soa_rooting(graph, FLOOD_ROUNDS)
        assert result.metrics.total_drops == 0
        assert result.metrics.max_sent_per_round <= graph.delta


class TestUnderAsynchrony:
    @pytest.mark.parametrize("tier", ["object", "soa"])
    def test_delayed_run_builds_the_synchronous_tree(self, tier):
        graph = small_expander(40, seed=5)
        sync = run_soa_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(5))
        delayed, report = run_rooting_under_asynchrony(
            graph,
            FLOOD_ROUNDS,
            max_delay=4,
            rng=np.random.default_rng(5),
            tier=tier,
        )
        assert delayed.root == sync.root
        assert np.array_equal(delayed.parent, sync.parent)
        assert np.array_equal(delayed.depth, sync.depth)
        assert report.converged
        assert report.dilation == 4.0
        assert 1 <= report.observed_max_delay <= 4
