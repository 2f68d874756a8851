"""Churn simulation tests (§1.4 robustness machinery)."""

import numpy as np
import pytest

from repro.graphs import generators as G
from repro.graphs.portgraph import PortGraph
from repro.graphs.churn import (
    churn_report,
    fail_nodes,
    rebuild_survivor_overlay,
    survival_curve,
)


class TestFailNodes:
    def test_no_churn_keeps_everything(self, rng):
        adj, alive = fail_nodes(G.cycle_graph(20), 0.0, rng)
        assert alive.all()
        assert all(len(a) == 2 for a in adj)

    def test_total_churn_kills_everything(self, rng):
        adj, alive = fail_nodes(G.cycle_graph(20), 1.0, rng)
        assert not alive.any()
        assert all(len(a) == 0 for a in adj)

    def test_dead_nodes_removed_from_neighbours(self, rng):
        adj, alive = fail_nodes(G.complete_graph(30), 0.5, rng)
        for v in range(30):
            if alive[v]:
                assert all(alive[u] for u in adj[v])
            else:
                assert adj[v] == set()

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            fail_nodes(G.cycle_graph(5), 1.5, rng)


class TestReport:
    def test_connected_survivors(self, rng):
        adj, alive = fail_nodes(G.complete_graph(40), 0.3, rng)
        report = churn_report(adj, alive)
        assert report.stayed_connected
        assert report.largest_fraction == 1.0
        assert report.survivors == int(alive.sum())

    def test_shattered_line(self):
        rng = np.random.default_rng(3)
        adj, alive = fail_nodes(G.line_graph(200), 0.3, rng)
        report = churn_report(adj, alive)
        assert report.components > 10
        assert report.largest_fraction < 0.5

    def test_empty_survivors(self):
        alive = np.zeros(4, dtype=bool)
        report = churn_report([set()] * 4, alive)
        assert report.largest_fraction == 0.0
        assert report.components == 0


class TestSurvivalCurve:
    def test_monotone_degradation(self):
        rng = np.random.default_rng(4)
        rows = survival_curve(G.cycle_graph(100), [0.05, 0.3], rng, trials=5)
        assert rows[0]["mean_largest_fraction"] > rows[1]["mean_largest_fraction"]

    def test_overlay_beats_ring(self):
        # The §1.4 claim in miniature: the expander overlay survives churn
        # that shatters the ring it was built from.
        from repro.core.pipeline import build_well_formed_tree

        n = 128
        ring = G.cycle_graph(n)
        overlay = build_well_formed_tree(
            ring, rng=np.random.default_rng(0)
        ).final_graph()
        rng = np.random.default_rng(5)
        ring_rows = survival_curve(ring, [0.2], rng, trials=5)
        overlay_rows = survival_curve(
            overlay.neighbor_sets(), [0.2], rng, trials=5
        )
        assert overlay_rows[0]["connected_rate"] == 1.0
        assert ring_rows[0]["connected_rate"] == 0.0
        assert (
            overlay_rows[0]["mean_largest_fraction"]
            > 2 * ring_rows[0]["mean_largest_fraction"]
        )


class TestSurvivorRebuild:
    """The §1.4 "throw away and reconstruct" step on the SoA rooting tier."""

    def test_rebuild_produces_valid_overlay(self):
        rng = np.random.default_rng(7)
        result = rebuild_survivor_overlay(G.complete_graph(48), 0.25, rng)
        k = result.survivors.shape[0]
        assert k == result.report.largest_component
        assert result.overlay.well_formed.max_degree() <= 3
        assert result.overlay.bfs.parent.shape[0] == k
        # Survivor labels are original ids: a subset of 0..n-1, sorted.
        assert (np.diff(result.survivors) > 0).all()
        assert 0 <= result.survivors[0] and result.survivors[-1] < 48

    @pytest.mark.parametrize("seed", range(4))
    def test_seed_matched_rebuild_identical_across_engines(self, seed):
        """Regression: under one seed, every execution tier reconstructs
        the *identical* survivor overlay — same survivor set, same BFS
        tree, same round ledger — so churn re-runs can move to the
        SoA tier without changing a single result."""
        runs = {}
        for rooting in ("reference", "protocol", "soa"):
            rng = np.random.default_rng(100 + seed)
            runs[rooting] = rebuild_survivor_overlay(
                G.complete_graph(40), 0.3, rng, rooting=rooting
            )
        ref = runs["reference"]
        for rooting, run in runs.items():
            assert np.array_equal(run.survivors, ref.survivors), rooting
            assert np.array_equal(run.overlay.bfs.parent, ref.overlay.bfs.parent)
            assert np.array_equal(run.overlay.bfs.depth, ref.overlay.bfs.depth)
            # Every phase except the bfs entry (whose round *accounting*
            # legitimately differs: tree height for the oracle, flood +
            # BFS protocol rounds for the message tiers) matches the
            # reference ledger exactly.
            for phase in ("prepare", "evolutions", "well_forming"):
                assert run.overlay.round_ledger[phase] == ref.overlay.round_ledger[phase], (
                    rooting,
                    phase,
                )
        # The message-level tiers agree on the full ledger, bfs included.
        assert runs["soa"].overlay.round_ledger == runs["protocol"].overlay.round_ledger

    def test_total_churn_raises(self):
        with pytest.raises(ValueError, match="rebuild"):
            rebuild_survivor_overlay(
                G.cycle_graph(16), 1.0, np.random.default_rng(0)
            )


class TestHybridRebuild:
    """Churn-rebuild through the §4 pipeline: every surviving component
    (not just the largest) gets a well-formed tree, identically on both
    hybrid tiers under a matched seed."""

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_tiers_rebuild_identically(self, seed):
        graph = PortGraph.ring_with_chords(220, delta=16, chords=2, seed=seed)
        per_node = rebuild_survivor_overlay(
            graph, 0.15, np.random.default_rng(seed), hybrid="object"
        )
        columnar = rebuild_survivor_overlay(
            graph, 0.15, np.random.default_rng(seed), hybrid="soa"
        )
        assert np.array_equal(per_node.survivors, columnar.survivors)
        assert per_node.report == columnar.report
        assert np.array_equal(per_node.overlay.labels, columnar.overlay.labels)
        assert np.array_equal(
            per_node.overlay.forest.parent, columnar.overlay.forest.parent
        )
        assert per_node.overlay.ledger.summary() == columnar.overlay.ledger.summary()

    def test_hybrid_rebuild_covers_all_components(self):
        graph = PortGraph.ring_with_chords(150, delta=16, chords=1, seed=2)
        rebuild = rebuild_survivor_overlay(
            graph, 0.3, np.random.default_rng(7), hybrid="soa"
        )
        # Every survivor is labelled and parented within its component.
        assert rebuild.survivors.shape[0] == rebuild.report.survivors
        labels = rebuild.overlay.labels
        assert labels.shape[0] == rebuild.survivors.shape[0]
        assert len(rebuild.overlay.components()) == rebuild.report.components
        assert rebuild.overlay.forest.max_degree() <= 3

    def test_invalid_hybrid_tier_rejected(self):
        graph = PortGraph.ring_with_chords(64, delta=16, chords=2, seed=0)
        with pytest.raises(ValueError, match="hybrid tier must be one of"):
            rebuild_survivor_overlay(
                graph, 0.1, np.random.default_rng(0), hybrid="warp"
            )

    def test_hybrid_rejects_theorem11_kwargs(self):
        graph = PortGraph.ring_with_chords(64, delta=16, chords=2, seed=0)
        with pytest.raises(ValueError, match="overlay_params instead"):
            rebuild_survivor_overlay(
                graph, 0.1, np.random.default_rng(0), rooting="soa", hybrid="soa"
            )
