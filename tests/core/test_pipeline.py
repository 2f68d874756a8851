"""Theorem 1.1 pipeline tests: well-formed trees in O(log n) rounds."""

import math

import numpy as np
import pytest

from repro.core.params import ExpanderParams
from repro.core.pipeline import build_well_formed_tree
from repro.graphs import generators as G
from repro.graphs.analysis import diameter


class TestWellFormedOutput:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: G.line_graph(64),
            lambda: G.cycle_graph(64),
            lambda: G.binary_tree(63),
            lambda: G.caterpillar(64),
        ],
        ids=["line", "cycle", "btree", "caterpillar"],
    )
    def test_tree_is_well_formed(self, make):
        g = make()
        n = g.number_of_nodes()
        result = build_well_formed_tree(g, rng=np.random.default_rng(1))
        wft = result.well_formed
        assert wft.max_degree() <= 3
        assert wft.depth() <= math.ceil(math.log2(n)) + 1
        wft.tree.validate()

    def test_all_nodes_in_tree(self):
        result = build_well_formed_tree(G.line_graph(40), rng=np.random.default_rng(2))
        assert result.tree.n == 40

    def test_overlay_diameter_logarithmic(self):
        result = build_well_formed_tree(G.line_graph(128), rng=np.random.default_rng(3))
        assert result.overlay_diameter() <= 2 * math.ceil(math.log2(128))


class TestRoundAccounting:
    def test_ledger_phases_present(self):
        result = build_well_formed_tree(G.cycle_graph(32), rng=np.random.default_rng(0))
        assert set(result.round_ledger) == {
            "prepare",
            "evolutions",
            "bfs",
            "well_forming",
        }
        assert result.total_rounds == sum(result.round_ledger.values())

    def test_rounds_scale_logarithmically(self):
        rounds = []
        for n in (32, 128, 512):
            result = build_well_formed_tree(
                G.line_graph(n), rng=np.random.default_rng(5)
            )
            rounds.append(result.total_rounds / math.log2(n))
        # Rounds per log2(n) stays bounded (within 2x across the sweep).
        assert max(rounds) <= 2 * min(rounds)

    def test_adaptive_mode_uses_fewer_evolutions(self):
        fixed = build_well_formed_tree(G.cycle_graph(64), rng=np.random.default_rng(6))
        adaptive = build_well_formed_tree(
            G.cycle_graph(64), rng=np.random.default_rng(6), gap_threshold=0.05
        )
        assert (
            len(adaptive.expander.history) <= len(fixed.expander.history)
        )


class TestValidationModes:
    def test_verify_benign_passes_at_calibration(self):
        result = build_well_formed_tree(
            G.line_graph(48),
            rng=np.random.default_rng(7),
            verify_benign=True,
        )
        assert result.tree.n == 48

    def test_track_gap_records_history(self):
        result = build_well_formed_tree(
            G.cycle_graph(48), rng=np.random.default_rng(8), track_gap=True
        )
        gaps = [s.spectral_gap for s in result.history]
        assert all(g is not None for g in gaps)
        assert gaps[-1] > gaps[0]

    def test_disconnected_input_rejected(self):
        mix, _ = G.component_mixture([G.line_graph(8), G.line_graph(8)])
        with pytest.raises(ValueError, match="disconnected"):
            build_well_formed_tree(mix, rng=np.random.default_rng(9))

    def test_directed_input_accepted(self, rng):
        d = G.random_orientation(G.cycle_graph(32), rng)
        result = build_well_formed_tree(d, rng=np.random.default_rng(10))
        assert result.tree.n == 32

    def test_explicit_params_respected(self):
        params = ExpanderParams(delta=64, lam=4, ell=16, num_evolutions=6)
        result = build_well_formed_tree(
            G.line_graph(32), params=params, rng=np.random.default_rng(11)
        )
        assert result.expander.params == params
        assert len(result.history) == 6


class TestRootingModes:
    """The message-level rooting modes must build the reference tree."""

    @pytest.mark.parametrize("mode", ["protocol", "soa"])
    def test_message_level_rooting_matches_reference(self, mode):
        ref = build_well_formed_tree(G.line_graph(48), rng=np.random.default_rng(12))
        res = build_well_formed_tree(
            G.line_graph(48), rng=np.random.default_rng(12), rooting=mode
        )
        assert res.bfs.roots == ref.bfs.roots
        assert np.array_equal(res.bfs.parent, ref.bfs.parent)
        assert np.array_equal(res.bfs.depth, ref.bfs.depth)
        assert np.array_equal(res.bfs.root_of, ref.bfs.root_of)
        # The protocol runs a fixed flooding budget, so its round count
        # may exceed the oracle's actual-stabilisation count, never less.
        assert res.round_ledger["bfs"] >= ref.round_ledger["bfs"]
        res.well_formed.tree.validate()

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="rooting"):
            build_well_formed_tree(
                G.line_graph(16), rng=np.random.default_rng(13), rooting="typo"
            )

    @pytest.mark.parametrize("mode", ["protocol", "soa"])
    def test_disconnected_input_rejected_in_message_modes(self, mode):
        mix, _ = G.component_mixture([G.line_graph(8), G.line_graph(8)])
        with pytest.raises(ValueError, match="disconnected"):
            build_well_formed_tree(
                mix, rng=np.random.default_rng(14), rooting=mode
            )


class TestMessageLevelExpanderContext:
    """The pipeline's ``ctx`` reaches the message-level expander's network,
    not only the rooting one."""

    @staticmethod
    def build(ctx):
        return build_well_formed_tree(
            G.cycle_graph(64),
            rng=np.random.default_rng(2),
            expander="soa",
            rooting="soa",
            ctx=ctx,
        )

    def test_ctx_tracer_records_the_expander_rounds(self):
        from repro.obs import Tracer
        from repro.runtime import RunContext

        tracer = Tracer()
        result = self.build(RunContext.resolve(tracer=tracer))
        expander_table, rooting_table = tracer.tables_of("net")
        assert len(expander_table) == result.round_ledger["evolutions"]
        assert len(rooting_table) == result.round_ledger["bfs"]
        assert int(expander_table.column("sent").sum()) > 0

    def test_ctx_workers_give_the_same_tree(self):
        import hashlib

        from repro.runtime import RunContext

        def sha(result):
            return hashlib.sha1(
                result.expander.final_graph.ports.tobytes()
                + result.bfs.parent.tobytes()
                + result.bfs.depth.tobytes()
                + result.tree.parent.tobytes()
            ).hexdigest()

        shas = {w: sha(self.build(RunContext.resolve(workers=w))) for w in (1, 2)}
        assert shas[1] == shas[2]
