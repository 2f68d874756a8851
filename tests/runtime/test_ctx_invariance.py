"""Context-path vs kwarg-shim bit-for-bit equivalence (ISSUE 10 bar).

The refactor's acceptance criterion: threading one resolved
:class:`~repro.runtime.context.RunContext` through an entry point
produces *identical* trees, labels, and scenario rows to the historical
kwarg spelling — across tiers, seeds, and worker counts.  Anything
less means the context changed execution, not just configuration.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.batch_protocol import run_soa_expander
from repro.core.protocol import run_protocol_expander
from repro.core.protocol_tree import run_protocol_rooting
from repro.core.pipeline import build_well_formed_tree
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs import generators as G
from repro.graphs.churn import rebuild_survivor_overlay
from repro.graphs.portgraph import PortGraph
from repro.runtime import RunContext

SEEDS = range(12)
FLOOD_ROUNDS = 16
N = 96


def tree_sha(result) -> str:
    return hashlib.sha1(
        result.parent.tobytes() + result.depth.tobytes()
    ).hexdigest()


def rooting_graph(seed: int) -> PortGraph:
    return PortGraph.ring_with_chords(N, delta=16, chords=2, seed=seed)


class TestRootingInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_soa_ctx_matches_shim(self, seed):
        graph = rooting_graph(seed)
        shim = run_soa_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        ctx = RunContext.resolve()
        via_ctx = run_soa_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed), ctx=ctx
        )
        assert tree_sha(via_ctx) == tree_sha(shim)
        assert via_ctx.metrics.as_dict() == shim.metrics.as_dict()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_soa_workers_invariant_through_ctx(self, workers):
        graph = rooting_graph(0)
        baseline = run_soa_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(0))
        ctx = RunContext.resolve(workers=workers)
        sharded = run_soa_rooting(
            graph, FLOOD_ROUNDS, rng=np.random.default_rng(0), ctx=ctx
        )
        assert tree_sha(sharded) == tree_sha(baseline)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_ctx_matches_shim(self, seed):
        graph = rooting_graph(seed)
        shim = run_protocol_rooting(graph, FLOOD_ROUNDS, rng=np.random.default_rng(seed))
        via_ctx = run_protocol_rooting(
            graph,
            FLOOD_ROUNDS,
            rng=np.random.default_rng(seed),
            ctx=RunContext.resolve(),
        )
        assert tree_sha(via_ctx) == tree_sha(shim)


class TestExpanderInvariance:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_object_and_soa_same_ports_through_ctx(self, workers):
        ctx = RunContext.resolve(workers=workers)
        line = G.line_graph(40)
        obj = run_protocol_expander(line, rng=np.random.default_rng(4), ctx=ctx)
        soa = run_soa_expander(line, rng=np.random.default_rng(4), ctx=ctx)
        assert np.array_equal(obj.final_graph.ports, soa.final_graph.ports)
        assert obj.metrics.as_dict() == soa.metrics.as_dict()


class TestPipelineInvariance:
    @pytest.mark.parametrize("rooting", ("reference", "protocol", "soa"))
    def test_build_tree_ctx_matches_kwargs(self, rooting):
        ring = G.cycle_graph(64)
        shim = build_well_formed_tree(
            ring, rng=np.random.default_rng(3), rooting=rooting
        )
        ctx = RunContext.resolve(rooting=rooting)
        via_ctx = build_well_formed_tree(ring, rng=np.random.default_rng(3), ctx=ctx)
        assert np.array_equal(via_ctx.bfs.parent, shim.bfs.parent)
        assert np.array_equal(via_ctx.bfs.depth, shim.bfs.depth)
        assert via_ctx.round_ledger == shim.round_ledger

    def test_explicit_kwarg_beats_context_field(self):
        """The shim merge: an explicit rooting kwarg wins over ctx.rooting."""
        ring = G.cycle_graph(48)
        ctx = RunContext.resolve(rooting="reference")
        overridden = build_well_formed_tree(
            ring, rng=np.random.default_rng(5), rooting="protocol", ctx=ctx
        )
        plain = build_well_formed_tree(
            ring, rng=np.random.default_rng(5), rooting="protocol"
        )
        assert np.array_equal(overridden.bfs.parent, plain.bfs.parent)


class TestChurnRebuildInvariance:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_theorem11_rebuild_ctx_matches_shim(self, seed):
        graph = G.complete_graph(40)
        shim = rebuild_survivor_overlay(graph, 0.3, np.random.default_rng(seed))
        # The shim default runs the SoA rooting tier; the context
        # spelling pins the same mode explicitly.
        ctx = RunContext.resolve(rooting="soa", expander="walks")
        via_ctx = rebuild_survivor_overlay(
            graph, 0.3, np.random.default_rng(seed), ctx=ctx
        )
        assert np.array_equal(via_ctx.survivors, shim.survivors)
        assert np.array_equal(via_ctx.overlay.bfs.parent, shim.overlay.bfs.parent)
        assert via_ctx.overlay.round_ledger == shim.overlay.round_ledger

    @pytest.mark.parametrize("seed", range(3))
    def test_hybrid_rebuild_ctx_matches_shim(self, seed):
        graph = PortGraph.ring_with_chords(150, delta=16, chords=2, seed=seed)
        shim = rebuild_survivor_overlay(
            graph, 0.15, np.random.default_rng(seed), hybrid="soa"
        )
        via_ctx = rebuild_survivor_overlay(
            graph,
            0.15,
            np.random.default_rng(seed),
            hybrid="soa",
            ctx=RunContext.resolve(workers=2),
        )
        assert np.array_equal(via_ctx.survivors, shim.survivors)
        assert np.array_equal(via_ctx.overlay.labels, shim.overlay.labels)
        assert np.array_equal(
            via_ctx.overlay.forest.parent, shim.overlay.forest.parent
        )
        assert via_ctx.overlay.ledger.summary() == shim.overlay.ledger.summary()

    def test_ctx_never_selects_hybrid_mode(self):
        """hybrid=None always means the Theorem 1.1 rebuild, even when the
        context carries a hybrid tier."""
        graph = G.complete_graph(40)
        ctx = RunContext.resolve(
            rooting="soa", expander="walks", hybrid="soa"
        )
        result = rebuild_survivor_overlay(graph, 0.3, np.random.default_rng(1), ctx=ctx)
        # A Theorem 1.1 SurvivorRebuild has a bfs tree, not hybrid labels.
        assert hasattr(result.overlay, "bfs")


class TestScenarioRowInvariance:
    @pytest.mark.parametrize("workload", ("rooting", "churn-rebuild"))
    def test_runner_ctx_matches_plain(self, workload):
        from repro.scenarios import ScenarioSpec
        from repro.scenarios.runner import ScenarioRunner

        tiers = ("object", "soa")
        spec = ScenarioSpec(name="invariance/baseline")
        plain = ScenarioRunner(
            sizes=(96,), seeds=(0, 1), tiers=tiers, workload=workload
        ).run_spec(spec)
        via_ctx = ScenarioRunner(
            sizes=(96,),
            seeds=(0, 1),
            tiers=tiers,
            workload=workload,
            ctx=RunContext.resolve(workers=2),
        ).run_spec(spec)
        from repro.scenarios.runner import tier_invariant_view

        assert [tier_invariant_view(r) for r in via_ctx] == [
            tier_invariant_view(r) for r in plain
        ]
