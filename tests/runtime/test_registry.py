"""Workload registry tests: declared tier support, lazy builders, and
the one consistent choice-listing validation message shared by every
layer that used to hand-roll the check."""

from __future__ import annotations

import pytest

from repro.runtime import (
    HYBRID_TIERS,
    ROOTING_TIERS,
    RunContext,
    WORKLOADS,
    get_workload,
    validate_tier,
)


class TestRegistryShape:
    def test_known_workloads(self):
        assert set(WORKLOADS) == {
            "rooting",
            "expander",
            "hybrid",
            "churn-rebuild",
            "supernode-merge",
            "pointer-jumping",
            "flooding",
        }

    def test_entries_are_self_named(self):
        for name, workload in WORKLOADS.items():
            assert workload.name == name

    def test_tier_fields_are_context_fields(self):
        context_fields = set(RunContext().__dataclass_fields__)
        for workload in WORKLOADS.values():
            assert workload.tier_field in context_fields

    def test_declared_tiers(self):
        assert WORKLOADS["rooting"].tiers == ROOTING_TIERS
        assert WORKLOADS["hybrid"].tiers == HYBRID_TIERS
        assert WORKLOADS["churn-rebuild"].tiers == HYBRID_TIERS
        assert WORKLOADS["supernode-merge"].tiers == ("object",)

    def test_builders_load(self):
        for workload in WORKLOADS.values():
            assert callable(workload.load()), workload.name


class TestValidation:
    def test_valid_tier_returned(self):
        assert validate_tier("hybrid", "soa") == "soa"
        assert validate_tier("rooting", "object") == "object"
        with pytest.raises(ValueError, match="rooting tier must be one of"):
            validate_tier("rooting", "batch")

    def test_invalid_tier_message_lists_choices(self):
        with pytest.raises(
            ValueError,
            match=r"hybrid tier must be one of \('object', 'soa'\), got 'warp'",
        ):
            validate_tier("hybrid", "warp")

    def test_message_is_consistent_across_workloads(self):
        for name in WORKLOADS:
            with pytest.raises(ValueError, match=f"{name} tier must be one of"):
                validate_tier(name, "warp")

    def test_unknown_workload(self):
        with pytest.raises(ValueError, match="unknown workload 'grooting'; known:"):
            get_workload("grooting")


class TestDedupedCallSites:
    """The three layers that owned private HYBRID_TIERS copies now raise
    the registry's message (the ISSUE 10 dedupe satellite)."""

    def test_components_site(self):
        import numpy as np

        from repro.graphs import generators as G
        from repro.hybrid.components import connected_components_hybrid

        mix, _ = G.component_mixture([G.cycle_graph(8)])
        with pytest.raises(ValueError, match="hybrid tier must be one of"):
            connected_components_hybrid(
                mix, rng=np.random.default_rng(0), tier="warp"
            )

    def test_churn_site(self):
        import numpy as np

        from repro.graphs.churn import rebuild_survivor_overlay
        from repro.graphs.portgraph import PortGraph

        graph = PortGraph.ring_with_chords(32, delta=16, chords=1, seed=0)
        with pytest.raises(ValueError, match="hybrid tier must be one of"):
            rebuild_survivor_overlay(
                graph, 0.1, np.random.default_rng(0), hybrid="warp"
            )

    def test_scenario_runner_site(self):
        from repro.scenarios.runner import ScenarioRunner

        # The runner validates against the registry entry, which reports
        # under the *workload* name — same shape, same choice listing.
        with pytest.raises(ValueError, match="churn-rebuild tier must be one of"):
            ScenarioRunner(workload="churn-rebuild", tiers=("warp",))

    def test_scenario_runner_rooting_site(self):
        from repro.scenarios.runner import ScenarioRunner

        with pytest.raises(ValueError, match="rooting tier must be one of"):
            ScenarioRunner(workload="rooting", tiers=("warp",))
