"""Asynchronous simulation tests (paper footnote 2)."""

import numpy as np
import pytest

from repro.net.asynchrony import run_with_asynchrony
from repro.net.message import Message
from repro.net.network import CapacityPolicy, ProtocolNode


class CounterNode(ProtocolNode):
    """Passes a counter around a ring for a fixed number of laps."""

    def __init__(self, node_id, n, laps):
        super().__init__(node_id)
        self.n = n
        self.remaining = laps * n if node_id == 0 else None
        self.seen = 0
        self.done = node_id != 0

    def on_round(self, round_no, inbox):
        out = []
        if round_no == 0 and self.node_id == 0:
            out.append(Message(0, 1 % self.n, "tok", self.remaining - 1))
            return out
        for msg in inbox:
            self.seen += 1
            if msg.payload > 0:
                out.append(
                    Message(self.node_id, (self.node_id + 1) % self.n, "tok", msg.payload - 1)
                )
            self.done = True
        return out

    def is_idle(self):
        return True  # quiescence = no messages in flight


def make_ring(n, laps):
    return {v: CounterNode(v, n, laps) for v in range(n)}


class TestSynchronizer:
    def test_results_match_synchronous_run(self):
        from repro.net.network import SyncNetwork

        sync_nodes = make_ring(6, laps=2)
        net = SyncNetwork(sync_nodes, CapacityPolicy.unbounded(), np.random.default_rng(0))
        net.run(max_rounds=50)

        async_nodes = make_ring(6, laps=2)
        report, _net = run_with_asynchrony(
            async_nodes,
            CapacityPolicy.unbounded(),
            np.random.default_rng(0),
            max_delay=5,
            max_rounds=50,
        )
        for v in range(6):
            assert async_nodes[v].seen == sync_nodes[v].seen

    def test_elapsed_time_is_rounds_times_delay(self):
        report, _ = run_with_asynchrony(
            make_ring(4, laps=1),
            CapacityPolicy.unbounded(),
            np.random.default_rng(1),
            max_delay=7,
            max_rounds=30,
        )
        assert report.elapsed_time_units == report.logical_rounds * 7
        assert report.dilation == 7.0

    def test_observed_delay_bounded(self):
        report, _ = run_with_asynchrony(
            make_ring(5, laps=2),
            CapacityPolicy.unbounded(),
            np.random.default_rng(2),
            max_delay=4,
            max_rounds=40,
        )
        assert 1 <= report.observed_max_delay <= 4

    def test_invalid_delay(self):
        with pytest.raises(ValueError):
            run_with_asynchrony(
                make_ring(3, laps=1),
                CapacityPolicy.unbounded(),
                np.random.default_rng(3),
                max_delay=0,
                max_rounds=5,
            )

    def test_dilation_of_empty_run(self):
        from repro.net.asynchrony import AsyncReport

        report = AsyncReport(
            logical_rounds=0, max_delay=3, elapsed_time_units=0, observed_max_delay=0
        )
        assert report.dilation == 0.0


class SprayNode(ProtocolNode):
    """Over-budget sender: which subset survives depends on the network's
    truncation RNG, so any perturbation of the delivery stream shows up in
    the received logs."""

    def __init__(self, node_id, n, rounds):
        super().__init__(node_id)
        self.n = n
        self.rounds = rounds
        self.received = []

    def on_round(self, round_no, inbox):
        self.received.append(sorted((m.sender, m.payload) for m in inbox))
        if round_no >= self.rounds:
            return []
        return [
            Message(self.node_id, (self.node_id + k) % self.n, "x", round_no * 100 + k)
            for k in range(1, 7)
        ]

    def is_idle(self):
        return True


def make_spray(n=8, rounds=4):
    return {v: SprayNode(v, n, rounds) for v in range(n)}


class TestSplitRngEquivalence:
    """Regression for the RNG bleed: delay sampling used to draw from the
    delivery generator, so a capacity-truncated protocol diverged from its
    synchronous execution under the same seed."""

    TIGHT = CapacityPolicy(max_send=3, max_receive=3)

    def test_seed_matched_executions_identical(self):
        from repro.net.network import SyncNetwork

        sync_nodes = make_spray()
        SyncNetwork(sync_nodes, self.TIGHT, np.random.default_rng(11)).run(max_rounds=10)

        async_nodes = make_spray()
        report, _ = run_with_asynchrony(
            async_nodes, self.TIGHT, np.random.default_rng(11), max_delay=4, max_rounds=10
        )
        assert report.converged
        for v in sync_nodes:
            assert async_nodes[v].received == sync_nodes[v].received

    def test_truncation_actually_draws_randomness(self):
        # The workload must exercise the delivery RNG for the regression
        # test above to mean anything.
        from repro.net.network import SyncNetwork

        nodes = make_spray()
        net = SyncNetwork(nodes, self.TIGHT, np.random.default_rng(11))
        net.run(max_rounds=10)
        assert net.metrics.total_drops > 0


class Babbler(ProtocolNode):
    """Never quiesces: one message per round, forever."""

    def __init__(self, node_id, n):
        super().__init__(node_id)
        self.n = n

    def on_round(self, round_no, inbox):
        return [Message(self.node_id, (self.node_id + 1) % self.n, "b", round_no)]

    def is_idle(self):
        return True  # quiescence still blocked by in-flight messages


class TestNonConvergence:
    def test_truncated_run_raises_by_default(self):
        nodes = {v: Babbler(v, 3) for v in range(3)}
        with pytest.raises(RuntimeError, match="did not quiesce"):
            run_with_asynchrony(
                nodes, CapacityPolicy.unbounded(), np.random.default_rng(0),
                max_delay=2, max_rounds=5,
            )

    def test_truncated_run_flagged_when_opted_out(self):
        nodes = {v: Babbler(v, 3) for v in range(3)}
        report, _ = run_with_asynchrony(
            nodes, CapacityPolicy.unbounded(), np.random.default_rng(0),
            max_delay=2, max_rounds=5, require_quiescence=False,
        )
        assert not report.converged
        assert report.logical_rounds == 5

    def test_converged_run_is_flagged_converged(self):
        report, _ = run_with_asynchrony(
            make_ring(4, laps=1), CapacityPolicy.unbounded(),
            np.random.default_rng(1), max_delay=3, max_rounds=30,
        )
        assert report.converged


class TestEngineSelection:
    @pytest.mark.parametrize("engine", ["legacy", "vectorized"])
    def test_engines_agree_under_asynchrony(self, engine):
        baseline_nodes = make_spray()
        run_with_asynchrony(
            baseline_nodes, TestSplitRngEquivalence.TIGHT,
            np.random.default_rng(3), max_delay=3, max_rounds=10,
        )
        nodes = make_spray()
        run_with_asynchrony(
            nodes, TestSplitRngEquivalence.TIGHT,
            np.random.default_rng(3), max_delay=3, max_rounds=10, engine=engine,
        )
        for v in nodes:
            assert nodes[v].received == baseline_nodes[v].received


class TestDropWorkloadsAcrossTiers:
    """``require_quiescence=False`` under adversarial drop workloads on
    both node tiers (object vs. SoA): seed-matched
    ``report.converged`` and round ledgers must coincide exactly."""

    N = 96
    SEEDS = range(6)

    @staticmethod
    def _run(tier, seed, drop_p):
        import math

        from repro.core.protocol_tree import build_rooting_population
        from repro.graphs.portgraph import PortGraph
        from repro.net.network import CapacityPolicy
        from repro.scenarios import MessageDrop, ScenarioSpec

        n = TestDropWorkloadsAcrossTiers.N
        graph = PortGraph.ring_with_chords(n, delta=16, chords=2, seed=7)
        fr = max(1, math.ceil(math.log2(n))) + 4
        spec = ScenarioSpec(
            name="drop", drop=MessageDrop(drop_p), fault_seed=seed
        )
        population = build_rooting_population(graph, fr, tier)
        report, network = run_with_asynchrony(
            population,
            CapacityPolicy.ncc0(n, graph.delta),
            np.random.default_rng(seed),
            max_delay=3,
            max_rounds=3 * fr,
            require_quiescence=False,
            fault_hook=spec.compile(n),
        )
        if tier == "soa":
            parent = population.parent.copy()
        else:
            parent = np.fromiter(
                (population[v].parent for v in range(n)), dtype=np.int64, count=n
            )
        return report, network.metrics.as_dict(), parent

    @pytest.mark.parametrize("seed", SEEDS)
    def test_object_and_soa_seed_matched(self, seed):
        drop_p = 0.4
        rep_obj, metrics_obj, parent_obj = self._run("object", seed, drop_p)
        rep, metrics, parent = self._run("soa", seed, drop_p)
        assert rep.converged == rep_obj.converged
        assert rep.logical_rounds == rep_obj.logical_rounds
        assert rep.elapsed_time_units == rep_obj.elapsed_time_units
        assert rep.observed_max_delay == rep_obj.observed_max_delay
        assert metrics == metrics_obj
        assert np.array_equal(parent, parent_obj)

    def test_heavy_drops_actually_starve_some_seed(self):
        # The matrix above must include real non-convergence to mean
        # anything: under 40% link loss at least one seed's BFS offers
        # are destroyed and the run is flagged (never raised).
        outcomes = [self._run("soa", seed, 0.4)[0].converged for seed in self.SEEDS]
        assert not all(outcomes)
        assert any(outcomes)

    def test_faulted_runs_report_fault_drops(self):
        _, metrics, _ = self._run("object", 0, 0.4)
        assert metrics["fault_drops"] > 0
