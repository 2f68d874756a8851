"""Contract C7 at runtime: a traced execution IS the untraced one.

Tracing must never perturb what it observes — same trees, same metrics,
same scenario rows, at every tier and worker count, whether the tracer
arrives by kwarg, ambient :func:`~repro.obs.capture`, or the
``REPRO_WORKERS``-sharded delivery tail.  The matrices here are the
runtime half of the contract; the RL5xx repro-lint rules are the static
half.
"""

import hashlib
import time

import numpy as np
import pytest

from repro.core.protocol_tree import run_protocol_rooting
from repro.core.soa_rooting import run_soa_rooting
from repro.graphs.portgraph import PortGraph
from repro.net.shard import WORKERS_ENV
from repro.obs import Tracer, capture
from repro.obs.tracer import _reset_ambient_for_tests
from repro.scenarios import CrashWave, ScenarioSpec
from repro.scenarios.runner import run_rooting_scenario, tier_invariant_view

SEEDS = tuple(range(12))
N = 128
FLOOD = 12


@pytest.fixture(autouse=True)
def clean_ambient():
    _reset_ambient_for_tests()
    yield
    _reset_ambient_for_tests()


def graph_for(seed: int) -> PortGraph:
    return PortGraph.ring_with_chords(N, delta=8, chords=1, seed=seed)


def sha(result) -> str:
    return hashlib.sha1(
        result.parent.tobytes() + result.depth.tobytes()
    ).hexdigest()


RUNNERS = {
    "object": lambda g, s, **kw: run_protocol_rooting(
        g, FLOOD, rng=np.random.default_rng(s), engine="legacy"
    ),
    "object-vectorized": lambda g, s, **kw: run_protocol_rooting(
        g, FLOOD, rng=np.random.default_rng(s)
    ),
    "soa": lambda g, s, **kw: run_soa_rooting(
        g, FLOOD, rng=np.random.default_rng(s), **kw
    ),
}


@pytest.mark.parametrize("tier", sorted(RUNNERS))
def test_traced_equals_untraced_across_tiers(tier):
    """12-seed matrix per tier: ambient capture() wires the tier's
    networks with zero kwarg plumbing, and nothing changes."""
    run = RUNNERS[tier]
    for seed in SEEDS:
        graph = graph_for(seed)
        base = run(graph, seed)
        with capture() as tracer:
            traced = run(graph, seed)
        assert sha(traced) == sha(base), f"tier={tier} seed={seed}"
        assert traced.metrics.as_dict() == base.metrics.as_dict()
        (net,) = tracer.tables_of("net")
        assert len(net) == base.metrics.rounds


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_traced_equals_untraced_across_worker_counts(workers):
    """The sharded delivery tail: traced and untraced runs agree at
    every worker count, and all counts agree with each other."""
    for seed in SEEDS[:4]:
        graph = graph_for(seed)
        base = run_soa_rooting(graph, FLOOD, rng=np.random.default_rng(seed))
        traced = run_soa_rooting(
            graph,
            FLOOD,
            rng=np.random.default_rng(seed),
            workers=workers,
            tracer=Tracer(),
        )
        assert sha(traced) == sha(base), f"workers={workers} seed={seed}"
        assert traced.metrics.as_dict() == base.metrics.as_dict()


def test_env_workers_path_traced(monkeypatch):
    """REPRO_WORKERS env sharding composes with tracing."""
    monkeypatch.setenv(WORKERS_ENV, "2")
    for seed in SEEDS[:4]:
        graph = graph_for(seed)
        base = run_soa_rooting(graph, FLOOD, rng=np.random.default_rng(seed))
        tracer = Tracer()
        traced = run_soa_rooting(
            graph, FLOOD, rng=np.random.default_rng(seed), tracer=tracer
        )
        assert sha(traced) == sha(base)
        # The sharded sort actually ran and was recorded.
        assert tracer.tables_of("shard"), "expected shard telemetry"


def test_scenario_rows_invariant_under_tracing():
    """A traced adversarial scenario cell produces the identical row
    (modulo wall clock) and a scenario span nesting the run."""
    spec = ScenarioSpec(
        name="trace/crash20",
        crashes=(CrashWave(round_no=2, fraction=0.2),),
        fault_seed=3,
    )
    graph = PortGraph.ring_with_chords(256, delta=8, chords=1, seed=0)
    base = run_rooting_scenario(graph, spec, seed=0, tier="soa")
    tracer = Tracer()
    traced = run_rooting_scenario(
        graph, spec, seed=0, tier="soa", tracer=tracer
    )
    assert tier_invariant_view(traced) == tier_invariant_view(base)
    scenario_spans = [sp for sp in tracer.spans if sp.cat == "scenario"]
    assert len(scenario_spans) == 1
    assert scenario_spans[0].name == "trace/crash20"
    assert scenario_spans[0].attrs["converged"] == traced["converged"]


def test_disabled_tracer_overhead_bounded():
    """Zero-overhead-when-off: after a capture() session exits, an
    untraced run must cost what it did before any tracer existed (the
    3% bar of docs/observability.md, plus absolute slack for timer
    noise at this small shape)."""
    graph = PortGraph.ring_with_chords(20_000, delta=16, chords=2, seed=1)

    def run():
        return run_soa_rooting(graph, 23, rng=np.random.default_rng(1))

    def best_of(k):
        best = float("inf")
        for _ in range(k):
            start = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - start)
        return best

    run()  # warm caches
    base = best_of(2)
    with capture():
        run()
    disabled = best_of(2)
    assert disabled <= base * 1.03 + 0.05, (
        f"disabled-tracer run regressed: {disabled:.4f}s vs {base:.4f}s"
    )
