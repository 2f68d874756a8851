"""S4 — adversarial scenario scaling: the columnar synchroniser story.

ISSUE 4's acceptance bar.  The footnote-2 synchroniser used to be the
last per-node-only surface of the stack: delay/churn experiments paid one
Python call per node per round, capping adversarial sweeps at small
``n``.  The SoA synchroniser (`repro.scenarios.soa_sync`) holds the whole
population's in-flight traffic in one flat delay queue (release-time
column + stable bucketing), so a delayed round costs the same one call as
a synchronous SoA round.

Measured here, on the ring-plus-chords stand-in shared with S3:

- an exact **≥ 12-seed equivalence matrix** before anything is timed:
  the SoA synchroniser is bit-for-bit equal to the per-node synchroniser
  *and* to the synchronous execution under the same seed (tree, metrics,
  rounds, delay observations);
- wall-clock of the per-node synchroniser (object nodes through
  ``run_with_asynchrony``) vs. the SoA synchroniser on the same delayed
  rooting workload — both on vectorized delivery — with a **hard
  assert**: SoA ≥ 5× at ``n = 10⁴``;
- a delay-scenario run completing at ``n = 10⁵`` on the SoA tier (a
  scale the per-node synchroniser cannot reach in reasonable time);
- a named delay × drop × churn scenario grid executed on **both
  tiers** with identical fault streams per seed (differential check via
  ``tier_invariant_view``), written as machine-readable JSON.

Run standalone:
``PYTHONPATH=src python benchmarks/bench_s4_scenario_scaling.py``
(``--smoke`` for the ~60 s CI variant — same hard assert; ``--engine``
restricts the timed stacks; ``--json PATH`` sets the result file).
"""

import argparse
import math
import sys
import time

import numpy as np

from repro.core.protocol_tree import run_rooting_under_asynchrony
from repro.core.soa_rooting import run_soa_rooting
from repro.experiments.harness import Table, add_engine_argument, tier_filter
from repro.graphs.portgraph import PortGraph
from repro.scenarios import SCENARIO_GRIDS, ScenarioRunner
from repro.scenarios.runner import tier_invariant_view

#: The synchronisers this bench times — there is no legacy-engine stack
#: here (the SoA tier requires vectorized delivery), so the restriction
#: flag rejects ``legacy`` loudly instead of silently timing nothing.
SYNCHRONISER_CHOICES = ("vectorized", "soa")
FULL_SIZES = (2_000, 10_000, 30_000)
SMOKE_SIZES = (2_000, 10_000)
SOA_ONLY_DELAY_N = 100_000
ASSERT_N = 10_000
ASSERT_FACTOR = 5.0
MAX_DELAY = 4
DELTA = 16
NUM_CHORD_SETS = 2
EQUIVALENCE_SEEDS = 12
GRID_N = 512
GRID_SEEDS = (0, 1)


def overlay_like_graph(n: int, seed: int) -> PortGraph:
    """The S3 ring-plus-chords family (shared in PortGraph)."""
    return PortGraph.ring_with_chords(n, delta=DELTA, chords=NUM_CHORD_SETS, seed=seed)


def _flood_rounds(n: int) -> int:
    return max(1, math.ceil(math.log2(max(2, n)))) + 8


def _time(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_equivalence(seeds: int = EQUIVALENCE_SEEDS) -> None:
    """SoA synchroniser ≡ per-node synchroniser ≡ synchronous run,
    bit-for-bit, over a seed matrix (the ISSUE 4 acceptance equality)."""
    for seed in range(seeds):
        n = 96 + 16 * (seed % 4)
        graph = overlay_like_graph(n, seed=n + seed)
        fr = _flood_rounds(n)
        sync = run_soa_rooting(graph, fr, rng=np.random.default_rng(seed))
        per_node, rep_b = run_rooting_under_asynchrony(
            graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(seed), tier="object"
        )
        soa, rep_s = run_rooting_under_asynchrony(
            graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(seed), tier="soa"
        )
        for name, run in (("per-node-sync", per_node), ("soa-sync", soa)):
            assert run.root == sync.root, f"{name} disagrees on the root (seed {seed})"
            assert np.array_equal(run.parent, sync.parent), f"{name} parents (seed {seed})"
            assert np.array_equal(run.depth, sync.depth), f"{name} depths (seed {seed})"
            assert run.metrics.as_dict() == sync.metrics.as_dict(), (
                f"{name} metrics (seed {seed})"
            )
            assert run.rounds == sync.rounds, f"{name} rounds (seed {seed})"
        # The two synchronisers must also agree on the asynchronous story.
        assert (rep_b.logical_rounds, rep_b.elapsed_time_units, rep_b.observed_max_delay, rep_b.converged) == (
            rep_s.logical_rounds, rep_s.elapsed_time_units, rep_s.observed_max_delay, rep_s.converged,
        ), f"synchroniser reports diverge (seed {seed})"


def run_experiment(smoke: bool, engine_filter: str | None = None):
    check_equivalence()
    sizes = SMOKE_SIZES if smoke else FULL_SIZES

    table = Table(
        "S4: synchroniser scaling (delayed min-id flooding + BFS, max_delay=4)",
        ["n", "flood_rounds", "synchroniser", "seconds", "msgs/sec", "dilation"],
    )
    rows = {}

    def record(n, stack, seconds, result, report):
        rate = result.metrics.total_messages / seconds if seconds > 0 else float("inf")
        table.add(n, _flood_rounds(n), stack, round(seconds, 3), int(rate), report.dilation)
        rows[(n, stack)] = seconds

    for n in sizes:
        graph = overlay_like_graph(n, seed=n)
        fr = _flood_rounds(n)
        repeats = 1 if smoke else 2

        if engine_filter in (None, "soa"):
            result, report = run_rooting_under_asynchrony(
                graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(1), tier="soa"
            )
            seconds = _time(
                lambda: run_rooting_under_asynchrony(
                    graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(1), tier="soa"
                ),
                repeats,
            )
            record(n, "soa", seconds, result, report)

        if engine_filter in (None, "vectorized"):
            result, report = run_rooting_under_asynchrony(
                graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(1), tier="object"
            )
            # Same best-of-N as the SoA stack: the asserted ratio compares
            # best-of-2 with best-of-2, not with best-of-1.
            seconds = _time(
                lambda: run_rooting_under_asynchrony(
                    graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(1), tier="object"
                ),
                repeats,
            )
            record(n, "per-node", seconds, result, report)

    # The n = 10⁵ delay-scenario demonstration: completing IS the check
    # (the runner validates the tree spans with a unique root).
    if engine_filter in (None, "soa"):
        n = SOA_ONLY_DELAY_N
        graph = overlay_like_graph(n, seed=n)
        fr = _flood_rounds(n)
        start = time.perf_counter()
        result, report = run_rooting_under_asynchrony(
            graph, fr, max_delay=MAX_DELAY, rng=np.random.default_rng(1), tier="soa"
        )
        record(n, "soa", time.perf_counter() - start, result, report)
        assert result.metrics.total_drops == 0
        assert report.converged

    table.show()

    speedup = None
    if engine_filter is None:
        t_soa = rows[(ASSERT_N, "soa")]
        t_per_node = rows[(ASSERT_N, "per-node")]
        speedup = t_per_node / t_soa
        print(
            f"n={ASSERT_N}: SoA-synchroniser over object nodes speedup {speedup:.1f}x"
        )
        assert speedup >= ASSERT_FACTOR, (
            f"SoA synchroniser only {speedup:.1f}x faster than the per-node "
            f"synchroniser at n={ASSERT_N} (need >= {ASSERT_FACTOR}x)"
        )
    return rows, speedup


def run_scenario_grid(grid: str = "smoke") -> dict:
    """The named grid on both tiers + the identical-fault-stream
    differential check (ISSUE 4's ScenarioRunner acceptance)."""
    runner = ScenarioRunner(sizes=(GRID_N,), seeds=GRID_SEEDS, tiers=("object", "soa"))
    payload = runner.run_grid(grid)
    cells: dict[tuple, list[dict]] = {}
    for row in payload["rows"]:
        key = (row["scenario"]["name"], row["n"], row["seed"])
        cells.setdefault(key, []).append(row)
    for key, tier_rows in cells.items():
        views = [tier_invariant_view(r) for r in tier_rows]
        assert all(v == views[0] for v in views[1:]), (
            f"tiers diverge under identical fault streams: {key}"
        )
    converged = sum(r["converged"] for r in payload["rows"])
    print(
        f"scenario grid '{payload['grid']}': {len(payload['rows'])} cells on "
        f"{len(payload['tiers'])} tiers, {converged} converged, "
        f"tier-differential check passed"
    )
    return payload


def bench_s4_scenario_scaling(benchmark):
    from _common import run_once

    run_once(benchmark, lambda: run_experiment(smoke=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="~60s CI variant (same 5x hard assert)"
    )
    parser.add_argument(
        "--grid",
        default="smoke",
        choices=sorted(SCENARIO_GRIDS),
        help="named scenario grid to execute",
    )
    parser.add_argument(
        "--json",
        default="bench_s4_results.json",
        help="path for the machine-readable results payload",
    )
    add_engine_argument(parser, choices=SYNCHRONISER_CHOICES)
    args = parser.parse_args(argv)
    engine_filter = tier_filter("engine", args.engine, choices=SYNCHRONISER_CHOICES)
    rows, speedup = run_experiment(smoke=args.smoke, engine_filter=engine_filter)
    grid_payload = run_scenario_grid(args.grid)
    from _common import bench_payload, write_bench_json

    payload = bench_payload(
        "s4_scenario_scaling",
        config={
            "smoke": args.smoke,
            "engine_filter": engine_filter,
            "max_delay": MAX_DELAY,
        },
        rows=[
            {"n": n, "synchroniser": stack, "seconds": round(secs, 4)}
            for (n, stack), secs in sorted(rows.items())
        ],
        checks={
            "soa_speedup_at_assert_n": round(speedup, 2) if speedup else None,
        },
        extra={"grid": grid_payload},
    )
    write_bench_json(args.json, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
