"""S1 — Engine scaling: object nodes on the per-message path vs. the SoA tier.

The two tiers run the *same* NCC0 protocol (one ``CreateExpander``
evolution, calibrated parameters) and, under one seed, the bit-for-bit
identical execution:

- **object-nodes / legacy**: per-:class:`Message` objects through
  per-message Python loops — the seed's stack, kept as the
  differential-testing oracle;
- **soa-class / vectorized**: one :class:`SoAExpanderClass` advancing
  every node per round through the flat-buffer delivery tail of
  ``SyncNetwork(engine="vectorized")``.

Measured here: wall-clock per stack across sizes (SoA-only at the
largest sizes the object stack cannot reach in reasonable time), the
speedup, and — because speed without semantics is meaningless — an exact
cross-tier equivalence check at a differential-testable size.

Shape assertion (full mode): at ``n = 10⁴`` the SoA tier is ≥ 5× faster
than object nodes on the legacy engine.

Run standalone:  ``PYTHONPATH=src python benchmarks/bench_s1_engine_scaling.py``
(``--smoke`` for the ~30 s CI variant, ``--engine`` to restrict scaling
rows: ``legacy`` times the object stack, ``vectorized`` the SoA tier).
"""

import argparse
import sys
import time

import numpy as np

from repro.core.batch_protocol import run_soa_expander
from repro.core.params import ExpanderParams
from repro.core.protocol import run_protocol_expander
from repro.experiments.harness import (
    ENGINE_CHOICES,
    Table,
    add_engine_argument,
    tier_filter,
)
from repro.graphs import generators as G

FULL_SIZES = (1_000, 5_000, 10_000)
FULL_SOA_ONLY = (50_000,)
SMOKE_SIZES = (500, 2_000)
ASSERT_N = 10_000


def _params(n: int) -> ExpanderParams:
    return ExpanderParams.recommended(n, ell=16).with_evolutions(1)


def _time(fn, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def check_equivalence(n: int = 200) -> None:
    """Exact cross-engine and cross-tier agreement on a
    differential-testable size."""
    params = _params(n)
    g = G.line_graph(n)
    leg = run_protocol_expander(
        g, params=params, rng=np.random.default_rng(n), engine="legacy"
    )
    vec = run_protocol_expander(g, params=params, rng=np.random.default_rng(n))
    soa = run_soa_expander(g, params=params, rng=np.random.default_rng(n))
    for name, other in (("vectorized engine", vec), ("SoA tier", soa)):
        assert np.array_equal(other.final_graph.ports, leg.final_graph.ports), (
            f"{name} disagrees on the final graph"
        )
        assert other.metrics.as_dict() == leg.metrics.as_dict(), (
            f"{name} disagrees on metrics"
        )


def run_experiment(smoke: bool, engine_filter: str | None = None):
    check_equivalence()
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    soa_only = () if smoke else FULL_SOA_ONLY

    table = Table(
        "S1: round-engine scaling (one CreateExpander evolution)",
        ["n", "delta", "stack", "engine", "seconds", "msgs/sec"],
    )
    rows = {}

    def record(n, stack, engine, seconds, total_messages):
        params = _params(n)
        rate = total_messages / seconds if seconds > 0 else float("inf")
        table.add(n, params.delta, stack, engine, round(seconds, 3), int(rate))
        rows[(n, stack, engine)] = seconds

    def time_soa(n, g, repeats):
        params = _params(n)
        result = run_soa_expander(g, params=params, rng=np.random.default_rng(1))
        seconds = _time(
            lambda: run_soa_expander(g, params=params, rng=np.random.default_rng(1)),
            repeats,
        )
        record(n, "soa-class", "vectorized", seconds, result.metrics.total_messages)

    for n in sizes:
        params = _params(n)
        g = G.line_graph(n)
        repeats = 1 if smoke else 2

        if engine_filter in (None, "vectorized"):
            time_soa(n, g, repeats)

        if engine_filter in (None, "legacy"):
            result = run_protocol_expander(
                g, params=params, rng=np.random.default_rng(1), engine="legacy"
            )
            seconds = _time(
                lambda: run_protocol_expander(
                    g, params=params, rng=np.random.default_rng(1), engine="legacy"
                ),
                repeats,
            )
            record(n, "object-nodes", "legacy", seconds, result.metrics.total_messages)

    for n in soa_only:
        time_soa(n, G.line_graph(n), repeats=1)

    table.show()

    if not smoke and engine_filter is None:
        t_soa = rows[(ASSERT_N, "soa-class", "vectorized")]
        t_object = rows[(ASSERT_N, "object-nodes", "legacy")]
        speedup = t_object / t_soa
        print(f"n={ASSERT_N}: SoA-over-object speedup {speedup:.1f}x")
        assert speedup >= 5.0, (
            f"SoA tier only {speedup:.1f}x faster than object nodes on the "
            f"legacy engine at n={ASSERT_N} (need >= 5x)"
        )
    return rows


def bench_s1_engine_scaling(benchmark):
    from _common import run_once

    run_once(benchmark, lambda: run_experiment(smoke=False))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="~30s CI variant: small sizes, no asserts"
    )
    add_engine_argument(parser)
    parser.add_argument(
        "--json",
        default=None,
        help="write the machine-readable repro-bench/v1 payload here",
    )
    args = parser.parse_args(argv)
    # Filter only when the user chose an engine (CLI flag or REPRO_ENGINE
    # env var — tier_filter validates both and fails loudly on typos).
    engine_filter = tier_filter("engine", args.engine, choices=ENGINE_CHOICES)
    rows = run_experiment(smoke=args.smoke, engine_filter=engine_filter)
    if args.json:
        from _common import bench_payload, write_bench_json

        write_bench_json(
            args.json,
            bench_payload(
                "s1_engine_scaling",
                config={"smoke": args.smoke, "engine_filter": engine_filter},
                rows=[
                    {"n": n, "stack": stack, "engine": engine, "seconds": round(s, 4)}
                    for (n, stack, engine), s in sorted(rows.items())
                ],
            ),
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
