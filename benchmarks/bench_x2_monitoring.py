"""X2 — §1.4 corollary: monitoring in O(log n) instead of O(log² n).

Paper claim: *"Every monitoring problem presented in [27] can be solved
in time O(log n), w.h.p., instead of O(log² n) deterministically"* —
node/edge counts and bipartiteness become single aggregations once a
well-formed tree exists.

Measured here: per-query round costs over the well-formed tree vs. the
``Θ(log² n)`` supernode machinery of [27] (whose round cost the E7
baseline measures), plus correctness of every monitor.

The overlay construction's rooting phase (and hence the whole path into
the monitors) runs on the execution tier selected by the ``REPRO_ROOTING``
environment variable (``reference`` / ``protocol`` / ``soa``)
— every tier builds the identical tree, so the measured rounds are
tier-independent.
"""

import math

import networkx as nx

from _common import run_once, seeded
from repro.baselines import supernode_merge
from repro.core.pipeline import build_well_formed_tree
from repro.experiments.harness import Table, select_tier
from repro.graphs import generators as G
from repro.hybrid.monitoring import NetworkMonitor
from repro.runtime import RunContext


def bench_x2_monitor_battery(benchmark):
    rooting = select_tier("rooting", default="soa")
    # One resolved context carries the tier into every network the
    # builds below construct.
    ctx = RunContext.resolve(rooting=rooting)

    def experiment():
        table = Table(
            f"X2: monitoring query rounds (rooting={rooting} tree vs [27] machinery)",
            ["n", "query", "value", "correct", "rounds", "log2n", "merge_rounds(log^2)"],
        )
        rows = []
        for n in (128, 512):
            g = G.torus_2d(int(math.isqrt(n)), int(math.isqrt(n)))
            n_actual = g.number_of_nodes()
            overlay = build_well_formed_tree(g, rng=seeded(n), ctx=ctx)
            monitor = NetworkMonitor(g, tree=overlay.tree)
            merge_rounds = supernode_merge(g).total_rounds
            truth = {
                "node_count": n_actual,
                "edge_count": g.number_of_edges(),
                "max_degree": max(d for _, d in g.degree),
                "is_bipartite": nx.is_bipartite(g),
            }
            for query, expected in truth.items():
                report = getattr(monitor, query)()
                correct = report.value == expected
                table.add(
                    n_actual,
                    query,
                    report.value,
                    correct,
                    report.rounds,
                    round(math.log2(n_actual), 1),
                    merge_rounds,
                )
                rows.append((n_actual, query, correct, report.rounds, merge_rounds))
        table.show()
        return rows

    rows = run_once(benchmark, experiment)
    for n, query, correct, rounds, merge_rounds in rows:
        assert correct, f"{query} wrong at n={n}"
        if query != "is_bipartite":  # bipartiteness also pays the BFS
            assert rounds <= 2 * math.log2(n) + 2
        assert rounds < merge_rounds
