"""``MakeBenign`` — preparing an arbitrary input graph for CreateExpander.

Section 2.1 of the paper: given a weakly connected input graph of maximum
degree ``d = O(1)`` and parameters with ``2 d Λ ≤ Δ``, the graph is made
*benign* (Definition 2.1) in two steps:

1. every (bidirected) edge is copied ``Λ`` times, establishing the
   ``Λ``-sized minimum cut;
2. every node pads itself with self-loops up to degree exactly ``Δ``,
   which also makes the graph lazy (``≥ Δ/2`` self-loops) because the
   copied edges occupy at most ``Δ/2`` ports.

Directed inputs are bidirected first (each node "introduces itself" to its
out-neighbours — one extra round in the NCC0 model, charged by the
pipeline).

The module also provides :func:`check_benign`, the invariant oracle used by
the E2 experiment and throughout the tests: regularity and laziness are
read off the port array; the ``Λ``-cut is verified with Stoer–Wagner on
graphs small enough to afford it.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.core.params import ExpanderParams
from repro.graphs.portgraph import PortGraph
from repro.graphs.mincut import min_cut_of_portgraph

__all__ = ["BaseEdge", "BenignReport", "make_benign", "check_benign", "undirected_edge_list"]


@dataclass(frozen=True)
class BaseEdge:
    """Provenance record for a level-0 edge of the overlay hierarchy.

    ``u``/``v`` are the endpoints in the prepared graph; ``source`` is the
    undirected edge of the *original* input graph this copy descends from
    (identical for all ``Λ`` parallel copies).  The spanning-tree unwinding
    of Theorem 1.3 resolves level-0 edge ids through these records.
    """

    u: int
    v: int
    source: tuple[int, int]


@dataclass
class BenignReport:
    """Result of checking Definition 2.1 on a port graph."""

    is_regular: bool
    min_self_loops: int
    is_lazy: bool
    min_cut: int | None
    has_lambda_cut: bool | None

    def all_ok(self) -> bool:
        """True if every *checked* property holds (an unchecked cut — too
        large to verify — does not fail the report)."""
        cut_ok = self.has_lambda_cut is not False
        return self.is_regular and self.is_lazy and cut_ok


def undirected_edge_list(graph) -> tuple[int, list[tuple[int, int]]]:
    """Extract ``(n, edges)`` from a directed or undirected input graph.

    Directions are dropped (the paper treats the knowledge graph as
    undirected after the introduction round); self-loops and duplicate
    edges (including a multigraph's parallel edges) are removed.

    Raises
    ------
    ValueError
        If the node labels are not the integers ``0..n-1``; the message
        names the first offending label.
    """
    if isinstance(graph, (nx.Graph, nx.DiGraph)):
        n = graph.number_of_nodes()
        bad = next(
            (v for v in graph.nodes if not (isinstance(v, (int, np.integer)) and 0 <= v < n)),
            None,
        )
        if bad is not None:
            raise ValueError(
                f"node labels must be the integers 0..{n - 1}; label {bad!r} is "
                f"outside that range (relabel first, e.g. with "
                f"nx.convert_node_labels_to_integers)"
            )
        edges = {
            (min(a, b), max(a, b))
            for a, b in graph.edges()
            if a != b
        }
        return n, sorted(edges)
    raise TypeError(f"unsupported graph type: {type(graph)!r}")


def make_benign(
    graph,
    params: ExpanderParams,
) -> tuple[PortGraph, list[BaseEdge]]:
    """Prepare ``graph`` into a benign :class:`PortGraph` (§2.1 step 1).

    Returns the port graph and the level-0 edge registry (one entry per
    parallel copy; ``port_edge_ids`` of the result index into it).

    Raises
    ------
    ValueError
        If the copied edges would not fit lazily, i.e. some node has
        ``Λ · deg(v) > Δ/2`` — the caller should raise ``Δ`` (see
        :meth:`ExpanderParams.recommended`).
    """
    n, edges = undirected_edge_list(graph)
    if n < 2:
        raise ValueError("need at least 2 nodes")

    degree = np.zeros(n, dtype=np.int64)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    max_ports = int(degree.max(initial=0)) * params.lam
    if max_ports > params.delta // 2:
        raise ValueError(
            f"lam * max_degree = {max_ports} ports exceed delta/2 = "
            f"{params.delta // 2}; increase delta or reduce lam"
        )

    registry: list[BaseEdge] = []
    ends_a: list[int] = []
    ends_b: list[int] = []
    for a, b in edges:
        for _copy in range(params.lam):
            registry.append(BaseEdge(u=a, v=b, source=(a, b)))
            ends_a.append(a)
            ends_b.append(b)

    port_graph = PortGraph.from_edge_multiset(
        n=n,
        delta=params.delta,
        endpoints_a=np.array(ends_a, dtype=np.int64),
        endpoints_b=np.array(ends_b, dtype=np.int64),
    )
    return port_graph, registry


def check_benign(
    port_graph: PortGraph,
    params: ExpanderParams,
    check_cut: bool = True,
    cut_n_limit: int = 700,
    cut_target: int | None = None,
) -> BenignReport:
    """Verify Definition 2.1 on ``port_graph``.

    Regularity is structural (the port array is rectangular), so the check
    is that the array is well-formed and laziness holds.  The cut is
    verified with Stoer–Wagner when ``check_cut`` and ``n ≤ cut_n_limit``
    (cubic algorithm); otherwise ``min_cut``/``has_lambda_cut`` are None.

    ``cut_target`` defaults to ``params.maintained_cut_floor`` — the
    calibrated invariant for *evolution* graphs; pass ``params.lam`` when
    checking the freshly prepared ``G_0`` (whose cut is exactly the copy
    count).
    """
    if cut_target is None:
        cut_target = params.maintained_cut_floor
    loops = port_graph.self_loop_counts()
    min_loops = int(loops.min(initial=port_graph.delta))
    is_lazy = min_loops >= port_graph.delta // 2

    min_cut: int | None = None
    has_cut: bool | None = None
    if check_cut and port_graph.n <= cut_n_limit:
        min_cut = min_cut_of_portgraph(port_graph)
        has_cut = min_cut >= cut_target

    return BenignReport(
        is_regular=port_graph.delta == params.delta,
        min_self_loops=min_loops,
        is_lazy=is_lazy,
        min_cut=min_cut,
        has_lambda_cut=has_cut,
    )
