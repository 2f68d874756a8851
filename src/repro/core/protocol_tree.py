"""Message-level rooting phase: min-id flooding + BFS under NCC0.

Completes the message-level story of Theorem 1.1: after
:mod:`repro.core.protocol` has built the expander graph with enforced
capacities, this module executes the *rooting* phase (§2.1, footnote 8)
node-by-node on the same simulator:

1. **min-id flooding** — every node repeatedly announces the smallest
   identifier it has heard to all distinct neighbours; after
   ``O(diameter)`` = ``O(log n)`` rounds everyone agrees on the root;
2. **BFS** — the root announces depth 0; a node adopting a parent
   announces its depth next round; ties break towards the smaller
   offering id (the same rule as the reference BFS, so the two are
   cross-checkable).

Every announcement is a real message subject to the NCC0 send/receive
budgets.  A node sends at most one message per distinct neighbour per
round (≤ `Δ` = the capacity), so no drops occur — asserted by the tests.

Two tiers execute the identical protocol:

- :class:`_RootingNode` — per-:class:`~repro.net.message.Message` objects
  (:func:`run_protocol_rooting`), the plainly written oracle;
- :class:`repro.core.soa_rooting.SoARootingClass` — the whole population
  as int64 columns, one Python call per round
  (:func:`repro.core.soa_rooting.run_soa_rooting`), whose BFS offers
  carry ``(depth, offerer)`` pairs on the two payload lanes so the packet
  is self-contained.

Both produce bit-for-bit identical ``(root, parent, depth)`` arrays and
metrics under the same seed — enforced by
``tests/core/test_soa_engines.py`` against each other and against the
reference :mod:`repro.core.bfs`.

The final rebalancing (child–sibling + Euler tour) is charged
analytically by the pipeline (DESIGN.md §2.7); its message pattern is one
pointer-jump request per hosted tour element per round, which also fits
the ``O(Δ)`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.portgraph import PortGraph
from repro.net.asynchrony import AsyncReport, run_with_asynchrony
from repro.net.batch import KINDS
from repro.net.message import Message
from repro.net.network import CapacityPolicy, NetworkMetrics, ProtocolNode, SyncNetwork

__all__ = [
    "TreeProtocolResult",
    "ROOTING_TIERS",
    "build_rooting_population",
    "run_protocol_rooting",
    "run_rooting_under_asynchrony",
]

#: Execution tiers a rooting population can be built at (node
#: representation, orthogonal to the delivery engine) — authoritative in
#: :mod:`repro.runtime.context`, re-exported here for compatibility.
from repro.runtime import ROOTING_TIERS, RunContext  # noqa: E402

MIN_ID = KINDS.code("min_id")
BFS_OFFER = KINDS.code("bfs_offer")


class _RootingNode(ProtocolNode):
    """One node of the flooding + BFS protocol."""

    def __init__(self, node_id: int, neighbors: list[int], flood_rounds: int) -> None:
        super().__init__(node_id)
        self.neighbors = sorted(set(neighbors))
        self.flood_rounds = flood_rounds
        self.best = node_id
        self.parent = -1
        self.depth = -1
        self._announced_depth = False
        self._done = False

    def on_round(self, round_no: int, inbox: list[Message]) -> list[Message]:
        out: list[Message] = []
        if round_no <= self.flood_rounds:
            # Flooding phase: adopt and re-announce the minimum id.  The
            # inbox of round ``flood_rounds`` (messages *sent* in the last
            # flooding round) is still processed — discarding it would cut
            # the flood one hop short, so with ``flood_rounds == diameter``
            # several nodes would still believe themselves minimal.
            for msg in inbox:
                if msg.kind == "min_id" and msg.payload < self.best:
                    self.best = msg.payload
            if round_no < self.flood_rounds:
                out.extend(
                    Message(self.node_id, u, "min_id", self.best)
                    for u in self.neighbors
                )
                return out
            if self.best == self.node_id:
                # Flooding converged: the unique minimum roots the BFS.
                self.parent = self.node_id
                self.depth = 0

        offers = [
            msg for msg in inbox if msg.kind == "bfs_offer"
        ]
        if self.parent < 0 and offers:
            chosen = min(offers, key=lambda m: m.sender)
            self.parent = chosen.sender
            self.depth = int(chosen.payload) + 1
        if self.parent >= 0 and not self._announced_depth:
            self._announced_depth = True
            out.extend(
                Message(self.node_id, u, "bfs_offer", self.depth)
                for u in self.neighbors
                if u != self.parent
            )
        self._done = self.parent >= 0 and self._announced_depth
        return out

    def is_idle(self) -> bool:
        return self._done


@dataclass
class TreeProtocolResult:
    """Outcome of the message-level rooting phase."""

    root: int
    parent: np.ndarray
    depth: np.ndarray
    metrics: NetworkMetrics
    rounds: int


def _build_nodes(graph: PortGraph, flood_rounds: int) -> dict[int, ProtocolNode]:
    # The node constructor normalises with sorted(set(...)) itself.
    neighbor_sets = graph.neighbor_sets()
    return {
        v: _RootingNode(v, neighbor_sets[v], flood_rounds) for v in range(graph.n)
    }


def build_rooting_population(graph: PortGraph, flood_rounds: int, tier: str = "soa"):
    """Construct the rooting protocol at either execution tier.

    Returns a node dict (``"object"``) or the SoA population class
    (``"soa"``) — whatever :class:`~repro.net.network.SyncNetwork` (or
    the asynchrony synchronisers) accepts directly.  Both run the
    identical protocol; the scenario runner and the S4 bench select
    between them.
    """
    if tier == "soa":
        # Lazy import: soa_rooting imports this module at load time.
        from repro.core.soa_rooting import SoARootingClass, csr_neighbors

        return SoARootingClass(*csr_neighbors(graph), flood_rounds)
    if tier not in ROOTING_TIERS:
        from repro.runtime import validate_tier

        validate_tier("rooting", tier)
    return _build_nodes(graph, flood_rounds)


def _collect_result(
    nodes: dict[int, ProtocolNode], n: int, metrics: NetworkMetrics
) -> TreeProtocolResult:
    """Validate the nodes' final state and assemble the result arrays."""
    parent = np.array([nodes[v].parent for v in range(n)], dtype=np.int64)
    depth = np.array([nodes[v].depth for v in range(n)], dtype=np.int64)
    if (parent < 0).any():
        missing = int((parent < 0).sum())
        raise RuntimeError(f"BFS did not span: {missing} nodes unreached")
    roots = [v for v in range(n) if parent[v] == v]
    if len(roots) != 1:
        raise RuntimeError(f"expected a unique root, got {roots}")
    return TreeProtocolResult(
        root=roots[0],
        parent=parent,
        depth=depth,
        metrics=metrics,
        rounds=metrics.rounds,
    )


def _resolve_defaults(
    graph: PortGraph,
    flood_rounds: int,
    rng: np.random.Generator | None,
    capacity: CapacityPolicy | None,
    max_rounds: int | None,
) -> tuple[np.random.Generator, CapacityPolicy, int]:
    """Default RNG / NCC0 budget / round budget, shared by every runner."""
    if rng is None:
        rng = np.random.default_rng(0)
    if capacity is None:
        capacity = CapacityPolicy.ncc0(graph.n, graph.delta)
    if max_rounds is None:
        max_rounds = flood_rounds + 4 * flood_rounds + 8
    return rng, capacity, max_rounds


def run_protocol_rooting(
    graph: PortGraph,
    flood_rounds: int,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    max_rounds: int | None = None,
    engine: str = "vectorized",
    *,
    ctx: RunContext | None = None,
) -> TreeProtocolResult:
    """Execute flooding + BFS message-by-message on an overlay graph.

    Parameters
    ----------
    graph:
        The (connected) expander :class:`PortGraph` produced by the
        evolution phase.
    flood_rounds:
        Length of the flooding phase; the paper uses the known bound
        ``L ≥ log n ≥ diameter`` rounds.  The flood reaches exactly
        ``flood_rounds`` hops (the final wave's inbox is processed before
        the BFS hand-off), so ``flood_rounds == diameter`` suffices.  If
        flooding has not stabilised by then the BFS may root at a
        non-minimum id — callers pass the same `O(log n)` budget the
        paper assumes.
    capacity:
        NCC0 budget; defaults to ``Δ`` messages per round, matching the
        evolution phase.
    engine:
        Network delivery engine (``"vectorized"`` or ``"legacy"``).

    Raises
    ------
    RuntimeError
        If the BFS fails to span within ``max_rounds`` (disconnected
        input or starved capacity).
    """
    rng, capacity, max_rounds = _resolve_defaults(
        graph, flood_rounds, rng, capacity, max_rounds
    )
    nodes = _build_nodes(graph, flood_rounds)
    network = SyncNetwork(nodes, capacity, rng, engine=engine, ctx=ctx)
    metrics = network.run(max_rounds=max_rounds)
    return _collect_result(nodes, graph.n, metrics)


def run_rooting_under_asynchrony(
    graph: PortGraph,
    flood_rounds: int,
    max_delay: int,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    max_rounds: int | None = None,
    engine: str = "vectorized",
    tier: str = "soa",
    fault_hook=None,
    *,
    ctx: RunContext | None = None,
) -> tuple[TreeProtocolResult, AsyncReport]:
    """Rooting under the footnote-2 synchroniser, on the SoA tier by default.

    Convenience wiring for churn/delay workloads: builds the rooting
    population at the chosen execution ``tier`` (``"object"`` or
    ``"soa"``), runs it through
    :func:`repro.net.asynchrony.run_with_asynchrony` — the SoA tier lands
    on the columnar delay-queue synchroniser of
    :mod:`repro.scenarios.soa_sync` — and returns the usual
    :class:`TreeProtocolResult` plus the dilation report.  Because the
    synchroniser's delay stream is independent of delivery, the tree is
    identical to the synchronous run's under the same seed, at every
    tier.  ``fault_hook`` threads an adversarial scenario's compiled
    injector into the network.
    """
    rng, capacity, max_rounds = _resolve_defaults(
        graph, flood_rounds, rng, capacity, max_rounds
    )
    population = build_rooting_population(graph, flood_rounds, tier)
    report, network = run_with_asynchrony(
        population, capacity, rng, max_delay, max_rounds,
        engine=engine, fault_hook=fault_hook, ctx=ctx,
    )
    if tier == "soa":
        from repro.core.soa_rooting import collect_soa_result

        return collect_soa_result(population, network.metrics), report
    return _collect_result(population, graph.n, network.metrics), report
