"""Message-level ``CreateExpander`` in the NCC0 model.

This engine executes the algorithm of §2.1 node-by-node on the
:class:`repro.net.network.SyncNetwork` simulator, with every token
forwarding and acceptance reply materialised as an ``O(log n)``-bit
message subject to the NCC0 capacity (messages beyond the budget are
dropped by the network, as the model prescribes).

It exists to validate the claims the fast vectorised engine cannot:

- **Theorem 1.1's communication bound** — each node sends ``O(log n)``
  messages per round and ``O(log² n)`` in total (E4);
- **Lemma 3.2 in vivo** — at the calibrated parameters no message is
  actually dropped, i.e. the w.h.p. congestion bound holds (E5);
- **engine agreement** — the final graphs of both engines are benign with
  statistically matching conductance (integration tests).

Round layout: evolution ``i`` occupies rounds ``[i·(ℓ+2), (i+1)·(ℓ+2))``:
``ℓ`` token-forwarding rounds, one acceptance round, one reply/rebuild
round.  All nodes know ``(ℓ, Δ, Λ, L)``, so the schedule needs no
coordination (§2.1).  Self-loop forwards stay inside the node and use no
network capacity, matching the model (a node "sending to itself" is local
computation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.params import ExpanderParams
from repro.net.message import Message
from repro.net.network import CapacityPolicy, NetworkMetrics, ProtocolNode, SyncNetwork
from repro.graphs.portgraph import PortGraph
from repro.runtime import RunContext

__all__ = [
    "ExpanderNode",
    "ProtocolRunResult",
    "run_protocol_expander",
    "prepare_network_inputs",
    "collect_final_graph",
]


class ExpanderNode(ProtocolNode):
    """One NCC0 node executing ``CreateExpander``.

    State per evolution: the node's current port list (partner ids,
    ``self`` for self-loops), the tokens it currently holds, and the edges
    recorded for the next evolution graph.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: list[int],
        params: ExpanderParams,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(node_id)
        self.params = params
        self.rng = rng
        # MakeBenign, locally: copy each incident edge Λ times, pad with
        # self-loops to degree Δ (laziness follows from 2·Λ·d ≤ Δ).
        ports = [u for u in sorted(neighbors) for _ in range(params.lam)]
        if len(ports) > params.delta // 2:
            raise ValueError(
                f"node {node_id}: Λ·deg = {len(ports)} exceeds Δ/2 = {params.delta // 2}"
            )
        ports += [node_id] * (params.delta - len(ports))
        self.ports = ports
        self._next_origin_edges: list[int] = []  # partners via own accepted tokens
        self._next_accept_edges: list[int] = []  # partners via accepted foreign tokens
        self.evolutions_done = 0
        self.accepted_log: list[tuple[int, int]] = []  # (origin, acceptor=self)

    # ------------------------------------------------------------------
    def _phase(self, round_no: int) -> tuple[int, int]:
        span = self.params.ell + 2
        return round_no // span, round_no % span

    def _forward(self, origins: list[int]) -> list[Message]:
        """Send each token along a uniformly random port: one
        ``⌊uniform·Δ⌋`` draw per node, the SoA tier's stream."""
        if not origins:
            return []
        choices = (self.rng.random(len(origins)) * self.params.delta).astype(np.int64)
        return [
            Message(self.node_id, self.ports[c], "token", origin)
            for c, origin in zip(choices.tolist(), origins)
        ]

    def on_round(self, round_no: int, inbox: list[Message]) -> list[Message]:
        evolution, step = self._phase(round_no)
        if evolution >= self.params.num_evolutions:
            return []
        params = self.params

        if step == 0:
            # Launch Δ/8 own tokens (a fresh evolution starts).
            return self._forward([self.node_id] * params.tokens_per_node)

        tokens = [m.payload for m in inbox if m.kind == "token"]

        if step < params.ell:
            return self._forward(tokens)

        if step == params.ell:
            # Acceptance: answer up to 3Δ/8 tokens, chosen uniformly.
            if len(tokens) > params.accept_cap:
                chosen = self.rng.choice(len(tokens), size=params.accept_cap, replace=False)
                tokens = [tokens[i] for i in sorted(chosen.tolist())]
            out = []
            for origin in tokens:
                self._next_accept_edges.append(origin)
                self.accepted_log.append((origin, self.node_id))
                out.append(Message(self.node_id, origin, "accept", self.node_id))
            return out

        # step == ell + 1: collect replies, rebuild ports, pad self-loops.
        for m in inbox:
            if m.kind == "accept":
                self._next_origin_edges.append(m.payload)
        partners = self._next_origin_edges + self._next_accept_edges
        if len(partners) > params.delta:
            raise AssertionError(
                f"node {self.node_id} assembled {len(partners)} ports > Δ"
            )
        self.ports = partners + [self.node_id] * (params.delta - len(partners))
        self._next_origin_edges = []
        self._next_accept_edges = []
        self.evolutions_done = evolution + 1
        return []

    def is_idle(self) -> bool:
        return self.evolutions_done >= self.params.num_evolutions


@dataclass
class ProtocolRunResult:
    """Outcome of a message-level ``CreateExpander`` run."""

    final_graph: PortGraph
    metrics: NetworkMetrics
    params: ExpanderParams
    rounds: int


def prepare_network_inputs(
    graph,
    params: ExpanderParams | None,
    capacity: CapacityPolicy | None,
) -> tuple[int, list[list[int]], ExpanderParams, CapacityPolicy]:
    """Shared preparation for the network-driven expander runners.

    Computes node count, adjacency lists, calibrated parameters, and the
    NCC0 capacity policy from an undirected networkx graph.  Used by both
    the per-message runner below and the SoA runner in
    :mod:`repro.core.batch_protocol`.
    """
    from repro.core.benign import undirected_edge_list

    n, edges = undirected_edge_list(graph)
    if params is None:
        degree = np.zeros(n, dtype=np.int64)
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        params = ExpanderParams.recommended(n, max_degree=int(degree.max(initial=1)))
    if capacity is None:
        capacity = CapacityPolicy.ncc0(n, params.delta)

    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    return n, neighbors, params, capacity


def collect_final_graph(nodes, n: int, delta: int) -> PortGraph:
    """Assemble the final evolution graph from the nodes' port lists.

    The port lists held by the nodes after the last rebuild are the
    authoritative final graph.  If an 'accept' reply was dropped by the
    network the two endpoints disagree (the acceptor holds the edge, the
    origin does not) — exactly the knowledge-graph asymmetry the model
    permits; at calibrated parameters no drops occur and the graph is a
    symmetric multigraph (asserted by the tests).
    """
    ports = np.empty((n, delta), dtype=np.int64)
    for v, node in nodes.items():
        ports[v, :] = node.ports
    return PortGraph(ports=ports)


def run_protocol_expander(
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    engine: str = "vectorized",
    *,
    ctx: RunContext | None = None,
) -> ProtocolRunResult:
    """Execute ``CreateExpander`` message-by-message on ``graph``.

    ``graph`` is an undirected networkx graph (a directed knowledge graph
    should be bidirected first — one extra round, which
    :func:`repro.core.pipeline.build_well_formed_tree` charges).  Returns
    the final evolution graph assembled from the acceptors' edge records,
    plus full network metrics.  ``engine`` selects the network delivery
    engine (``"legacy"`` is the per-message oracle; both engines produce
    identical executions under the same seed).  ``ctx`` is threaded into
    the network (workers, tracer, fault hook, layout reuse).

    ``rng.spawn(2)`` yields one *protocol* generator that every node
    shares (drawing in node-iteration order) and one network generator.
    Because sequential ``Generator.random(k)`` draws concatenate into one
    stream, this is the discipline of the SoA tier's single flat draw per
    round: the run is bit-for-bit
    :func:`repro.core.batch_protocol.run_soa_expander` under the same
    seed — same ports, metrics and rounds.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    n, neighbors, params, capacity = prepare_network_inputs(graph, params, capacity)
    proto_rng, net_rng = rng.spawn(2)
    nodes = {v: ExpanderNode(v, neighbors[v], params, proto_rng) for v in range(n)}
    network = SyncNetwork(nodes, capacity, net_rng, engine=engine, ctx=ctx)
    total_rounds = params.num_evolutions * (params.ell + 2)
    metrics = network.run(max_rounds=total_rounds + 1)
    return ProtocolRunResult(
        final_graph=collect_final_graph(nodes, n, params.delta),
        metrics=metrics,
        params=params,
        rounds=metrics.rounds,
    )
