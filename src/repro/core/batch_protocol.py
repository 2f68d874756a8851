"""Batched message-level ``CreateExpander`` — array nodes on the NCC0 net.

This is the same protocol as :mod:`repro.core.protocol` (§2.1 executed
message-by-message under real capacity enforcement), but every node is a
:class:`repro.net.network.BatchProtocolNode`: a round's tokens leave a
node as one :class:`repro.net.batch.MessageBatch` (receiver + origin
arrays) instead of per-token ``Message`` objects, and the vectorized
delivery engine moves the whole round through flat numpy buffers.

Semantics are identical to the object engine — same round schedule
(``ℓ`` forwarding rounds, one acceptance round, one reply/rebuild round
per evolution), same per-node randomness shape (one uniform port draw per
resident token, one uniform acceptance subset per over-full node), same
NCC0 drop behaviour.  What changes is the constant factor: no Python
object per message, which is what makes ``n ≈ 5·10⁴`` protocol runs
practical (see ``benchmarks/bench_s1_engine_scaling.py``).

The token-forwarding inner loop is shared with the fast engine:
:func:`repro.core.walks.sample_port_targets`, in row mode.  (Row mode
draws ``⌊uniform·Δ⌋`` rather than matrix mode's ``rng.integers`` — see
the function's docstring for why the streams intentionally differ.)
"""

from __future__ import annotations

import numpy as np

from repro.core.params import ExpanderParams
from repro.core.protocol import (
    ProtocolRunResult,
    prepare_network_inputs,
    run_expander_on_network,
)
from repro.core.walks import sample_port_targets
from repro.graphs.portgraph import PortGraph
from repro.net.batch import KINDS, MessageBatch
from repro.net.network import BatchProtocolNode, CapacityPolicy, SyncNetwork
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.runtime import RunContext

__all__ = [
    "BatchExpanderNode",
    "SoAExpanderClass",
    "run_batch_expander",
    "run_soa_expander",
]

TOKEN = KINDS.code("token")
ACCEPT = KINDS.code("accept")


class BatchExpanderNode(BatchProtocolNode):
    """One NCC0 node executing ``CreateExpander`` on message arrays.

    State per evolution: the node's current port row (partner ids, own id
    for self-loops) as an ``int64`` array, plus the partner ids recorded
    for the next evolution graph.
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
        copied = np.repeat(np.sort(np.asarray(neighbors, dtype=np.int64)), params.lam)
        if copied.shape[0] > params.delta // 2:
            raise ValueError(
                f"node {node_id}: Λ·deg = {copied.shape[0]} exceeds "
                f"Δ/2 = {params.delta // 2}"
            )
        self.ports = np.concatenate(
            [copied, np.full(params.delta - copied.shape[0], node_id, dtype=np.int64)]
        )
        self._next_origin_edges: list[np.ndarray] = []  # via own accepted tokens
        self._next_accept_edges: list[np.ndarray] = []  # via accepted foreign tokens
        self.evolutions_done = 0
        self.accepted_origins: list[np.ndarray] = []  # per-acceptance log
        # Hot-path constants (attribute lookups beat property calls at
        # n·rounds call volume).
        self._span = params.ell + 2
        self._ell = params.ell
        self._delta = params.delta
        self._accept_cap = params.accept_cap
        self._num_evolutions = params.num_evolutions
        self._own_tokens = np.full(params.tokens_per_node, node_id, dtype=np.int64)

    # ------------------------------------------------------------------
    def _forward(self, origins: np.ndarray) -> MessageBatch | None:
        """Send each token along a uniformly random port (one batch)."""
        if origins.shape[0] == 0:
            return None
        _, targets = sample_port_targets(self.ports, self.rng, count=origins.shape[0])
        return MessageBatch._raw(self.node_id, targets, TOKEN, origins)

    def on_round_batch(self, round_no: int, inbox: MessageBatch) -> MessageBatch | None:
        evolution, step = divmod(round_no, self._span)
        if evolution >= self._num_evolutions:
            return None

        if step == 0:
            # Launch Δ/8 own tokens (a fresh evolution starts).
            return self._forward(self._own_tokens)

        if step < self._ell:
            return self._forward(inbox.payloads_of_kind(TOKEN))

        if step == self._ell:
            # Acceptance: answer up to 3Δ/8 tokens, chosen uniformly.
            tokens = inbox.payloads_of_kind(TOKEN)
            if tokens.shape[0] > self._accept_cap:
                chosen = self.rng.choice(
                    tokens.shape[0], size=self._accept_cap, replace=False
                )
                tokens = tokens[np.sort(chosen)]
            if tokens.shape[0] == 0:
                return None
            self._next_accept_edges.append(tokens)
            # Copy for the log: ``tokens`` may be a view into the engine's
            # round buffer, which must not stay pinned for the whole run.
            self.accepted_origins.append(tokens.copy())
            return MessageBatch._raw(
                self.node_id,
                tokens,
                ACCEPT,
                np.full(tokens.shape[0], self.node_id, dtype=np.int64),
            )

        # step == ell + 1: collect replies, rebuild ports, pad self-loops.
        replies = inbox.payloads_of_kind(ACCEPT)
        if replies.shape[0]:
            self._next_origin_edges.append(replies)
        partners = (
            np.concatenate(self._next_origin_edges + self._next_accept_edges)
            if self._next_origin_edges or self._next_accept_edges
            else np.empty(0, dtype=np.int64)
        )
        if partners.shape[0] > self._delta:
            raise AssertionError(
                f"node {self.node_id} assembled {partners.shape[0]} ports > Δ"
            )
        self.ports = np.concatenate(
            [
                partners,
                np.full(self._delta - partners.shape[0], self.node_id, dtype=np.int64),
            ]
        )
        self._next_origin_edges = []
        self._next_accept_edges = []
        self.evolutions_done = evolution + 1
        return None

    def is_idle(self) -> bool:
        return self.evolutions_done >= self.params.num_evolutions


def run_batch_expander(
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    engine: str = "vectorized",
    rng_mode: str = "spawn",
    *,
    ctx: RunContext | None = None,
) -> ProtocolRunResult:
    """Execute ``CreateExpander`` with batched nodes on ``graph``.

    Drop-in counterpart of
    :func:`repro.core.protocol.run_protocol_expander`: same inputs, same
    :class:`ProtocolRunResult`, same round schedule and capacity policy —
    only the message representation (arrays vs. objects) differs.
    ``engine`` selects the network delivery engine; running batch nodes on
    the ``"legacy"`` engine is supported (messages are materialised at the
    network boundary) and is how the differential tests cross-check the
    vectorized delivery path.  ``rng_mode="shared"`` makes every node draw
    from one shared generator in node-iteration order — the discipline
    under which :func:`run_soa_expander` is bit-for-bit identical.
    ``ctx`` is threaded into the network (workers, tracer, fault hook,
    layout reuse).
    """
    return run_expander_on_network(
        BatchExpanderNode, graph, params, rng, capacity, engine, rng_mode, ctx=ctx
    )


class SoAExpanderClass(SoAProtocolClass):
    """Every NCC0 node of ``CreateExpander``, in structure-of-arrays form.

    The third execution tier of the expander protocol: the whole
    population's ports live in one ``(n, Δ)`` matrix, a round's resident
    tokens are the inbox's flat ``(holder, origin)`` columns, and one
    call forwards / accepts / rebuilds for all nodes.  The randomness
    discipline is one flat ``rng.random(m)`` port draw per forwarding
    round plus one ``rng.choice`` per over-full acceptor in ascending
    node order — exactly the stream the per-node batch tier consumes
    under ``rng_mode="shared"`` (sequential ``Generator.random(k)`` calls
    concatenate into one stream), so
    :func:`run_soa_expander` is **bit-for-bit** equal to
    :func:`run_batch_expander` with a shared generator: same final port
    matrix, same accepted-edge log, same metrics, same rounds.
    """

    def __init__(
        self,
        n: int,
        neighbors: list[list[int]],
        params: ExpanderParams,
        rng: np.random.Generator,
    ) -> None:
        super().__init__(n)
        self.params = params
        self.rng = rng
        delta = params.delta
        # MakeBenign, population-wide: copy each incident edge Λ times,
        # pad with self-loops to degree Δ (same per-node layout — sorted
        # neighbours, copies adjacent — as the per-node tiers).
        deg = np.fromiter((len(nb) for nb in neighbors), dtype=np.int64, count=n)
        copied = deg * params.lam
        if (copied > delta // 2).any():
            worst = int(np.argmax(copied))
            raise ValueError(
                f"node {worst}: Λ·deg = {int(copied[worst])} exceeds "
                f"Δ/2 = {delta // 2}"
            )
        ids = np.arange(n, dtype=np.int64)
        self.ports = np.repeat(ids[:, None], delta, axis=1)
        if copied.sum():
            flat = np.concatenate(
                [
                    np.repeat(np.sort(np.asarray(nb, dtype=np.int64)), params.lam)
                    for nb in neighbors
                ]
            )
            rows = np.repeat(ids, copied)
            starts = np.cumsum(copied) - copied
            cols = np.arange(flat.shape[0], dtype=np.int64) - starts[rows]
            self.ports[rows, cols] = flat
        self.evolutions_done = 0
        #: Per-evolution ``(acceptors, origins)`` columns — the columnar
        #: counterpart of the per-node ``accepted_origins`` logs.
        self.accepted_log: list[tuple[np.ndarray, np.ndarray]] = []
        self._accept_nodes = self._accept_partners = _EMPTY_COL
        self._reply_nodes = self._reply_partners = _EMPTY_COL
        self._span = params.ell + 2
        self._ell = params.ell
        self._delta = delta
        self._accept_cap = params.accept_cap
        self._num_evolutions = params.num_evolutions
        self._own_tokens = np.repeat(ids, params.tokens_per_node)

    # ------------------------------------------------------------------
    def _forward(self, holders: np.ndarray, origins: np.ndarray) -> MessageBatch | None:
        """One uniformly random port draw per resident token, all nodes at
        once (the flat-stream equivalent of the batch tier's row mode)."""
        m = holders.shape[0]
        if m == 0:
            return None
        choices = (self.rng.random(m) * self._delta).astype(np.int64)
        ports = self.ports.ravel().take(holders * self._delta + choices)
        return MessageBatch._raw(holders, ports, TOKEN, origins)

    def on_round_soa(self, round_no: int, inbox: SoAInbox) -> MessageBatch | None:
        evolution, step = divmod(round_no, self._span)
        if evolution >= self._num_evolutions:
            return None

        if step == 0:
            # Launch Δ/8 own tokens (a fresh evolution starts).
            return self._forward(self._own_tokens, self._own_tokens)

        if step < self._ell:
            tok = inbox.of_kind(TOKEN)
            return self._forward(tok.receivers, tok.payloads)

        if step == self._ell:
            # Acceptance: every holder answers up to 3Δ/8 of its tokens,
            # chosen uniformly — one ``rng.choice`` per over-full holder,
            # ascending (= the shared-generator batch order).
            tok = inbox.of_kind(TOKEN)
            m = len(tok)
            if m == 0:
                return None
            holders = tok.receivers
            origins = tok.payloads
            seg_starts, _ = tok.segments()
            seg_counts = np.diff(np.append(seg_starts, m))
            over = seg_counts > self._accept_cap
            if over.any():
                keep = np.ones(m, dtype=bool)
                for si in np.flatnonzero(over).tolist():
                    s = int(seg_starts[si])
                    cnt = int(seg_counts[si])
                    chosen = self.rng.choice(
                        cnt, size=self._accept_cap, replace=False
                    )
                    seg_keep = np.zeros(cnt, dtype=bool)
                    seg_keep[chosen] = True
                    keep[s : s + cnt] = seg_keep
                holders = holders[keep]
                origins = origins[keep]
            self._accept_nodes = holders.copy()
            self._accept_partners = origins.copy()
            self.accepted_log.append((self._accept_nodes, self._accept_partners))
            return MessageBatch._raw(
                self._accept_nodes, self._accept_partners, ACCEPT, self._accept_nodes
            )

        # step == ell + 1: collect replies, rebuild the port matrix.
        rep = inbox.of_kind(ACCEPT)
        if len(rep):
            self._reply_nodes = rep.receivers
            self._reply_partners = rep.payloads
        # Per node: reply partners first, then accepted-token partners —
        # the per-node tiers' concatenation order, recovered here by a
        # stable sort over [replies ‖ accepts].
        part_nodes = np.concatenate([self._reply_nodes, self._accept_nodes])
        part_vals = np.concatenate([self._reply_partners, self._accept_partners])
        order = np.argsort(part_nodes, kind="stable")
        sn = part_nodes[order]
        counts = np.bincount(sn, minlength=self.n)
        if counts.max(initial=0) > self._delta:
            worst = int(np.argmax(counts))
            raise AssertionError(
                f"node {worst} assembled {int(counts[worst])} ports > Δ"
            )
        ids = np.arange(self.n, dtype=np.int64)
        self.ports = np.repeat(ids[:, None], self._delta, axis=1)
        if sn.shape[0]:
            starts = np.cumsum(counts) - counts
            cols = np.arange(sn.shape[0], dtype=np.int64) - starts[sn]
            self.ports[sn, cols] = part_vals[order]
        self._accept_nodes = self._accept_partners = _EMPTY_COL
        self._reply_nodes = self._reply_partners = _EMPTY_COL
        self.evolutions_done = evolution + 1
        return None

    def is_idle(self) -> bool:
        return self.evolutions_done >= self._num_evolutions


_EMPTY_COL = np.empty(0, dtype=np.int64)


def run_soa_expander(
    graph,
    params: ExpanderParams | None = None,
    rng: np.random.Generator | None = None,
    capacity: CapacityPolicy | None = None,
    engine: str = "vectorized",
    *,
    ctx: RunContext | None = None,
) -> ProtocolRunResult:
    """Execute ``CreateExpander`` as one SoA protocol class on ``graph``.

    Drop-in counterpart of :func:`run_batch_expander`: same inputs, same
    :class:`ProtocolRunResult`, same schedule and capacity policy.  The
    randomness discipline is the shared-generator one (``rng.spawn(2)``
    into a protocol stream and a network stream), so the run is
    bit-for-bit identical to
    ``run_batch_expander(..., rng_mode="shared")`` under the same seed —
    pinned by ``tests/core/test_soa_engines.py``.  Against the default
    per-node-spawned batch/object runs the comparison is structural
    (schedule, metrics shape, benign invariants), exactly as between the
    object and batch tiers themselves, whose streams also intentionally
    differ.  SoA classes run on the vectorized delivery engine only.
    ``ctx`` is threaded into the network (workers, tracer, fault hook,
    layout reuse); every worker count gives the same execution.
    """
    if engine != "vectorized":
        raise ValueError(
            f"the SoA tier requires the vectorized engine, got {engine!r}"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    n, neighbors, params, capacity = prepare_network_inputs(graph, params, capacity)
    proto_rng, net_rng = rng.spawn(2)
    cls = SoAExpanderClass(n, neighbors, params, proto_rng)
    network = SyncNetwork(cls, capacity, net_rng, engine=engine, ctx=ctx)
    total_rounds = params.num_evolutions * (params.ell + 2)
    metrics = network.run(max_rounds=total_rounds + 1)
    return ProtocolRunResult(
        final_graph=PortGraph(ports=cls.ports.copy()),
        metrics=metrics,
        params=params,
        rounds=metrics.rounds,
    )
