"""Synchronous capacity-limited network simulator (NCC0 semantics).

§1.1 of the paper: *"if more messages than allowed are sent to a node, the
node receives an arbitrary subset (and the rest is simply dropped by the
network)"*.  The simulator enforces both directions of the
``O(log n)``-messages-per-round bound:

- a node attempting to **send** more than ``capacity.max_send`` messages
  has a uniformly random subset of that size delivered to the network (the
  rest never leave the node);
- a node addressed by more than ``capacity.max_receive`` messages
  **receives** a uniformly random subset of that size.

Every round records metrics (max sent/received per node, drop counts,
totals) so experiments can report the communication quantities Theorem 1.1
bounds: ``O(log n)`` messages per node per round and ``O(log² n)`` total
per node.

Two delivery engines
--------------------
``SyncNetwork(engine=...)`` selects how a round's traffic moves:

- ``"vectorized"`` (default) packs the round into flat sender/receiver
  index buffers, truncates over-capacity groups with one permutation draw
  (:func:`repro.net.vectorops.segmented_keep_indices`), and accumulates
  per-node counters with ``np.bincount``;
- ``"legacy"`` walks per-message Python loops — slower, but written
  plainly enough to serve as the differential-testing oracle.

Both engines follow one **canonical RNG discipline** (documented in
``docs/engine.md``): traffic is enumerated in node-insertion order, a
truncation permutation is drawn only when some group actually exceeds its
cap, and self-addressed messages bypass the network entirely.  Under the
same seed the two engines therefore deliver *identical* inboxes and
metrics, which ``tests/net/test_engine_equivalence.py`` enforces.

A network runs one of two populations: a dict of :class:`ProtocolNode`
objects (per-message :class:`Message` objects, either engine — the
plainly written oracle tier), or one :class:`SoAProtocolClass` holding
every node's state in numpy columns (vectorized engine only).  An SoA
round never materialises Python message objects, which is what makes
large-``n`` runs practical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro import sanitize as _sanitize
from repro.net.batch import MessageBatch
from repro.net.message import Message
from repro.net.soa import SoAInbox, SoAProtocolClass
from repro.net.vectorops import group_sort, segmented_keep_indices

#: Valid values for ``SyncNetwork(engine=...)`` — authoritative in
#: :mod:`repro.runtime.context`, re-exported here for compatibility.
from repro.runtime import ENGINES, RunContext

__all__ = [
    "CapacityPolicy",
    "NetworkMetrics",
    "NodeCounts",
    "RoundMetricsView",
    "ProtocolNode",
    "SoAProtocolClass",
    "SoAInbox",
    "SyncNetwork",
    "ENGINES",
]


def _fault_keep_indices(keep, m_total: int) -> np.ndarray:
    """Normalise a fault hook's return value to ascending keep-indices.

    One contract for both delivery engines: a hook may return either a
    **boolean keep-mask** over the round's remote messages (length must
    equal the message count) or ascending integer **keep-indices** (the
    shape :func:`repro.net.vectorops.segmented_keep_indices` produces, so
    truncation-style hooks compose without a mask detour).  Anything else
    — wrong mask length, out-of-range or non-ascending indices, a float
    array — raises instead of silently corrupting the round: an integer
    array fed to ``np.flatnonzero`` (the old mask-only decode) would have
    been misread as a mask, dropping different messages *and* miscounting
    ``metrics.fault_drops``.
    """
    keep = np.asarray(keep)
    if keep.ndim != 1:
        raise ValueError(
            f"fault hook must return a 1-d keep-mask or keep-indices, "
            f"got shape {keep.shape}"
        )
    if keep.dtype == np.bool_:
        if keep.shape[0] != m_total:
            raise ValueError(
                f"fault hook keep-mask has length {keep.shape[0]}, "
                f"expected the round's {m_total} remote messages"
            )
        return np.flatnonzero(keep)
    if not np.issubdtype(keep.dtype, np.integer):
        raise TypeError(
            "fault hook must return a boolean keep-mask or integer "
            f"keep-indices, got dtype {keep.dtype}"
        )
    if keep.shape[0]:
        if int(keep[0]) < 0 or int(keep[-1]) >= m_total:
            raise ValueError(
                f"fault hook keep-indices out of range for {m_total} messages"
            )
        if keep.shape[0] > 1 and bool((keep[1:] <= keep[:-1]).any()):
            raise ValueError(
                "fault hook keep-indices must be strictly ascending "
                "(canonical message order)"
            )
    return keep


class _RoundLayout:
    """Cross-round cache of the delivery tail's receiver-sorted layout.

    Steady-state protocols (flooding over a fixed adjacency — the SoA
    rooting workload) re-emit the *same* sender/receiver column objects
    round after round.  For such rounds the entire grouping layout is
    provably unchanged, so the tail reuses it wholesale: the sort
    permutation, the sorted key columns, the send/receive bincounts and
    maxima, the receiver segment offsets, the no-self-addressed-traffic
    flag, and (when sharded) the worker pool's cached shard
    permutations.  Only the payload lanes are re-gathered.

    An entry is keyed by the column *object* but trusted only after a
    value comparison against a defensive copy taken at store time — see
    the alias-write guard in ``_verify_layout``.  Entries are stored only
    for pristine rounds (no local split, no truncation, no id mapping),
    i.e. exactly when the keyed objects are the protocol-emitted arrays
    a later round could re-emit.
    """

    __slots__ = (
        "rcv",
        "rcv_copy",
        "order",
        "rcv_s",
        "recv_counts",
        "recv_max",
        "seg",
        "shard_gen",
        "snd",
        "snd_copy",
        "snd_s",
        "sent_counts",
        "sent_max",
        "no_local",
    )

    def __init__(self) -> None:
        self.clear_rcv()
        self.clear_snd()

    def clear_rcv(self) -> None:
        self.rcv = self.rcv_copy = None
        self.order = None
        self.rcv_s = None
        self.recv_counts = None
        self.recv_max = 0
        self.seg = None
        self.shard_gen = None
        self.no_local = False

    def clear_snd(self) -> None:
        self.snd = self.snd_copy = None
        self.snd_s = None
        self.sent_counts = None
        self.sent_max = 0
        self.no_local = False


def _rows(col, sel):
    return None if col is None else col[sel]


def _count(keys: np.ndarray, n: int):
    counts = np.bincount(keys, minlength=n)
    return counts, int(counts.max())


@dataclass(slots=True, eq=False)
class _Lanes:
    """One round's traffic as parallel columns: the delivery tail's record.

    ``rcv`` (receiver ids, node indices once mapped) and ``snd`` (sender
    indices) are always arrays.  An object round carries the emitted
    :class:`Message` objects in ``objs`` and no payload lanes.  An SoA
    round follows :class:`SoAInbox`'s conventions: ``kinds`` is a scalar
    code for a uniform round or a column, ``pay`` the payload column and
    ``pay2`` the optional pair-payload lane.  An absent lane stays
    ``None`` through :meth:`take` and is never materialised.  With
    ``by_sender`` the payload lanes are per-node tables indexed by
    sender index (a broadcast's state columns, see
    :class:`~repro.net.batch.MessageBatch`); the record's row gather
    resolves them through the gathered sender column and yields
    per-message columns.
    """

    rcv: np.ndarray
    snd: np.ndarray
    kinds: int | np.ndarray = 0
    pay: np.ndarray | None = None
    pay2: np.ndarray | None = None
    objs: list[Message] | None = None
    by_sender: bool = False

    @classmethod
    def from_messages(cls, outputs, index: dict[int, int]) -> "_Lanes":
        """Pack a round of object-node ``(node id, messages)`` outputs in
        canonical order; the objects travel as they are."""
        objs = [msg for _, msgs in outputs for msg in msgs]
        rcv = np.fromiter((msg.receiver for msg in objs), dtype=np.int64, count=len(objs))
        senders = np.array([index[nid] for nid, _ in outputs], dtype=np.int64)
        snd = np.repeat(senders, [len(msgs) for _, msgs in outputs])
        return cls(rcv, snd, objs=objs)

    @classmethod
    def from_batch(cls, batch: MessageBatch, snd: np.ndarray) -> "_Lanes":
        """A batch's columns as they are, with ``snd`` as sender indices."""
        kinds = batch.kinds
        if type(kinds) is not np.ndarray:
            kinds = int(kinds)
        return cls(
            batch.receivers, snd, kinds, batch.payloads, batch.payloads2,
            by_sender=batch.by_sender,
        )

    def __len__(self) -> int:
        return self.rcv.shape[0]

    def take(self, sel: np.ndarray) -> "_Lanes":
        """Rows ``sel`` (a selection or a permutation), in ``sel``'s order,
        as fresh arrays."""
        return self.take_rows(sel, self.rcv[sel], self.snd[sel])

    def take_rows(self, sel: np.ndarray, rcv, snd) -> "_Lanes":
        """:meth:`take` with the key columns already gathered: the
        delivery tail's one payload gather per round (the packed sort
        yields the sorted receivers, the layout cache keeps both).  A
        by-sender table is gathered through ``snd``, which must hold the
        sender indices of rows ``sel``."""
        kinds = self.kinds
        pay_rows = snd if self.by_sender else sel
        return _Lanes(
            rcv,
            snd,
            kinds[sel] if type(kinds) is np.ndarray else kinds,
            _rows(self.pay, pay_rows),
            _rows(self.pay2, pay_rows),
            None if self.objs is None else [self.objs[i] for i in sel.tolist()],
        )

    def shardable(self) -> bool:
        """Only key and integer payload lanes: what the shard pool moves."""
        return self.objs is None and type(self.kinds) is not np.ndarray

    def check_int64(self, what: str) -> None:
        """Sanitize mode: int64 end to end (RL303's runtime twin) — a
        narrowed lane silently wraps ids/payloads at scale."""
        for name in ("rcv", "snd", "kinds", "pay", "pay2"):
            col = getattr(self, name)
            if isinstance(col, np.ndarray):
                _sanitize.check_int64(f"{what} {name}", col)


@dataclass(slots=True, eq=False)
class _Rows:
    """The delivery tail's row selection: ``sel`` holds ascending row
    indices into the round's :class:`_Lanes` record (``None``: every
    row), ``rcv``/``snd`` the key columns of exactly those rows.  While
    ``sel`` is ``None`` they are the record's own column objects, which
    is what the layout cache's identity checks key on; :meth:`keep`
    always gathers fresh ones."""

    sel: np.ndarray | None
    rcv: np.ndarray
    snd: np.ndarray

    def __len__(self) -> int:
        return self.rcv.shape[0]

    def keep(self, idx: np.ndarray) -> None:
        """Narrow to positions ``idx`` (ascending) of this selection."""
        self.sel = idx if self.sel is None else self.sel[idx]
        self.rcv = self.rcv[idx]
        self.snd = self.snd[idx]


@dataclass(frozen=True)
class CapacityPolicy:
    """Per-node per-round message budgets.  ``None`` disables a bound
    (used by the unbounded-communication baselines)."""

    max_send: int | None
    max_receive: int | None

    @classmethod
    def ncc0(cls, n: int, delta: int) -> "CapacityPolicy":
        """The NCC0 budget used throughout the reproduction.

        The paper allows ``O(log n)`` messages per round; the concrete
        constant is tied to the algorithm's degree parameter
        ``Δ = Θ(log n)`` — a node may need to answer up to ``3Δ/8``
        tokens plus forward ``Δ/8`` of its own in one round, so the
        capacity is set to ``Δ`` (send and receive).
        """
        del n  # the budget is expressed through delta = Theta(log n)
        return cls(max_send=delta, max_receive=delta)

    @classmethod
    def unbounded(cls) -> "CapacityPolicy":
        return cls(max_send=None, max_receive=None)


class NodeCounts:
    """Per-node message counters with lazy columnar accumulation.

    Behaves like the ``defaultdict(int)`` it replaces (missing keys read
    as 0 without inserting), but can additionally absorb whole per-node
    count *columns* in O(1) Python work (:meth:`add_column`) — the
    vectorized engines hand over their int64 accumulators instead of
    looping ``n`` dict writes.  The column is folded into the dict view
    only when some consumer actually reads per-node values, so runs that
    only look at scalar aggregates (every scaling bench) never pay the
    flush at all.
    """

    __slots__ = ("_dict", "_ids", "_counts")

    def __init__(self) -> None:
        self._dict: dict[int, int] = {}
        self._ids: np.ndarray | None = None
        self._counts: np.ndarray | None = None

    # -- columnar side -------------------------------------------------
    def add_column(self, ids: np.ndarray, counts: np.ndarray) -> None:
        """Accumulate a per-node count column (``counts`` aligned to
        ``ids``).  Repeated calls with the *same* ``ids`` object — the
        steady state of one network handing over its accumulators — are a
        single vectorized add."""
        if self._counts is None:
            self._ids = ids
            self._counts = counts.copy()
        elif self._ids is ids:
            self._counts += counts
        else:  # pragma: no cover - networks never swap id arrays mid-run
            self._flush()
            self._ids = ids
            self._counts = counts.copy()

    def _flush(self) -> None:
        if self._counts is None:
            return
        ids, counts = self._ids, self._counts
        self._ids = self._counts = None
        d = self._dict
        nz = np.flatnonzero(counts)
        for k, v in zip(ids[nz].tolist(), counts[nz].tolist()):
            d[k] = d.get(k, 0) + v

    # -- mapping side (defaultdict(int)-compatible) --------------------
    def __getitem__(self, key: int) -> int:
        self._flush()
        return self._dict.get(key, 0)

    def __setitem__(self, key: int, value: int) -> None:
        self._flush()
        self._dict[key] = value

    def get(self, key: int, default: int = 0) -> int:
        self._flush()
        return self._dict.get(key, default)

    def __contains__(self, key) -> bool:
        self._flush()
        return key in self._dict

    def __iter__(self):
        self._flush()
        return iter(self._dict)

    def __len__(self) -> int:
        self._flush()
        return len(self._dict)

    def keys(self):
        self._flush()
        return self._dict.keys()

    def values(self):
        self._flush()
        return self._dict.values()

    def items(self):
        self._flush()
        return self._dict.items()

    def __eq__(self, other) -> bool:
        self._flush()
        if isinstance(other, NodeCounts):
            other._flush()
            return self._dict == other._dict
        return self._dict == other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self._flush()
        return f"NodeCounts({self._dict!r})"


class RoundMetricsView:
    """Lazy per-round view over a traced run's ``net`` round table.

    :class:`NetworkMetrics` totals are cumulative — "how many fault
    drops happened *in round 7*" used to be unanswerable without hand
    instrumentation.  On a traced run the network records per-round
    deltas into a columnar :class:`repro.obs.RoundTrace`, and this view
    (the :class:`NodeCounts` idiom: a thin wrapper, columns cut lazily)
    exposes them via ``metrics.per_round``.  Untraced runs materialise
    nothing: ``metrics.per_round`` stays ``None``.

    Every accessor returns a numpy int64/float64 view of length
    ``len(view)`` = rounds recorded so far; index ``i`` is the delta for
    round ``rounds()[i]``.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace) -> None:
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def column(self, name: str) -> np.ndarray:
        return self._trace.column(name)

    def rounds(self) -> np.ndarray:
        return self.column("round")

    def inbox_sizes(self) -> np.ndarray:
        """Messages consumed from the staged inbox at each round start."""
        return self.column("inbox")

    def messages_sent(self) -> np.ndarray:
        return self.column("sent")

    def delivered(self) -> np.ndarray:
        """Messages staged for next-round delivery (local ones included)."""
        return self.column("delivered")

    def fault_drops(self) -> np.ndarray:
        return self.column("fault_drops")

    def send_drops(self) -> np.ndarray:
        return self.column("send_drops")

    def receive_drops(self) -> np.ndarray:
        return self.column("receive_drops")

    def layout_hits(self) -> np.ndarray:
        """1 where the round reused the cached receiver-sorted layout."""
        return self.column("layout_hit")

    def seconds(self) -> np.ndarray:
        return self.column("seconds")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RoundMetricsView(rounds={len(self)})"


@dataclass
class NetworkMetrics:
    """Aggregated communication statistics over a simulation.

    ``stopped_by_predicate`` / ``in_flight_at_stop`` record the early-stop
    bookkeeping of :meth:`SyncNetwork.run`: whether a ``stop_when``
    predicate ended the run, and how many messages were still in flight at
    that moment (0 when the predicate happened to fire on the round the
    network went quiescent anyway).

    ``fault_drops`` counts messages removed by an installed adversarial
    fault hook (see :class:`SyncNetwork`); it is deliberately *not* part
    of ``total_drops``, which keeps its §1.1 capacity-only meaning.
    """

    rounds: int = 0
    total_messages: int = 0
    send_drops: int = 0
    receive_drops: int = 0
    fault_drops: int = 0
    max_sent_per_round: int = 0
    max_received_per_round: int = 0
    stopped_by_predicate: bool = False
    in_flight_at_stop: int = 0
    sent_per_node: NodeCounts = field(default_factory=NodeCounts)
    received_per_node: NodeCounts = field(default_factory=NodeCounts)
    # Per-round deltas, populated only on traced runs (None otherwise —
    # no materialisation on the untraced path).  Excluded from equality
    # and from ``as_dict()``: the cross-tier equality surface is the
    # simulated totals, never the telemetry.
    per_round: "RoundMetricsView | None" = field(
        default=None, compare=False, repr=False
    )

    @property
    def total_drops(self) -> int:
        return self.send_drops + self.receive_drops

    def max_total_sent_by_any_node(self) -> int:
        """Largest whole-run send count of a single node — the quantity
        Theorem 1.1 bounds by ``O(log² n)``."""
        return max(self.sent_per_node.values(), default=0)

    def max_total_received_by_any_node(self) -> int:
        return max(self.received_per_node.values(), default=0)

    def as_dict(self) -> dict:
        """Snapshot of every aggregate (per-node dicts nonzero-filtered);
        the equality the engine-equivalence tests assert."""
        return {
            "rounds": self.rounds,
            "total_messages": self.total_messages,
            "send_drops": self.send_drops,
            "receive_drops": self.receive_drops,
            "fault_drops": self.fault_drops,
            "max_sent_per_round": self.max_sent_per_round,
            "max_received_per_round": self.max_received_per_round,
            "stopped_by_predicate": self.stopped_by_predicate,
            "in_flight_at_stop": self.in_flight_at_stop,
            "sent_per_node": {k: v for k, v in self.sent_per_node.items() if v},
            "received_per_node": {k: v for k, v in self.received_per_node.items() if v},
        }


class ProtocolNode:
    """Base class for nodes driven by :class:`SyncNetwork`.

    Subclasses implement :meth:`on_round`: consume the inbox delivered at
    the beginning of the round and return the messages to send.  A message
    sent in round ``i`` is received at the beginning of round ``i + 1``
    (§1.1).  Messages a node addresses to itself are handed back locally
    next round without touching the network (a self-loop forward is not
    communication).
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id

    def on_round(self, round_no: int, inbox: list[Message]) -> Iterable[Message]:
        """Process this round's inbox; return outgoing messages."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when the node has no pending work; the simulator stops
        once every node is idle and no messages are in flight."""
        return True


class SyncNetwork:
    """Round-driven simulator with capacity enforcement and metrics.

    ``fault_hook`` installs an oblivious message adversary in the delivery
    tail: a callable ``hook(round_no, senders, receivers) -> keep`` over
    the round's *remote* traffic in canonical order (real node ids,
    parallel columns), returning ``None`` for "no faults this round", a
    boolean keep-mask, or ascending integer keep-indices (both forms are
    validated and decoded identically by both engines — see
    ``_fault_keep_indices``).  The hook runs after the local split
    (self-addressed messages bypass the network and are immune) and
    before send-capacity truncation, and must not consume the delivery
    RNG — which is what keeps a faulted execution identical across
    engines and node tiers under a shared seed (see
    :mod:`repro.scenarios.spec`).
    """

    def __init__(
        self,
        nodes: dict[int, ProtocolNode] | SoAProtocolClass,
        capacity: CapacityPolicy,
        rng: np.random.Generator,
        engine: str | None = None,
        fault_hook: Callable[[int, np.ndarray, np.ndarray], np.ndarray | None] | None = None,
        workers: int | None = None,
        tracer=None,
        *,
        ctx: RunContext | None = None,
    ) -> None:
        # One execution config (contract C8): either the caller hands a
        # resolved RunContext (kwargs still win, per the precedence
        # chain), or the historical kwargs build one internally.  The
        # engine never env-sniffs REPRO_ENGINE on the shim path — the
        # kwarg default is pinned explicitly, preserving the pre-context
        # semantics where only benches honoured that variable.
        if ctx is None:
            ctx = RunContext.resolve(
                engine=engine or "vectorized",
                workers=workers,
                tracer=tracer,
                fault_hook=fault_hook,
            )
        else:
            ctx = ctx.with_overrides(
                engine=engine, workers=workers, tracer=tracer, fault_hook=fault_hook
            )
        engine = ctx.engine
        if engine == "soa":
            # "soa" names a node representation (tier), not a delivery
            # engine; SoA populations always ride the vectorized tail.
            engine = "vectorized"
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        self.ctx = ctx
        self.capacity = capacity
        self.rng = rng
        self.engine = engine
        self.fault_hook = ctx.fault_hook
        self.round_no = 0
        # ``ctx.workers`` shards the SoA delivery tail's receiver sort
        # across a fork-inherited shared-memory pool (repro.net.shard) —
        # results are bit-for-bit identical at every count.  ``None``
        # resolved from REPRO_WORKERS (default 1); non-SoA populations
        # ignore it.
        self._workers = ctx.workers
        self._shards = None
        self._metrics = NetworkMetrics()
        if isinstance(nodes, SoAProtocolClass):
            # SoA tier: one object holds every node's state; delivery runs
            # through the same vectorized flat tail as object traffic.
            if engine != "vectorized":
                raise ValueError(
                    "SoA protocol classes require the vectorized engine"
                )
            self._soa = nodes
            self._soa_inbox = SoAInbox.empty()
            self.nodes = {}
            n = nodes.n
            self._n = n
            self._ids = np.arange(n, dtype=np.int64)
            self._index = {}
            self._contiguous = True
            # Per-node bookkeeping stays empty on the SoA path — run_round
            # short-circuits into _deliver_soa and never consults it.
            self._pending: dict[int, list[Message]] = {}
        else:
            self._soa = None
            self.nodes = nodes
            n = len(nodes)
            self._n = n
            self._ids = (
                np.fromiter(nodes.keys(), dtype=np.int64, count=n)
                if n
                else np.empty(0, dtype=np.int64)
            )
            self._index = {nid: i for i, nid in enumerate(nodes)}
            self._contiguous = bool(n) and bool((self._ids == np.arange(n)).all())
            if not self._contiguous:
                self._sort_order = np.argsort(self._ids, kind="stable")
                self._sorted_ids = self._ids[self._sort_order]
            self._pending = {nid: [] for nid in nodes}
        # Vectorized engines accumulate per-node totals in arrays and flush
        # them into the metrics dicts lazily (see the ``metrics`` property).
        self._sent_counts = np.zeros(n, dtype=np.int64)
        self._recv_counts = np.zeros(n, dtype=np.int64)
        self._counts_dirty = False
        self._pending_count = 0
        self._layout = _RoundLayout()
        # REPRO_SOA_LAYOUT_REUSE=0 restores the pre-shard sort-only cache
        # (identity-trusting, re-gathers every column every round) — the
        # control arm of bench_s3's re-sort-elimination measurement.
        self._reuse_layouts = ctx.layout_reuse
        # ---- round-trace telemetry (C7: observes, never steers) -------
        # Resolution order: explicit kwarg > context > ambient
        # capture()/activate() tracer > REPRO_TRACE env singleton.  A
        # context resolved *outside* a capture() scope carries
        # ``tracer=None``, so the ambient session is still consulted at
        # construction time — the pre-context semantics.  Untraced runs
        # keep every probe at a single ``is None`` check and materialise
        # nothing.
        tr = ctx.tracer
        if tr is None:
            from repro.obs import resolve_tracer

            tr = resolve_tracer(None)
        self._tracer = tr
        self._round_trace = None
        self._shard_trace = None
        self._shard_ops_seen = 0
        self._layout_hit = False
        if tr is not None:
            tier = "soa" if self._soa is not None else "object"
            self._trace_clock = tr.clock
            self._round_trace = tr.table(
                "net",
                (
                    "round",
                    "inbox",
                    "sent",
                    "delivered",
                    "fault_drops",
                    "send_drops",
                    "receive_drops",
                    "layout_hit",
                ),
                meta={
                    "tier": tier,
                    "engine": engine,
                    "n": n,
                    "workers": self._workers,
                },
            )
            self._metrics.per_round = RoundMetricsView(self._round_trace)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> NetworkMetrics:
        """The run's metrics; hands the vectorized per-node counters to
        the lazy ``sent_per_node`` / ``received_per_node`` column views
        (no per-node Python work — the dicts materialise only if read)."""
        if self._counts_dirty:
            self._metrics.sent_per_node.add_column(self._ids, self._sent_counts)
            self._metrics.received_per_node.add_column(self._ids, self._recv_counts)
            self._sent_counts[:] = 0
            self._recv_counts[:] = 0
            self._counts_dirty = False
        return self._metrics

    def pending_messages(self) -> int:
        """Messages in flight (delivered next round), local ones included."""
        return self._pending_count

    # ------------------------------------------------------------------
    # SoA inbox staging (synchroniser interposition point).
    # ------------------------------------------------------------------
    def take_staged_soa_inbox(self) -> SoAInbox:
        """Remove and return the staged next-round :class:`SoAInbox`.

        The interposition point for delay synchronisers
        (:mod:`repro.scenarios.soa_sync`): the columns a round's delivery
        staged can be pulled out, held in a delay queue, and re-staged via
        :meth:`stage_soa_inbox` before the next :meth:`run_round`.  SoA
        networks only.
        """
        if self._soa is None:
            raise ValueError("inbox staging is only available on SoA networks")
        inbox = self._soa_inbox
        self._soa_inbox = SoAInbox.empty()
        self._pending_count = 0
        return inbox

    def stage_soa_inbox(self, inbox: SoAInbox) -> None:
        """Install ``inbox`` as the next round's delivery (SoA networks)."""
        if self._soa is None:
            raise ValueError("inbox staging is only available on SoA networks")
        self._soa_inbox = inbox
        self._pending_count = len(inbox)

    # ------------------------------------------------------------------
    def run_round(self) -> None:
        """Execute one synchronous round for every node.

        Nodes producing nothing are skipped by delivery entirely; a node's
        outgoing traffic is validated (no forged senders) before any of it
        enters the network.

        On a traced run (see :mod:`repro.obs`) the round is additionally
        recorded into the ``net`` round table as metric *deltas* around
        the unchanged inner round — tracing reads counters after the
        fact and never touches RNG streams or delivery order, so a
        traced execution is bit-for-bit the untraced one.
        """
        rt = self._round_trace
        if rt is None:
            self._run_round_inner()
            return
        clock = self._trace_clock
        start = clock()
        m = self._metrics
        inbox0 = self._pending_count
        msgs0 = m.total_messages
        fault0 = m.fault_drops
        send0 = m.send_drops
        recv0 = m.receive_drops
        self._layout_hit = False
        self._run_round_inner()
        rt.append(
            self.round_no - 1,
            inbox0,
            m.total_messages - msgs0,
            self._pending_count,
            m.fault_drops - fault0,
            m.send_drops - send0,
            m.receive_drops - recv0,
            1 if self._layout_hit else 0,
            clock() - start,
        )
        if self._shards is not None:
            self._record_shard_rounds()

    def _record_shard_rounds(self) -> None:
        """Append the pool's per-worker stats for ops since last seen.

        The pool keeps per-worker message counts and wall seconds of its
        most recent op (sort or gather); at most one op happens per
        round, so comparing ``op_seq`` against a high-water mark turns
        those into per-round shard rows without touching the workers.
        """
        pool = self._shards
        if pool is None or pool.op_seq == self._shard_ops_seen:
            return
        self._shard_ops_seen = pool.op_seq
        st = self._shard_trace
        if st is None:
            st = self._tracer.table(
                "shard",
                ("round", "shard", "messages", "op"),
                meta={"n": self._n, "workers": pool.workers},
            )
            self._shard_trace = st
        op = 0 if pool.last_op == "sort" else 1
        round_no = self.round_no - 1
        counts = pool.last_counts
        seconds = pool.last_seconds
        for w in range(pool.workers):
            st.append(round_no, w, int(counts[w]), op, float(seconds[w]))

    def _run_round_inner(self) -> None:
        if self._soa is not None:
            inbox = self._soa_inbox
            self._soa_inbox = SoAInbox.empty()
            produced = self._soa.on_round_soa(self.round_no, inbox)
            self._deliver_soa(produced)
            self.round_no += 1
            self._metrics.rounds = self.round_no
            return

        outputs: list[tuple[int, list[Message]]] = []
        pending = self._pending
        round_no = self.round_no
        for nid, node in self.nodes.items():
            inbox = pending[nid]
            pending[nid] = []
            produced = list(node.on_round(round_no, inbox) or [])
            if produced:
                for msg in produced:
                    if msg.sender != nid:
                        raise ValueError(
                            f"node {nid} attempted to forge a message from {msg.sender}"
                        )
                outputs.append((nid, produced))

        if self.engine == "legacy":
            self._deliver_legacy(outputs)
        else:
            self._deliver_vectorized(outputs)
        self.round_no += 1
        self._metrics.rounds = self.round_no

    # ------------------------------------------------------------------
    def _run_fault_hook(self, snd_ids: np.ndarray, rcv_ids: np.ndarray):
        """Invoke the adversary hook; under ``REPRO_SANITIZE=1`` verify it
        behaved obliviously.

        The hook contract (every tier, one seed, one fault stream) only
        holds if the hook neither draws from the delivery RNG — that
        would shift every subsequent truncation lottery — nor mutates the
        sender/receiver columns it is shown, which on the vectorized path
        are the live round columns.
        """
        if not _sanitize.ENABLED:
            return self.fault_hook(self.round_no, snd_ids, rcv_ids)
        state_before = _sanitize.rng_state(self.rng)
        snd_before = snd_ids.copy()
        rcv_before = rcv_ids.copy()
        keep = self.fault_hook(self.round_no, snd_ids, rcv_ids)
        if _sanitize.rng_state(self.rng) != state_before:
            raise _sanitize.SanitizeError(
                "sanitize: fault hook consumed the delivery RNG in round "
                f"{self.round_no}; hooks must pre-spawn their own stream "
                "(rng.spawn) or compile their schedule up front"
            )
        if not (
            np.array_equal(snd_ids, snd_before)
            and np.array_equal(rcv_ids, rcv_before)
        ):
            raise _sanitize.SanitizeError(
                "sanitize: fault hook mutated the sender/receiver columns "
                f"in round {self.round_no}; hooks observe traffic and "
                "return keep indices or a mask, they never edit lanes"
            )
        return keep

    # ------------------------------------------------------------------
    # Legacy engine: per-message loops, the differential-testing oracle.
    # ------------------------------------------------------------------
    def _deliver_legacy(self, outputs) -> None:
        cap = self.capacity
        metrics = self._metrics
        index = self._index
        ids = self._ids

        # Phase 1 — enumerate remote traffic in canonical order; local
        # (self-addressed) messages bypass the network entirely.
        flat: list[Message] = []
        flat_senders: list[int] = []
        local: dict[int, list[Message]] = {}
        for nid, produced in outputs:
            for msg in produced:
                if msg.receiver == nid:
                    local.setdefault(nid, []).append(msg)
                else:
                    flat.append(msg)
                    flat_senders.append(index[nid])

        # Phase 1.5 — adversarial faults (same hook point as the
        # vectorized tail: remote traffic in canonical order, before any
        # capacity truncation, no delivery-RNG consumption).
        if self.fault_hook is not None and flat:
            snd_ids = ids[np.asarray(flat_senders, dtype=np.int64)]
            rcv_ids = np.fromiter(
                (m.receiver for m in flat), dtype=np.int64, count=len(flat)
            )
            keep = self._run_fault_hook(snd_ids, rcv_ids)
            if keep is not None:
                kept = _fault_keep_indices(keep, len(flat))
                if kept.size != len(flat):
                    metrics.fault_drops += len(flat) - kept.size
                    flat = [flat[i] for i in kept.tolist()]
                    flat_senders = [flat_senders[i] for i in kept.tolist()]

        # Phase 2 — send-capacity truncation (shared RNG discipline: one
        # permutation, drawn only when some sender is over budget).
        if cap.max_send is not None and flat:
            counts: defaultdict[int, int] = defaultdict(int)
            for idx in flat_senders:
                counts[idx] += 1
            if max(counts.values()) > cap.max_send:
                keep = segmented_keep_indices(
                    np.asarray(flat_senders, dtype=np.int64), cap.max_send, self.rng
                )
                metrics.send_drops += len(flat) - keep.size
                flat = [flat[i] for i in keep.tolist()]
                flat_senders = [flat_senders[i] for i in keep.tolist()]

        # Phase 3 — sent metrics, per message (oracle style).
        max_sent_counts: defaultdict[int, int] = defaultdict(int)
        for idx in flat_senders:
            max_sent_counts[idx] += 1
        for idx, count in max_sent_counts.items():
            metrics.sent_per_node[int(ids[idx])] += count
        metrics.total_messages += len(flat)
        metrics.max_sent_per_round = max(
            metrics.max_sent_per_round, max(max_sent_counts.values(), default=0)
        )

        # Phase 4 — receiver validation + grouping (canonical order kept).
        flat_receivers: list[int] = []
        for msg in flat:
            j = index.get(msg.receiver)
            if j is None:
                raise KeyError(f"message addressed to unknown node {msg.receiver}")
            flat_receivers.append(j)

        # Phase 5 — receive-capacity truncation, same shared discipline.
        if cap.max_receive is not None and flat:
            counts = defaultdict(int)
            for idx in flat_receivers:
                counts[idx] += 1
            if max(counts.values()) > cap.max_receive:
                keep = segmented_keep_indices(
                    np.asarray(flat_receivers, dtype=np.int64), cap.max_receive, self.rng
                )
                metrics.receive_drops += len(flat) - keep.size
                flat = [flat[i] for i in keep.tolist()]
                flat_receivers = [flat_receivers[i] for i in keep.tolist()]

        # Phase 6 — receive metrics + inbox assembly (local first, then
        # survivors in canonical arrival order).
        groups: dict[int, list[Message]] = {}
        for msg, idx in zip(flat, flat_receivers):
            groups.setdefault(idx, []).append(msg)
        max_received = 0
        for idx, msgs in groups.items():
            metrics.received_per_node[int(ids[idx])] += len(msgs)
            max_received = max(max_received, len(msgs))
        metrics.max_received_per_round = max(metrics.max_received_per_round, max_received)

        pending = self._pending
        for nid, msgs in local.items():
            pending[nid].extend(msgs)
        for idx, msgs in groups.items():
            pending[int(ids[idx])].extend(msgs)
        self._pending_count = len(flat) + sum(len(msgs) for msgs in local.values())

    # ------------------------------------------------------------------
    # Vectorized engine: one lane record through a fixed stage list.
    # ------------------------------------------------------------------
    def _deliver_vectorized(self, outputs) -> None:
        """Array-path delivery of object nodes (pack phase).

        The round's messages become one :class:`_Lanes` record in
        canonical order, which enters :meth:`_deliver` — the shared tail
        that also serves the SoA tier, so both tiers consume the
        delivery RNG identically.
        """
        if not outputs:
            self._pending_count = 0
            return
        self._deliver(_Lanes.from_messages(outputs, self._index))

    # ------------------------------------------------------------------
    # SoA engine entry: one batch carries the whole population's round.
    # ------------------------------------------------------------------
    def _deliver_soa(self, produced: MessageBatch | None) -> None:
        """Validate an SoA class's round batch and feed the shared tail.

        The class's emitted columns *are* the packed round: senders must
        already be in canonical order (ascending node index, per-sender
        emission order), which is what keeps truncation draws, metrics,
        and inbox sequences bit-for-bit equal to the object tier.
        """
        if produced is None or produced.receivers.shape[0] == 0:
            self._pending_count = 0
            return
        snd = produced.senders
        if snd.shape != produced.receivers.shape:
            raise ValueError("SoA batch senders column must match receivers")
        if produced.by_sender:
            for name in ("payloads", "payloads2"):
                table = getattr(produced, name)
                if table is not None and table.shape != (self._n,):
                    raise ValueError(
                        f"SoA batch by-sender {name} table has shape "
                        f"{table.shape}, expected ({self._n},)"
                    )
        if _sanitize.ENABLED or snd is not self._layout.snd:
            # Identity-stable sender columns were validated when cached;
            # _verify_layout re-validates if the values turn out to have
            # changed underneath the identity.  Sanitize mode re-checks
            # every round regardless.
            self._require_ascending_senders(snd)
        self._deliver(_Lanes.from_batch(produced, snd))

    def _require_ascending_senders(self, snd_all: np.ndarray) -> None:
        if (
            int(snd_all[0]) < 0
            or int(snd_all[-1]) >= self._n
            or (snd_all[1:] < snd_all[:-1]).any()
        ):
            raise ValueError(
                "SoA batch senders must be node indices sorted ascending "
                "(the canonical emission order)"
            )

    def _shard_pool(self, m: int):
        """The lazily created worker pool behind ``workers > 1``."""
        pool = self._shards
        if pool is None:
            from repro.net.shard import ShardPool

            pool = ShardPool(self._n, self._workers, capacity=max(2 * m, 1024))
            self._shards = pool
        return pool

    # ------------------------------------------------------------------
    # Shared delivery tail: a fixed sequence of stages over one record.
    # ------------------------------------------------------------------
    def _deliver(self, lanes: _Lanes) -> None:
        """Deliver one round packed as a :class:`_Lanes` record.

        Stages, in order: verify the layout cache, split off local
        traffic, fault hook, send cap, map receivers, receive cap, group
        by receiver, assemble inboxes.  Up to the grouping no stage
        copies a payload lane: each narrows a :class:`_Rows` selection
        of the record.  The grouping is one packed-key sort over the
        surviving rows, local ones included, and the payload lanes are
        gathered once, in delivery order.  Inboxes are cut as views of
        the receiver-sorted columns (or kept whole as the next
        :class:`SoAInbox`), so per-message Python work only happens on
        object rounds.
        """
        if _sanitize.ENABLED:
            lanes.check_int64("entering")
        self._verify_layout(lanes)
        rows = _Rows(None, lanes.rcv, lanes.snd)
        local = self._split_local(rows)
        self._apply_faults(rows)
        sent = self._cap_send(rows)
        self._map_receivers(rows)
        recv = self._cap_receive(rows)
        self._pending_count = len(rows) + (0 if local is None else local.shape[0])
        if self._pending_count:
            grouped, seg = self._group(lanes, rows, local, sent, recv)
            self._assemble(grouped, seg)

    def _verify_layout(self, lanes: _Lanes) -> None:
        """Alias-write guard over the layout cache.

        Identity alone can lie: an emitter may mutate a re-emitted column
        through a *different view of the same base* (the frozen writeable
        flag only guards the cached view itself).  An identity hit is
        therefore only trusted after a value comparison against the
        defensive copy taken at store time; a mismatch invalidates that
        side, so the round falls back to a fresh sort — never a silent
        misdelivery through a stale permutation.  Every later stage reads
        ``rows.rcv is layout.rcv`` (resp. ``snd``) as "verified
        unchanged": stages that drop rows gather fresh key columns.  The
        identity-only arm (``layout_reuse=False``) trusts identity alone.
        """
        lay = self._layout
        if not self._reuse_layouts:
            return
        if lanes.rcv is lay.rcv and not np.array_equal(lanes.rcv, lay.rcv_copy):
            lay.clear_rcv()
        if lanes.snd is lay.snd and not np.array_equal(lanes.snd, lay.snd_copy):
            lay.clear_snd()
            if self._soa is not None:
                # _deliver_soa skipped its canonical-order check on the
                # identity hit; the values changed, so it must be re-run.
                self._require_ascending_senders(lanes.snd)

    def _split_local(self, rows: _Rows):
        """Narrow ``rows`` to remote traffic; return the self-addressed
        row indices (``None``: there are none).  Local rows bypass the
        network and need no copy: their receiver is their sender."""
        lay = self._layout
        if rows.rcv is lay.rcv and rows.snd is lay.snd and lay.no_local:
            # The store round proved this sender/receiver pair carries
            # no self-addressed traffic.
            return None
        snd_real = rows.snd if self._contiguous else self._ids[rows.snd]
        mask = rows.rcv == snd_real
        if not mask.any():
            return None
        rows.keep(np.flatnonzero(~mask))
        return np.flatnonzero(mask)

    def _apply_faults(self, rows: _Rows) -> None:
        """Oblivious drops (crash isolation, partitions, link loss) on the
        remote rows in canonical order — the legacy engine's hook point,
        before capacity truncation, so every tier sees the same fault
        stream under a shared seed."""
        m = len(rows)
        if self.fault_hook is None or not m:
            return
        snd_ids = rows.snd if self._contiguous else self._ids[rows.snd]
        keep = self._run_fault_hook(snd_ids, rows.rcv)
        if keep is None:
            return
        kept = _fault_keep_indices(keep, m)
        if kept.size != m:
            self._metrics.fault_drops += m - kept.size
            rows.keep(kept)

    def _truncate(self, rows: _Rows, key: str, cap: int | None, cached, totals):
        """Keep a uniform subset of at most ``cap`` rows per ``key`` node
        (one permutation draw, only when a bound binds), then add the
        per-node counts into ``totals``.

        Returns ``((counts, max), dropped)``; ``cached`` is a verified
        ``(counts, max)`` from the layout cache, and an empty round
        counts ``(None, 0)``.
        """
        m = len(rows)
        if not m:
            return (None, 0), 0
        counts = cached or _count(getattr(rows, key), self._n)
        if cap is not None and counts[1] > cap:
            keep = segmented_keep_indices(getattr(rows, key), cap, self.rng)
            rows.keep(keep)
            if not keep.size:
                return (None, 0), m
            counts = _count(getattr(rows, key), self._n)
        totals += counts[0]
        self._counts_dirty = True
        return counts, m - len(rows)

    def _cap_send(self, rows: _Rows):
        lay = self._layout
        cached = (lay.sent_counts, lay.sent_max) if rows.snd is lay.snd else None
        sent, dropped = self._truncate(
            rows, "snd", self.capacity.max_send, cached, self._sent_counts
        )
        metrics = self._metrics
        metrics.send_drops += dropped
        metrics.total_messages += len(rows)
        metrics.max_sent_per_round = max(metrics.max_sent_per_round, sent[1])
        return sent

    def _map_receivers(self, rows: _Rows) -> None:
        """Rebind ``rows.rcv`` from receiver ids to node indices; an
        unknown receiver raises (first offender in canonical order)."""
        rcv = rows.rcv
        n = self._n
        if self._contiguous:
            if rcv is self._layout.rcv:  # verified unchanged: passed before
                return
            invalid = (rcv < 0) | (rcv >= n)
        else:
            pos = np.searchsorted(self._sorted_ids, rcv)
            invalid = (pos >= n) | (self._sorted_ids[np.minimum(pos, max(n - 1, 0))] != rcv)
        if invalid.any():
            raise KeyError(f"message addressed to unknown node {int(rcv[int(invalid.argmax())])}")
        if not self._contiguous:
            rows.rcv = self._sort_order[pos]

    def _cap_receive(self, rows: _Rows):
        lay = self._layout
        cached = None
        if rows.rcv is lay.rcv and self._reuse_layouts:
            cached = (lay.recv_counts, lay.recv_max)
        recv, dropped = self._truncate(
            rows, "rcv", self.capacity.max_receive, cached, self._recv_counts
        )
        metrics = self._metrics
        metrics.receive_drops += dropped
        metrics.max_received_per_round = max(metrics.max_received_per_round, recv[1])
        return recv

    def _group(self, lanes: _Lanes, rows: _Rows, local, sent, recv):
        """Receiver-sort the round; returns ``(grouped, segments)``.

        A fresh layout is one :func:`group_sort` over the surviving rows
        (``local`` and ``rows``) with entry-record row numbers in the key's
        low bits.  Local rows sort under key ``2·receiver`` and remote
        ones under ``2·receiver + 1``, so each inbox starts with its
        local rows and then lists its remote ones in canonical order —
        the legacy engine's order.  The sorted keys are the grouped
        receiver column; the permutation gathers everything else once.

        Rounds that re-emit identity-stable (and value-verified) column
        objects — flooding protocols announcing over a fixed adjacency —
        reuse the cached layout wholesale: permutation, sorted key
        columns, segment offsets.  Only the payload lanes are
        re-gathered, which removes the per-round re-sort from the
        n=10⁶..10⁷ SoA runs.  With ``workers > 1`` an SoA round without
        local rows sorts in receiver-range shards on the worker pool
        instead (bit-for-bit identical — see repro.net.shard).
        """
        lay = self._layout
        if rows.rcv is lay.rcv:
            self._layout_hit = True  # read by run_round on traced runs only
            order = lay.order
            rcv_s = lay.rcv_s if self._reuse_layouts else rows.rcv[order]
            snd_s = lay.snd_s if rows.snd is lay.snd else rows.snd[order]
            pool = self._shards
            if (
                pool is not None
                and lay.shard_gen == pool.gen
                and lanes.shardable()
                and not lanes.by_sender
            ):
                pay_s, pay2_s = pool.gather_payloads(len(lanes), lanes.pay, lanes.pay2, pool.gen)
                return _Lanes(rcv_s, snd_s, lanes.kinds, pay_s, pay2=pay2_s), lay.seg
            return lanes.take_rows(order, rcv_s, snd_s), lay.seg

        sel = rows.sel
        sharded = (
            self._workers > 1
            and self._soa is not None
            and local is None
            and lanes.shardable()
        )
        if sharded:
            # ``order`` indexes the selection; only a pristine round (no
            # selection) stores it.
            pool = self._shard_pool(len(rows))
            if lanes.by_sender:
                # The pool sorts the keys only; the tables are gathered
                # here through the sorted senders (kinds are scalar, so
                # nothing reads the selection-relative ``order``).
                order, rcv_s, snd_s, _, _ = pool.sort_round(
                    rows.rcv, rows.snd, None, None, recv[0]
                )
                grouped = lanes.take_rows(order, rcv_s, snd_s)
            else:
                part = lanes if sel is None else lanes.take_rows(sel, rows.rcv, rows.snd)
                order, rcv_s, snd_s, pay_s, pay2_s = pool.sort_round(
                    rows.rcv, rows.snd, part.pay, part.pay2, recv[0]
                )
                grouped = _Lanes(rcv_s, snd_s, lanes.kinds, pay_s, pay2=pay2_s)
        else:
            if local is None:
                order, rcv_s = group_sort(rows.rcv, self._n, sel)
            else:
                keys = np.concatenate((lanes.snd[local] << 1, rows.rcv << 1 | 1))
                order, rcv_s = group_sort(keys, 2 * self._n, np.concatenate((local, sel)))
                rcv_s >>= 1
            grouped = lanes.take_rows(order, rcv_s, lanes.snd[order])
        seg = None
        if local is None:
            # Receiver segment offsets fall out of the bincount for free
            # when no local messages interleave with remote groups.
            nodes = np.flatnonzero(recv[0])
            counts = recv[0][nodes]
            seg = (np.cumsum(counts) - counts, nodes)
        self._store_layout(lanes, rows, grouped, order, seg, sent, recv, sharded)
        return grouped, seg

    def _store_layout(self, lanes, rows, grouped, order, seg, sent, recv, sharded) -> None:
        """Cache a freshly sorted layout.

        Only pristine layouts are stored: the keyed objects must be the
        protocol-emitted arrays a later round can re-emit (no local
        split, no truncation, no id mapping touched them).  Non-pristine
        rounds leave an older still-valid entry in place, so flooding
        rounds interleaved with offer/response rounds keep hitting
        (the identity-only arm drops it instead).  The cached receiver
        column is frozen: direct in-place mutation of a re-emitted
        buffer errors immediately, and writes through other views of the
        same base are caught by :meth:`_verify_layout`.
        """
        lay = self._layout
        if not self._reuse_layouts:
            # Identity-only arm: cache the sort permutation, nothing else.
            lay.clear_rcv()
            lay.clear_snd()
        rcv = lanes.rcv
        if rows.rcv is not rcv:
            return
        rcv.flags.writeable = False
        lay.rcv, lay.order = rcv, order
        if not self._reuse_layouts:
            return
        lay.rcv_copy, lay.rcv_s = rcv.copy(), grouped.rcv
        lay.recv_counts, lay.recv_max = recv
        lay.seg = seg
        lay.shard_gen = self._shards.gen if sharded else None
        # Every stage that rebinds ``snd`` rebinds ``rcv`` too, so the
        # sender column is pristine as well.
        lay.snd, lay.snd_copy, lay.snd_s = lanes.snd, lanes.snd.copy(), grouped.snd
        lay.sent_counts, lay.sent_max = sent
        lay.no_local = True

    def _assemble(self, g: _Lanes, seg) -> None:
        """Stage the receiver-sorted round as next round's inboxes."""
        if _sanitize.ENABLED:
            # Postcondition of every grouping path (fresh sort, cache hit,
            # sharded sort): an unsorted ``rcv`` here means a stale
            # permutation or a shard worker writing outside its range.
            _sanitize.check_receiver_sorted("grouped rcv", g.rcv)
            g.check_int64("grouped")
        if self._soa is not None:
            # The sorted columns ARE the next round's inbox (SoA ids are
            # contiguous): no group cutting, no per-node objects — one
            # SoAInbox for everyone.
            self._soa_inbox = SoAInbox(g.snd, g.rcv, g.kinds, g.pay, g.pay2, segments=seg)
            return
        rcv_real = g.rcv if self._contiguous else self._ids[g.rcv]
        starts = [0] + (np.flatnonzero(g.rcv[1:] != g.rcv[:-1]) + 1).tolist()
        ends = starts[1:] + [len(g)]
        pending = self._pending
        for s, e, nid in zip(starts, ends, rcv_real[starts].tolist()):
            pending[nid] = g.objs[s:e]

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        stop_when: Callable[[], bool] | None = None,
    ) -> NetworkMetrics:
        """Run until every node is idle with no messages in flight, a
        custom predicate fires, or ``max_rounds`` elapses.

        The in-flight/idle bookkeeping is evaluated every round *before*
        the ``stop_when`` predicate is honoured, so a predicate firing on
        the final round still yields consistent metrics:
        ``stopped_by_predicate`` is set and ``in_flight_at_stop`` records
        how many messages were pending (0 when the network was quiescent
        anyway).
        """
        for _ in range(max_rounds):
            self.run_round()
            in_flight = self.pending_messages()
            idle = in_flight == 0 and (
                self._soa.is_idle()
                if self._soa is not None
                else all(node.is_idle() for node in self.nodes.values())
            )
            if stop_when is not None and stop_when():
                self._metrics.stopped_by_predicate = True
                self._metrics.in_flight_at_stop = in_flight
                break
            if idle:
                break
        return self.metrics
