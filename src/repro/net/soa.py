"""Structure-of-arrays protocol classes: one call advances *all* nodes.

The production tier of the simulator.  Object nodes
(:class:`~repro.net.network.ProtocolNode`) cost one Python call per node
per round and one object per message; at ``n ≥ 10⁵`` that overhead
dominates the whole simulation, so this module inverts the dispatch: a
:class:`SoAProtocolClass` is one object representing every node of a
protocol, holding node state in shared numpy columns (state codes,
parent/min-id/depth arrays, port matrices) and advancing the entire
population with **one** :meth:`~SoAProtocolClass.on_round_soa` call per
round.

Delivery still runs through :class:`repro.net.network.SyncNetwork`'s
vectorized engine — the class's emitted :class:`~repro.net.batch.MessageBatch`
enters the exact same flat-column pipeline (local split, send/receive
truncation via ``segmented_keep_indices``, bincount metrics) as object
traffic, so the canonical RNG discipline of ``docs/engine.md`` is
preserved *bit for bit*: a protocol class that emits its round's traffic
in canonical order (ascending sender, per-sender emission order) produces
the identical execution — same inboxes, same drops, same metrics — as the
equivalent object-node protocol under the same seed.  The object-vs-SoA
differential suites (``tests/core/test_soa_engines.py``,
``tests/net/test_engine_equivalence.py``) enforce this.

The inbox side is an :class:`SoAInbox`: the whole round's surviving
traffic as receiver-sorted flat columns (local messages first within each
receiver group, then remote survivors in canonical arrival order — the
same per-node sequences the object tier sees, concatenated).  Helpers
provide the segment reductions protocol classes actually need (per-receiver
minima for flooding-style protocols, per-receiver segments for token
accounting) without materialising any per-node structure.
"""

from __future__ import annotations

import numpy as np

from repro import sanitize as _sanitize
from repro.net.batch import KINDS, MessageBatch
from repro.runtime.envsource import env_flag

__all__ = ["DEBUG_VALIDATE", "SoAInbox", "SoAProtocolClass"]

_NO_COLUMN = np.empty(0, dtype=np.int64)

#: Debug-mode column validation (set ``REPRO_DEBUG_SOA=1`` — or the
#: unified ``REPRO_SANITIZE=1``, which implies it — or flip the module
#: flag in tests).  ``SoAInbox.concat`` documents "no re-sorting" —
#: with the flag on it *checks* that every input is itself receiver-sorted,
#: so a caller concatenating genuinely unordered columns (and then not
#: re-sorting, as the delay queue does) fails loudly instead of handing a
#: protocol class segments that straddle receiver groups.
DEBUG_VALIDATE = env_flag("REPRO_DEBUG_SOA", False) or _sanitize.ENABLED


class SoAInbox:
    """One round of delivered traffic, as receiver-sorted flat columns.

    ``receivers`` holds *node indices* (the SoA tier requires contiguous
    ids ``0..n-1``, so index and id coincide), sorted ascending; within a
    receiver group, local (self-addressed) messages come first, then
    remote survivors in canonical arrival order — exactly the per-node
    inbox sequences of the object tier, concatenated.  ``kinds``
    may be a scalar code (uniform round, the common case for protocol
    schedules) or a per-message column.  ``payloads2`` is the optional
    second payload lane (``None`` when absent for the whole round).
    """

    __slots__ = ("senders", "receivers", "kinds", "payloads", "payloads2", "_segments")

    def __init__(
        self, senders, receivers, kinds, payloads, payloads2=None, segments=None
    ) -> None:
        self.senders = senders
        self.receivers = receivers
        self.kinds = kinds
        self.payloads = payloads
        self.payloads2 = payloads2
        # Optional precomputed ``(starts, nodes)`` receiver segments —
        # the delivery tail already knows them from its bincount, which
        # saves protocol classes the O(m) boundary scan per round.
        # Memoised on first computation otherwise.
        self._segments = segments

    @classmethod
    def empty(cls) -> "SoAInbox":
        return _EMPTY_INBOX

    def __len__(self) -> int:
        return int(self.receivers.shape[0])

    # ------------------------------------------------------------------
    def of_kind(self, kind: int) -> "SoAInbox":
        """Sub-inbox of the messages of kind ``kind`` (columns as views).

        Filtering preserves the receiver sort.  With a scalar kind (the
        uniform-round fast path) no copy happens at all.
        """
        kinds = self.kinds
        if type(kinds) is not np.ndarray:
            return self if kinds == kind else _EMPTY_INBOX
        mask = kinds == kind
        return SoAInbox(
            self.senders[mask],
            self.receivers[mask],
            kind,
            self.payloads[mask],
            self.payloads2[mask] if self.payloads2 is not None else None,
        )

    # ------------------------------------------------------------------
    def take(self, sel: np.ndarray) -> "SoAInbox":
        """Inbox restricted to rows ``sel``, in ``sel``'s sequence.

        ``sel`` is an integer index array (a selection or a permutation);
        scalar kinds and an absent secondary lane are preserved.  The
        column gather behind the delay-queue synchroniser's release path
        (:mod:`repro.scenarios.soa_sync`).
        """
        if sel.shape[0] == 0:
            return _EMPTY_INBOX
        kinds = self.kinds
        return SoAInbox(
            self.senders[sel],
            self.receivers[sel],
            kinds[sel] if type(kinds) is np.ndarray else kinds,
            self.payloads[sel],
            self.payloads2[sel] if self.payloads2 is not None else None,
        )

    @classmethod
    def concat(
        cls, inboxes: list["SoAInbox"], *, check: bool | None = None
    ) -> "SoAInbox":
        """Concatenate inboxes column-wise (no re-sorting).

        Uniform scalar kinds stay scalar; mixed kinds materialise a
        column.  Lane-less traffic zero-fills ``payloads2`` when some
        input carries it.  Callers own the receiver ordering of the result
        (the delay queue re-sorts on release).  With
        :data:`DEBUG_VALIDATE` on (or ``check=True``), each *input* is
        checked to be receiver-sorted — the documented precondition that
        makes the concatenation a sequence of well-formed segments.  A
        caller whose accumulated buffer is legitimately segment-ordered
        rather than globally sorted (the delay queue's in-flight columns,
        which it re-sorts on release) opts out with ``check=False`` and
        asserts its own entry precondition instead.
        """
        inboxes = [b for b in inboxes if len(b)]
        if DEBUG_VALIDATE if check is None else check:
            for b in inboxes:
                r = b.receivers
                if r.shape[0] > 1 and bool((r[1:] < r[:-1]).any()):
                    raise ValueError(
                        "SoAInbox.concat input is not receiver-sorted; "
                        "concat never re-sorts — sort inputs first (the "
                        "delay queue re-sorts its *release*, not its pushes)"
                    )
        if not inboxes:
            return _EMPTY_INBOX
        if len(inboxes) == 1:
            return inboxes[0]
        first_kinds = inboxes[0].kinds
        if all(
            type(b.kinds) is not np.ndarray and b.kinds == first_kinds
            for b in inboxes
        ):
            kinds: int | np.ndarray = first_kinds
        else:
            kinds = np.concatenate(
                [
                    b.kinds
                    if type(b.kinds) is np.ndarray
                    else np.full(len(b), int(b.kinds), dtype=np.int64)
                    for b in inboxes
                ]
            )
        if any(b.payloads2 is not None for b in inboxes):
            payloads2 = np.concatenate(
                [
                    b.payloads2
                    if b.payloads2 is not None
                    else np.zeros(len(b), dtype=np.int64)
                    for b in inboxes
                ]
            )
        else:
            payloads2 = None
        return cls(
            np.concatenate([b.senders for b in inboxes]),
            np.concatenate([b.receivers for b in inboxes]),
            kinds,
            np.concatenate([b.payloads for b in inboxes]),
            payloads2,
        )

    # ------------------------------------------------------------------
    def segments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, nodes)``: offsets of each receiver group in the
        sorted columns and the node index owning each group.

        Computed once and memoised (or handed in precomputed by the
        delivery tail); every per-receiver reduction shares it."""
        seg = self._segments
        if seg is not None:
            return seg
        receivers = self.receivers
        if receivers.shape[0] == 0:
            seg = (_NO_COLUMN, _NO_COLUMN)
        else:
            starts = np.flatnonzero(
                np.concatenate([[True], receivers[1:] != receivers[:-1]])
            )
            seg = (starts, receivers[starts])
        self._segments = seg
        return seg

    def min_by_receiver(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-receiver minimum of ``values`` (parallel to the columns).

        Returns ``(nodes, mins)`` for the receivers that got at least one
        message — the flooding reduction (`np.minimum.reduceat` over the
        receiver segments), with no per-node Python work.
        """
        starts, nodes = self.segments()
        if nodes.shape[0] == 0:
            return nodes, _NO_COLUMN
        return nodes, np.minimum.reduceat(values, starts)

    # ------------------------------------------------------------------
    def to_node_lists(self, n: int) -> list[list[tuple[int, str, int]]]:
        """Materialise per-node ``(sender, kind, payload)`` inbox lists.

        Test/debug interop only — defeats the whole point on hot paths.
        """
        out: list[list[tuple[int, str, int]]] = [[] for _ in range(n)]
        kinds = self.kinds
        uniform = None if type(kinds) is np.ndarray else KINDS.name(int(kinds))
        for i in range(len(self)):
            payload: int | tuple[int, int] = int(self.payloads[i])
            if self.payloads2 is not None:
                payload = (payload, int(self.payloads2[i]))
            out[int(self.receivers[i])].append(
                (
                    int(self.senders[i]),
                    uniform if uniform is not None else KINDS.name(int(kinds[i])),
                    payload,
                )
            )
        return out


_EMPTY_INBOX = SoAInbox(_NO_COLUMN, _NO_COLUMN, 0, _NO_COLUMN)


class SoAProtocolClass:
    """All nodes of one protocol, advanced by a single call per round.

    Subclasses hold the population's state in numpy columns and implement
    :meth:`on_round_soa`: consume the round's :class:`SoAInbox`, return
    the whole population's outgoing traffic as one
    :class:`~repro.net.batch.MessageBatch` (or ``None``).

    Contract (enforced by the engine):

    - the class covers the contiguous id range ``0..n-1``;
    - the emitted batch's ``senders`` is a per-message column sorted
      ascending (canonical node order; within one sender, emission order)
      — this is what makes the delivery RNG discipline, and therefore the
      whole execution, bit-for-bit identical to the object tier;
    - the vectorized delivery engine only (`engine="vectorized"`).
    """

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("an SoA protocol class needs at least one node")
        self.n = n

    def on_round_soa(self, round_no: int, inbox: SoAInbox) -> MessageBatch | None:
        """Advance every node one round; return the population's traffic."""
        raise NotImplementedError

    def is_idle(self) -> bool:
        """True when *every* node has no pending work (class-level analogue
        of :meth:`~repro.net.network.ProtocolNode.is_idle`)."""
        return True
