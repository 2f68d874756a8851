"""The emission record of structure-of-arrays protocol classes.

A :class:`MessageBatch` is one round of a whole SoA population's traffic
(:meth:`repro.net.soa.SoAProtocolClass.on_round_soa`): parallel ``int64``
columns (sender, receiver, kind code, payload) that the vectorized
delivery tail of :class:`repro.net.network.SyncNetwork` moves through
numpy without materialising Python message objects.

Design notes
------------
- **Kinds are interned.**  Message kinds are short strings ("token",
  "accept", …); the module-level :data:`KINDS` table maps them to small
  integer codes so batches stay pure ``int64``.  The table is append-only
  and process-global — the handful of protocol kinds never collide.
  ``kinds`` may be stored as a scalar when uniform across the batch (the
  common case: a protocol round emits one kind).
- **Payloads are integers.**  A batch payload is one ``int64`` per message
  — or an ``(int64, int64)`` pair when the optional second payload lane
  ``payloads2`` is attached (e.g. the rooting phase's ``(depth, offerer)``
  BFS offers).  Either shape matches the paper's ``O(log n)``-bit packets.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KindTable", "KINDS", "MessageBatch"]


class KindTable:
    """Bidirectional interning of message-kind strings to int codes."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._names: list[str] = []

    def code(self, kind: str) -> int:
        """Intern ``kind`` and return its stable integer code."""
        code = self._codes.get(kind)
        if code is None:
            code = len(self._names)
            self._codes[kind] = code
            self._names.append(kind)
        return code

    def name(self, code: int) -> str:
        return self._names[code]


#: Process-global kind registry shared by all networks and batches.
KINDS = KindTable()


def _as_column(value, length: int, what: str) -> np.ndarray:
    arr = np.asarray(value, dtype=np.int64)
    if arr.shape != (length,):
        raise ValueError(f"{what} column has shape {arr.shape}, expected ({length},)")
    return arr


class MessageBatch:
    """A flat batch of messages: parallel int64 columns.

    ``senders``, ``receivers`` and ``payloads`` are arrays; ``kinds`` is a
    scalar code meaning "uniform across the batch" or a column.
    ``payloads2`` is an optional second payload lane (``None`` when the
    batch carries single-integer payloads): protocols whose packets are
    integer *pairs* — e.g. the rooting phase's ``(depth, offerer)`` BFS
    offers — put the first component in ``payloads`` and the second in
    ``payloads2``.
    """

    __slots__ = ("senders", "receivers", "kinds", "payloads", "payloads2")

    def __init__(self, senders, receivers, kinds, payloads=None, payloads2=None) -> None:
        self.receivers = np.asarray(receivers, dtype=np.int64)
        if self.receivers.ndim != 1:
            raise ValueError("receivers must be a 1-d array")
        m = self.receivers.shape[0]
        self.senders = _as_column(senders, m, "senders")
        if isinstance(kinds, str):
            kinds = KINDS.code(kinds)
        # A scalar is normalised to a python int so hot-path code can test
        # ``type(x) is np.ndarray`` to distinguish the uniform case.
        self.kinds = int(kinds) if np.ndim(kinds) == 0 else _as_column(kinds, m, "kinds")
        if payloads is None:
            payloads = np.zeros(m, dtype=np.int64)
        self.payloads = _as_column(payloads, m, "payloads")
        self.payloads2 = (
            None if payloads2 is None else _as_column(payloads2, m, "payloads2")
        )

    @classmethod
    def _raw(cls, senders, receivers, kinds, payloads, payloads2=None) -> "MessageBatch":
        """Unvalidated constructor for protocol hot paths.

        Columns are stored exactly as given (arrays may be views into
        protocol state) — callers own the invariants the public
        constructor would otherwise check.
        """
        batch = object.__new__(cls)
        batch.senders = senders
        batch.receivers = receivers
        batch.kinds = kinds
        batch.payloads = payloads
        batch.payloads2 = payloads2
        return batch

    def __len__(self) -> int:
        return self.receivers.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageBatch(len={len(self)})"
