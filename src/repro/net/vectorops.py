"""Vectorized grouping and group-truncation primitives shared across the
reproduction.

**Grouping.**  Most per-round work in the engine groups ``m`` rows by a
small integer label (receiver, parent, component, walk position):
:func:`group_sort` returns the stable grouping permutation *and* the
sorted labels from one ``np.sort`` over packed int64 keys
``label << b | row`` (``b = bit_length(m - 1)``).  The low bits are the
permutation and the high bits the sorted labels, so callers need
neither numpy's stable int64 mergesort nor a ``labels[order]`` gather.
When ``bound << b`` would not fit in 62 bits it falls back to
``np.argsort(kind="stable")`` with the identical result.  The delivery
tail of :class:`repro.net.network.SyncNetwork` uses it once per round,
with the tail's own row numbers in the low bits.  :func:`group_argsort`
is the permutation alone.

**Truncation.**  Both delivery engines and the acceptance step of
``CreateExpander`` (§2.1 line c) face the same problem: given ``m``
items labelled with a group id (sender, receiver, or walk endpoint),
keep a *uniformly random* subset of at most ``cap`` items per group and
drop the rest — the paper's "arbitrary subset" drop semantics made
uniform (§1.1).  :func:`segmented_keep_indices` draws **one**
``rng.permutation(m)`` and keeps, within each group, the ``cap`` items
of lowest permutation rank.  Because every permutation is equally
likely, each size-``cap`` subset of a group is kept with equal
probability (the chi-square tests in
``tests/net/test_capacity_semantics.py`` pin this down).  Centralising
the draw here is what makes the legacy and vectorized network engines
agree *exactly*: both call this function with identical group arrays in
the same canonical order, so the same messages survive under the same
seed.
"""

from __future__ import annotations

import numpy as np

from repro import sanitize as _sanitize

__all__ = ["segmented_keep_indices", "group_sort", "group_argsort"]

#: Packed keys stay below ``2**62``, clear of int64's sign bit.
_PACK_LIMIT = 1 << 62


def group_sort(
    values: np.ndarray, bound: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping sort of integer labels in ``[0, bound)``.

    Returns ``(order, sorted_values)``, exactly
    ``(np.argsort(values, kind="stable"), np.sort(values))``, from one
    ``np.sort`` over the packed keys ``values << b | row``.  Labels are
    cast to int64 first, so a narrower column cannot wrap in the shift.

    ``rows`` replaces the row numbers carried in the low bits (default
    ``arange(m)``), so ``order`` indexes a larger record directly.  Ties
    then break by ``rows``, which must therefore ascend within every
    group of equal labels for ``order`` to be the stable order.
    """
    values = np.asarray(values, dtype=np.int64)
    m = values.shape[0]
    if _sanitize.ENABLED:
        _sanitize.check_bounded("group_sort values", values, bound)
    top = m - 1 if rows is None or not m else int(rows.max())
    b = max(top, 0).bit_length()
    if bound > _PACK_LIMIT >> b:
        order = np.argsort(values, kind="stable")
        return (order if rows is None else rows[order]), values[order]
    key = values << b
    key |= np.arange(m, dtype=np.int64) if rows is None else rows
    key.sort()
    order = key & ((1 << b) - 1)
    key >>= b
    return order, key


def group_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(values, kind="stable")`` for labels in ``[0, bound)``:
    the permutation half of :func:`group_sort`."""
    return group_sort(values, bound)[0]


def segmented_keep_indices(
    groups: np.ndarray, cap: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices (sorted ascending) of items kept under a per-group cap.

    Parameters
    ----------
    groups:
        ``(m,)`` integer array — the group label of each item, in the
        caller's canonical item order.
    cap:
        Maximum number of items to keep per group (``>= 0``).
    rng:
        Randomness source; consumes exactly one ``permutation(m)`` draw.

    Returns
    -------
    np.ndarray
        Sorted item indices, so selecting them preserves the canonical
        order of the survivors.
    """
    groups = np.asarray(groups)
    m = groups.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.int64)
    perm = rng.permutation(m)
    shuffled = groups[perm]
    order = np.argsort(shuffled, kind="stable")
    sorted_groups = shuffled[order]
    group_start = np.searchsorted(sorted_groups, sorted_groups, side="left")
    rank_in_group = np.arange(m) - group_start
    keep = rank_in_group < cap
    return np.sort(perm[order[keep]])
