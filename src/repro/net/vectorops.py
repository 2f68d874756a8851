"""Vectorized group-truncation primitives shared across the reproduction.

Both delivery engines of :class:`repro.net.network.SyncNetwork` and the
acceptance step of ``CreateExpander`` (§2.1 line c) face the same problem:
given ``m`` items labelled with a group id (sender, receiver, or walk
endpoint), keep a *uniformly random* subset of at most ``cap`` items per
group and drop the rest — the paper's "arbitrary subset" drop semantics
made uniform (§1.1).

The implementation draws **one** ``rng.permutation(m)`` and keeps, within
each group, the ``cap`` items of lowest permutation rank.  Because every
permutation is equally likely, each size-``cap`` subset of a group is kept
with equal probability (the chi-square tests in
``tests/net/test_capacity_semantics.py`` pin this down).  Centralising the
draw here is what makes the legacy and vectorized network engines agree
*exactly*: both call this function with identical group arrays in the same
canonical order, so the same messages survive under the same seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["segmented_keep_indices", "group_argsort"]


def group_argsort(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of small non-negative integers (group labels).

    Exactly ``np.argsort(values, kind="stable")`` for ``values`` in
    ``[0, bound)``, but ~4× faster on large rounds: when the unique
    combined key ``value·m + index`` fits in int64 it is introsorted
    (numpy's stable sort for int64 is a mergesort, which the delivery
    tail's per-round receiver grouping spends most of its time in).
    Falls back to the stable sort when the key could overflow.
    """
    m = values.shape[0]
    if m and bound <= (2**62) // m:
        return np.argsort(values * np.int64(m) + np.arange(m, dtype=np.int64))
    return np.argsort(values, kind="stable")


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
