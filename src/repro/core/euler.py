"""Euler tour technique: list ranking, preorder labels, and rebalancing.

The final step of the paper's pipeline (§2.1, following [53] and [27])
turns the constant-degree child–sibling tree into a **well-formed tree** —
rooted, constant degree, depth ``O(log n)``:

1. construct the Euler tour of the tree (every edge traversed once in each
   direction) via the purely local successor rule;
2. compute every tour element's *position* with pointer jumping
   (``O(log n)`` doubling rounds — implemented here as actual doubling on
   arrays, not a closed-form shortcut, so the round count is real);
3. label nodes by first visit (preorder) and rebuild the tree as a
   binary heap over that order: the node of rank ``r`` attaches to the node
   of rank ``⌊(r−1)/2⌋``.  Depth becomes ``⌊log₂ n⌋`` and degree ≤ 3.

The same tour machinery provides preorder labels ``l(v)`` and subtree
sizes ``nd(v)`` for the Tarjan–Vishkin biconnectivity algorithm
(Theorem 1.4), which consumes them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.child_sibling import RootedTree, to_child_sibling
from repro.net.vectorops import group_sort

__all__ = [
    "EulerTour",
    "EulerTourForest",
    "euler_tour",
    "euler_tour_forest",
    "list_rank",
    "list_rank_with_finish",
    "preorder_and_sizes",
    "heap_tree",
    "WellFormedTree",
    "build_well_formed_from_tree",
]


@dataclass
class EulerTour:
    """An Euler tour of a rooted tree.

    ``edges[k] = (u, v)`` is the ``k``-th directed traversal; the tour
    starts at the root and has exactly ``2(n-1)`` entries.  ``first_entry``
    and ``exit_entry`` give, for every non-root node, the indices of its
    ``(parent, v)`` and ``(v, parent)`` traversals.

    **Root-sentinel contract** (see ``docs/contracts.md``): the root has
    no parent edge, so ``first_entry[root] == exit_entry[root] == -1``;
    for a single-node tree *both arrays are entirely* ``-1`` (and
    ``edges`` is empty).  Consumers must branch on the root (or on
    ``entry >= 0``) before indexing with these values — ``-1`` silently
    aliases the *last* tour position under numpy indexing, which is a
    valid-looking wrong answer, not an error.
    """

    root: int
    edges: list[tuple[int, int]]
    first_entry: np.ndarray
    exit_entry: np.ndarray

    @property
    def length(self) -> int:
        return len(self.edges)


def euler_tour(tree: RootedTree) -> EulerTour:
    """Construct the Euler tour using the local successor rule.

    Each node orders its tree neighbours (parent last, children ascending);
    the successor of the traversal ``(u, v)`` is ``(v, w)`` where ``w`` is
    the neighbour of ``v`` that follows ``u`` cyclically in ``v``'s order.
    Every node can compute its successors locally, which is why this costs
    ``O(1)`` rounds in the overlay; here we build the successor map and
    walk it.
    """
    n = tree.n
    children = tree.children_lists()
    if n == 1:
        return EulerTour(
            root=tree.root,
            edges=[],
            first_entry=np.full(1, -1, dtype=np.int64),
            exit_entry=np.full(1, -1, dtype=np.int64),
        )

    # Neighbour ordering per node: children ascending, then parent.
    order: list[list[int]] = []
    for v in range(n):
        neigh = list(children[v])
        if v != tree.root:
            neigh.append(int(tree.parent[v]))
        order.append(neigh)

    index_of: list[dict[int, int]] = [
        {u: i for i, u in enumerate(neigh)} for neigh in order
    ]

    def successor(u: int, v: int) -> tuple[int, int]:
        neigh = order[v]
        k = index_of[v][u]
        w = neigh[(k + 1) % len(neigh)]
        return (v, w)

    start = (tree.root, order[tree.root][0])
    edges = [start]
    cur = start
    for _ in range(2 * (n - 1) - 1):
        cur = successor(*cur)
        edges.append(cur)

    first_entry = np.full(n, -1, dtype=np.int64)
    exit_entry = np.full(n, -1, dtype=np.int64)
    parent = tree.parent
    for k, (u, v) in enumerate(edges):
        if parent[v] == u and first_entry[v] < 0:
            first_entry[v] = k
        if parent[u] == v:
            exit_entry[u] = k
    return EulerTour(root=tree.root, edges=edges, first_entry=first_entry, exit_entry=exit_entry)


def list_rank(successor: np.ndarray) -> tuple[np.ndarray, int]:
    """List ranking by pointer jumping (Wyllie's algorithm).

    ``successor[k]`` is the next element of a linked list (``-1`` at the
    tail).  Returns ``(distance_to_tail, rounds)`` where ``rounds`` is the
    number of doubling rounds performed — the synchronous rounds a
    distributed implementation needs (``⌈log₂ m⌉``).
    """
    m = successor.shape[0]
    nxt = successor.copy()
    dist = (nxt >= 0).astype(np.int64)
    rounds = 0
    while (nxt >= 0).any():
        has_next = nxt >= 0
        targets = nxt[has_next]
        dist[has_next] += dist[targets]
        new_nxt = nxt.copy()
        new_nxt[has_next] = nxt[targets]
        nxt = new_nxt
        rounds += 1
    return dist, rounds


def list_rank_with_finish(
    successor: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`list_rank` that also records per-element finish rounds.

    ``finish[k]`` is the number of doubling rounds during which element
    ``k`` still held a live successor.  When several disjoint lists are
    ranked in one combined pass (the forest tours), pointer jumping
    evolves each element exactly as it would in a standalone run of its
    own list, so ``max(finish)`` over one list's elements equals the
    round count :func:`list_rank` would report for that list alone —
    which is how the columnar well-forming charges per-component rounds
    without falling back to a closed-form shortcut.
    """
    m = successor.shape[0]
    nxt = successor.copy()
    dist = (nxt >= 0).astype(np.int64)
    finish = np.zeros(m, dtype=np.int64)
    rounds = 0
    while True:
        has_next = np.flatnonzero(nxt >= 0)
        if has_next.shape[0] == 0:
            return dist, finish, rounds
        rounds += 1
        finish[has_next] = rounds
        targets = nxt[has_next]
        dist[has_next] += dist[targets]
        new_nxt = nxt.copy()
        new_nxt[has_next] = nxt[targets]
        nxt = new_nxt


@dataclass
class EulerTourForest:
    """Euler tours of every tree of a forest, as flat global columns.

    The columnar counterpart of running :func:`euler_tour` per
    component: ``first_entry[v]`` / ``exit_entry[v]`` are the indices of
    ``v``'s ``(parent, v)`` and ``(v, parent)`` traversals *within its
    own component's tour* (each tour starts at its root and has
    ``2(n_c - 1)`` entries), so the values coincide with the
    per-component :class:`EulerTour` after any monotone relabelling.

    **Root-sentinel contract**: exactly as for :class:`EulerTour`,
    ``first_entry`` and ``exit_entry`` are ``-1`` for every component
    root — and therefore for every singleton component's only node.
    ``rank_rounds`` charges, per node, the pointer-jumping rounds its
    tour edges stayed live in the combined list ranking (0 for roots);
    the per-component maximum is that component's :func:`list_rank`
    round count.
    """

    first_entry: np.ndarray
    exit_entry: np.ndarray
    rank_rounds: np.ndarray
    rounds: int


def euler_tour_forest(parent: np.ndarray, root_of: np.ndarray) -> EulerTourForest:
    """Vectorized Euler tours of a whole forest via the successor rule.

    ``parent`` is a global parent array (roots self-parented; constant
    degree is *not* required) and ``root_of[v]`` identifies ``v``'s
    component.  One pass builds the successor array of every directed
    tree edge — neighbour order at each node is children ascending,
    then parent, exactly :func:`euler_tour`'s local rule — and one
    combined pointer-jumping ranking positions all tours at once, so
    the cost is ``O(E log E)`` array work with no per-node Python.
    """
    parent = np.asarray(parent, dtype=np.int64)
    root_of = np.asarray(root_of, dtype=np.int64)
    n = parent.shape[0]
    first_entry = np.full(n, -1, dtype=np.int64)
    exit_entry = np.full(n, -1, dtype=np.int64)
    rank_rounds = np.zeros(n, dtype=np.int64)
    nonroot = np.flatnonzero(parent != np.arange(n, dtype=np.int64))
    k = nonroot.shape[0]
    if k == 0:
        return EulerTourForest(first_entry, exit_entry, rank_rounds, 0)

    # Children grouped by parent (ascending inside each group, since
    # ``nonroot`` is ascending and the grouping sort is stable).
    parents_of = parent[nonroot]
    child, par = group_sort(parents_of, n, nonroot)
    is_first = np.concatenate([[True], par[1:] != par[:-1]])
    is_last = np.concatenate([par[1:] != par[:-1], [True]])
    first_child = np.full(n, -1, dtype=np.int64)
    first_child[par[is_first]] = child[is_first]
    has_children = first_child >= 0
    # Down edge i traverses (par[i] -> child[i]); up edge k + i the
    # reverse.  ``slot[v]`` is v's down/up edge index.
    # Zero-init: ``slot`` is only meaningful for non-root nodes, but
    # masked ``np.where`` branches still gather through it.
    slot = np.zeros(n, dtype=np.int64)
    slot[child] = np.arange(k, dtype=np.int64)

    succ = np.empty(2 * k, dtype=np.int64)
    # Arriving at v from its parent: continue to v's first child, or
    # bounce straight back up if v is a leaf.
    succ[:k] = np.where(
        has_children[child],
        slot[np.maximum(first_child[child], 0)],
        np.arange(k, dtype=np.int64) + k,
    )
    # Arriving at p from child c: continue to c's next sibling (the
    # next grouped row), else climb to p's own up edge; the last child
    # of a root ends the tour (-1).
    parent_is_root = parent[par] == par
    succ[k:] = np.where(
        ~is_last,
        np.arange(1, k + 1, dtype=np.int64),
        np.where(parent_is_root, -1, k + slot[par]),
    )

    dist, finish, rounds = list_rank_with_finish(succ)
    # Position within the component tour: the tail edge of a tour of
    # length m sits at position m - 1 and has distance 0 to itself.
    comp_nonroot = np.bincount(root_of[nonroot], minlength=n)
    tour_len = 2 * comp_nonroot[root_of[child]]
    first_entry[child] = tour_len - 1 - dist[:k]
    exit_entry[child] = tour_len - 1 - dist[k:]
    rank_rounds[child] = np.maximum(finish[:k], finish[k:])
    return EulerTourForest(first_entry, exit_entry, rank_rounds, rounds)


def preorder_and_sizes(tree: RootedTree) -> tuple[np.ndarray, np.ndarray, int]:
    """Preorder labels ``l(v) ∈ {1..n}`` and subtree sizes ``nd(v)``.

    Computed from the Euler tour: ``l`` orders nodes by first visit and
    ``nd(v) = (exit(v) − enter(v) + 1) / 2`` counts tour edges inside the
    subtree (Tarjan–Vishkin Step 1/2).  Returns ``(labels, sizes, rounds)``
    with the list-ranking round count.
    """
    n = tree.n
    if n == 1:
        return np.array([1], dtype=np.int64), np.array([1], dtype=np.int64), 0
    tour = euler_tour(tree)
    m = tour.length
    succ = np.arange(1, m + 1, dtype=np.int64)
    succ[-1] = -1
    _dist, rounds = list_rank(succ)

    labels = np.zeros(n, dtype=np.int64)
    sizes = np.zeros(n, dtype=np.int64)
    labels[tree.root] = 1
    sizes[tree.root] = n
    # Nodes sorted by first entry give preorder positions 2..n.
    others = [v for v in range(n) if v != tree.root]
    others.sort(key=lambda v: int(tour.first_entry[v]))
    for i, v in enumerate(others):
        labels[v] = i + 2
        sizes[v] = (int(tour.exit_entry[v]) - int(tour.first_entry[v]) + 1) // 2
    return labels, sizes, rounds


def heap_tree(order: list[int]) -> RootedTree:
    """Binary-heap-shaped tree over ``order``: the node of rank ``r``
    attaches to the node of rank ``⌊(r−1)/2⌋``.  Depth ``⌊log₂ n⌋``,
    degree ≤ 3."""
    n = len(order)
    parent = np.arange(n, dtype=np.int64)
    for r in range(1, n):
        parent[order[r]] = order[(r - 1) // 2]
    return RootedTree(root=order[0], parent=parent)


@dataclass
class WellFormedTree:
    """A well-formed tree (§1.2): rooted, degree ≤ 3, depth ``O(log n)``.

    ``rounds`` charges the overlay rounds of the transformation: one round
    for the child–sibling rewiring, the pointer-jumping rounds of list
    ranking, and ``⌈log₂ n⌉`` rounds for routing the rank-to-parent
    introductions along the doubling shortcuts.
    """

    tree: RootedTree
    rounds: int

    @property
    def root(self) -> int:
        return self.tree.root

    def depth(self) -> int:
        return int(self.tree.depth_array().max(initial=0))

    def max_degree(self) -> int:
        return self.tree.max_degree()


def build_well_formed_from_tree(tree: RootedTree) -> WellFormedTree:
    """§2.1 final stage: BFS tree → child–sibling tree → Euler tour →
    preorder ranks → binary heap tree."""
    n = tree.n
    if n == 1:
        return WellFormedTree(tree=tree, rounds=0)
    cs_tree = to_child_sibling(tree)
    labels, _sizes, rank_rounds = preorder_and_sizes(cs_tree)
    order = [0] * n
    for v in range(n):
        order[labels[v] - 1] = v
    wft = heap_tree(order)
    wft.validate()
    routing_rounds = int(np.ceil(np.log2(max(2, n))))
    return WellFormedTree(tree=wft, rounds=1 + rank_rounds + routing_rounds)
