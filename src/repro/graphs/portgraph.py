"""Port-based ``Δ``-regular lazy multigraphs ("benign graphs").

Definition 2.1 of the paper requires every evolution graph ``G_i`` to be

1. ``Δ``-regular — every node has exactly ``Δ`` incident edge endpoints,
2. lazy — at least ``Δ/2`` of them are self-loops, and
3. ``Λ``-connected — every cut has at least ``Λ`` edges.

The natural representation is a *port array*: an ``(n, Δ)`` integer matrix
``ports`` where ``ports[v, k]`` is the node at the other end of ``v``'s
``k``-th port (``v`` itself for a self-loop).  A random-walk step from ``v``
picks a port uniformly at random, which is exactly the paper's walk model
(self-loops contribute a single port, so a node with ``Δ/2`` self-loops
stays put with probability ``1/2``).

The representation is fully vectorised: the walk engine
(:mod:`repro.core.walks`) advances hundreds of thousands of tokens per step
with two numpy gathers, which is what makes large-``n`` experiments feasible
(the calibration notes flag simulation speed as the reproduction risk).

Alongside the partner node, each port optionally carries an *edge id*
(``port_edge_ids``), used by the spanning-tree algorithm of Theorem 1.3 to
"unwind" random walks: every non-loop edge of every evolution graph is
registered with provenance so a walk can be expanded back to base-graph
edges.  Self-loop ports carry edge id ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PortGraph", "SELF_LOOP"]

#: Edge id stored on self-loop ports.
SELF_LOOP = -1


@dataclass
class PortGraph:
    """A ``Δ``-regular multigraph with self-loops, stored as a port array.

    Parameters
    ----------
    ports:
        ``(n, Δ)`` integer array; ``ports[v, k]`` is the partner of port
        ``k`` at node ``v``.  A value equal to ``v`` denotes a self-loop.
    port_edge_ids:
        Optional ``(n, Δ)`` integer array giving the id of the undirected
        edge each port belongs to (``SELF_LOOP`` for self-loops).  Both
        endpoints of an edge carry the same id, which is what lets walk
        traces be resolved back to edges.
    """

    ports: np.ndarray
    port_edge_ids: np.ndarray | None = field(default=None)

    def __post_init__(self) -> None:
        self.ports = np.asarray(self.ports, dtype=np.int64)
        if self.ports.ndim != 2:
            raise ValueError("ports must be a 2-D (n, delta) array")
        if self.port_edge_ids is not None:
            self.port_edge_ids = np.asarray(self.port_edge_ids, dtype=np.int64)
            if self.port_edge_ids.shape != self.ports.shape:
                raise ValueError("port_edge_ids must match ports in shape")

    # ------------------------------------------------------------------
    # Basic shape accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.ports.shape[0]

    @property
    def delta(self) -> int:
        """Uniform degree ``Δ`` (ports per node)."""
        return self.ports.shape[1]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_multiset(
        cls,
        n: int,
        delta: int,
        endpoints_a: np.ndarray,
        endpoints_b: np.ndarray,
        edge_ids: np.ndarray | None = None,
    ) -> "PortGraph":
        """Build a port graph from an undirected edge multiset, padding every
        node with self-loops up to degree ``delta``.

        Each edge ``{a, b}`` consumes one port at ``a`` and one at ``b``
        (two ports at ``a`` if ``a == b``, i.e. an explicitly created
        loop-edge, as opposed to padding self-loops which consume one).

        Raises
        ------
        ValueError
            If some node would exceed ``delta`` ports.
        """
        endpoints_a = np.asarray(endpoints_a, dtype=np.int64)
        endpoints_b = np.asarray(endpoints_b, dtype=np.int64)
        if endpoints_a.shape != endpoints_b.shape:
            raise ValueError("endpoint arrays must have equal length")
        m = endpoints_a.shape[0]
        if edge_ids is None:
            edge_ids = np.arange(m, dtype=np.int64)
        else:
            edge_ids = np.asarray(edge_ids, dtype=np.int64)

        # Each edge produces two (node, partner, edge_id) port stubs.
        stub_nodes = np.concatenate([endpoints_a, endpoints_b])
        stub_partners = np.concatenate([endpoints_b, endpoints_a])
        stub_ids = np.concatenate([edge_ids, edge_ids])

        counts = np.bincount(stub_nodes, minlength=n)
        if counts.max(initial=0) > delta:
            worst = int(np.argmax(counts))
            raise ValueError(
                f"node {worst} has {int(counts[worst])} edge endpoints, "
                f"exceeding delta={delta}"
            )

        node_ids = np.arange(n, dtype=np.int64)
        ports = np.repeat(node_ids[:, None], delta, axis=1)
        ids = np.full((n, delta), SELF_LOOP, dtype=np.int64)

        # Stable sort stubs by node, then compute each stub's slot index
        # within its node group so scatter assignment is vectorised.
        order = np.argsort(stub_nodes, kind="stable")
        sorted_nodes = stub_nodes[order]
        group_starts = np.searchsorted(sorted_nodes, sorted_nodes, side="left")
        slots = np.arange(sorted_nodes.shape[0]) - group_starts
        ports[sorted_nodes, slots] = stub_partners[order]
        ids[sorted_nodes, slots] = stub_ids[order]
        return cls(ports=ports, port_edge_ids=ids)

    @classmethod
    def ring_with_chords(
        cls, n: int, delta: int = 16, chords: int = 2, seed: int | None = 0
    ) -> "PortGraph":
        """Connected low-diameter multigraph standing in for evolution
        output: a ring (connectivity) plus ``chords`` random permutation
        chord sets (expansion), so every node has degree
        ``≤ 2 + 2·chords`` regardless of ``n``.

        The shared workload family of the S3/S4 rooting benchmarks and
        the SoA differential/property suites — their cross-checks assume
        they all sample the *same* family, so the construction lives
        here once.
        """
        rng = np.random.default_rng(seed)
        idx = np.arange(n, dtype=np.int64)
        ends_a = [idx]
        ends_b = [np.roll(idx, -1)]
        for _ in range(chords):
            ends_a.append(idx)
            ends_b.append(rng.permutation(n).astype(np.int64))
        return cls.from_edge_multiset(
            n=n,
            delta=delta,
            endpoints_a=np.concatenate(ends_a),
            endpoints_b=np.concatenate(ends_b),
        )

    @classmethod
    def complete_lazy(cls, n: int, delta: int) -> "PortGraph":
        """A lazy circulant reference graph: ``Δ/2`` ports per node point
        at symmetric shifts ``±1, ±2, …`` and the rest are self-loops.
        Useful as an "already good" starting point in tests.

        Shifts come in ``(s, n−s)`` pairs so the port multiset is a valid
        undirected multigraph; a final unpaired port (odd ``Δ/2``) stays a
        self-loop to preserve symmetry.
        """
        half = delta // 2
        ports = np.repeat(np.arange(n, dtype=np.int64)[:, None], delta, axis=1)
        if n > 1:
            for k in range(half - (half % 2)):
                s = (k // 2) % (n - 1) + 1
                shift = s if k % 2 == 0 else n - s
                ports[:, k] = (np.arange(n) + shift) % n
        return cls(ports=ports)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def self_loop_counts(self) -> np.ndarray:
        """Number of self-loop ports per node."""
        return (self.ports == np.arange(self.n)[:, None]).sum(axis=1)

    def real_degree(self) -> np.ndarray:
        """Number of non-self-loop ports per node."""
        return self.delta - self.self_loop_counts()

    def is_lazy(self, min_fraction: float = 0.5) -> bool:
        """True if every node has at least ``min_fraction · Δ`` self-loops
        (Definition 2.1, property 2)."""
        return bool(self.self_loop_counts().min(initial=self.delta) >= min_fraction * self.delta)

    def is_symmetric(self) -> bool:
        """True if the port multiset is a valid undirected multigraph: the
        number of ports at ``u`` pointing to ``v`` equals the number at
        ``v`` pointing to ``u`` for every pair ``u ≠ v``."""
        u = np.repeat(np.arange(self.n), self.delta)
        v = self.ports.ravel()
        mask = u != v
        forward = {}
        for a, b in zip(u[mask].tolist(), v[mask].tolist()):
            forward[(a, b)] = forward.get((a, b), 0) + 1
        for (a, b), cnt in forward.items():
            if forward.get((b, a), 0) != cnt:
                return False
        return True

    def neighbor_sets(self) -> list[set[int]]:
        """Simple-graph adjacency (distinct non-self partners per node)."""
        out: list[set[int]] = []
        for v in range(self.n):
            row = self.ports[v]
            out.append({int(u) for u in row if u != v})
        return out

    def edge_multiset(self) -> list[tuple[int, int]]:
        """All undirected non-loop edges with multiplicity.

        Each edge ``{u, v}`` appears once per parallel copy (derived from
        the port array; every copy occupies one port at each endpoint).
        """
        edges: list[tuple[int, int]] = []
        for v in range(self.n):
            for u in self.ports[v]:
                u = int(u)
                if u > v:
                    edges.append((v, u))
        return edges

    def unique_edges(self) -> set[tuple[int, int]]:
        """Distinct undirected non-loop edges (no multiplicity)."""
        return set(self.edge_multiset())

    def num_unique_edges(self) -> int:
        """``len(unique_edges())`` without materialising Python tuples.

        One vectorized pass over the port matrix — the per-evolution
        ``distinct_edges`` statistic at ``n = 10⁵`` costs milliseconds
        instead of a 10⁶-iteration Python loop.
        """
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.delta)
        cols = self.ports.reshape(-1)
        mask = cols > rows
        if not mask.any():
            return 0
        keys = np.sort(rows[mask] * np.int64(self.n) + cols[mask])
        return int(1 + np.count_nonzero(keys[1:] != keys[:-1]))

    # ------------------------------------------------------------------
    # Matrices
    # ------------------------------------------------------------------
    def walk_matrix(self) -> np.ndarray:
        """Dense random-walk transition matrix ``P`` with
        ``P[v, u] = (#ports of v pointing at u) / Δ``.

        For a symmetric port multiset ``P`` is a symmetric doubly
        stochastic matrix, so its eigenvalues are real — the spectral-gap
        measurements in :mod:`repro.graphs.spectral` rely on this.  Dense;
        intended for ``n`` up to a few thousand.
        """
        mat = np.zeros((self.n, self.n), dtype=np.float64)
        rows = np.repeat(np.arange(self.n), self.delta)
        np.add.at(mat, (rows, self.ports.ravel()), 1.0)
        mat /= self.delta
        return mat

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def copy(self) -> "PortGraph":
        ids = None if self.port_edge_ids is None else self.port_edge_ids.copy()
        return PortGraph(ports=self.ports.copy(), port_edge_ids=ids)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"PortGraph(n={self.n}, delta={self.delta})"
