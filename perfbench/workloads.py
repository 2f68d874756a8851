"""The four benchmark workloads, all on the SoA tier at ``workers=1``.

A workload builds its inputs from the seed alone, runs one construction
through a public entry point of the library, turns the outcome into a
small record (exact counts plus the arrays the checks need), and checks
that record against an independent oracle after the timed region.

Entry points are looked up on their modules at call time, so the layer
wrappers of :mod:`probes` see every call.
"""

from __future__ import annotations

import hashlib

import numpy as np

import repro.core.pipeline as pipeline
import repro.core.soa_rooting as soa_rooting
import repro.hybrid.components as components
import repro.scenarios.runner as runner
from repro.graphs import generators as gen
from repro.graphs.portgraph import PortGraph
from repro.hybrid import soa_pipeline
from repro.scenarios.spec import CrashWave, LinkDelay, MessageDrop, ScenarioSpec

#: Degree bound and chord sets of the ring-plus-chords rooting inputs
#: (the family the S2–S4 benches use as a stand-in for expander output).
RING_DELTA = 16
RING_CHORDS = 2


def _fingerprint(*arrays) -> str:
    digest = hashlib.sha1()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return digest.hexdigest()[:16]


def _construction_rng(seed: int) -> np.random.Generator:
    # A stream of its own, so the input draws and the construction's
    # draws never share a generator.
    return np.random.default_rng([seed, 1])


def _node_msgs_max(metrics) -> int:
    return max(metrics.max_sent_per_round, metrics.max_received_per_round)


def check_tree(parent: np.ndarray, max_degree: int | None = None) -> list[str]:
    """Rooted spanning tree over ``0..n-1`` (optionally degree-bounded)."""
    n = parent.shape[0]
    ids = np.arange(n, dtype=np.int64)
    if ((parent < 0) | (parent >= n)).any():
        return ["a parent pointer is out of range"]
    roots = np.flatnonzero(parent == ids)
    if roots.shape[0] != 1:
        return [f"expected one root, found {roots.shape[0]}"]
    anc = parent.copy()
    for _ in range(max(1, int(n).bit_length())):
        anc = anc[anc]
    if (anc != roots[0]).any():
        return ["the parent pointers do not all lead to the root (cycle)"]
    if max_degree is not None:
        child = ids != parent
        degree = np.bincount(parent[child], minlength=n) + child
        if int(degree.max()) > max_degree:
            return [f"tree degree {int(degree.max())} exceeds {max_degree}"]
    return []


def check_bfs_equal(ref, parent, depth) -> list[str]:
    """The rooting must equal the columnar BFS forest oracle ``ref``
    (``build_bfs_forest_soa`` on the same graph) exactly."""
    out = []
    if not np.array_equal(parent, ref.parent):
        out.append("rooting parents differ from build_bfs_forest_soa")
    if not np.array_equal(depth, ref.depth):
        out.append("rooting depths differ from build_bfs_forest_soa")
    return out


class Workload:
    """Inputs from a seed, one construction, its record and its checks."""

    name: str

    def layer_extras(self, inputs, rec: dict, ctx, seed: int) -> dict:
        """Per-layer values that need work outside the timed region."""
        return {}


class OverlayLine(Workload):
    """Theorem 1.1 end to end: CreateExpander, rooting, well-forming."""

    name = "overlay-line-16k"
    n = 16_384

    def make_inputs(self, seed: int):
        # The line is fixed; the seed drives the construction's randomness.
        return gen.line_graph(self.n)

    def construct(self, graph, ctx, seed: int):
        return pipeline.build_well_formed_tree(graph, rng=_construction_rng(seed), ctx=ctx)

    def record(self, result, calls) -> dict:
        ((_, expander),) = calls["expander"]
        ((_, rooting),) = calls["rooting"]
        ((init_args, _),) = calls["expander_class"]
        population = init_args[0]
        params = result.expander.params
        accepted = sum(int(acc.shape[0]) for acc, _ in population.accepted_log)
        launched = params.num_evolutions * self.n * params.tokens_per_node
        nets = (expander.metrics, rooting.metrics)
        return {
            "ncc0_rounds": result.total_rounds,
            "node_msgs_max": max(_node_msgs_max(m) for m in nets),
            "capacity_drops": sum(m.total_drops for m in nets),
            "final_graph": result.expander.final_graph,
            "bfs_parent": result.bfs.parent,
            "bfs_depth": result.bfs.depth,
            "tree_parent": result.tree.parent,
            "fingerprint": _fingerprint(result.tree.parent, result.bfs.parent),
            "layers": {"core.token_accept_frac": accepted / launched},
        }

    def check(self, graph, rec: dict) -> list[str]:
        ref = soa_pipeline.build_bfs_forest_soa(rec["final_graph"])
        out = check_bfs_equal(ref, rec["bfs_parent"], rec["bfs_depth"])
        out += check_tree(rec["tree_parent"], max_degree=3)
        if rec["tree_parent"].shape[0] != self.n:
            out.append("the well-formed tree does not span n nodes")
        if rec["capacity_drops"]:
            out.append(f"{rec['capacity_drops']} messages lost to capacity")
        return out


class HybridMix(Workload):
    """§4 hybrid connected components on a four-family mixture."""

    name = "hybrid-mix-4k5"
    m_bound = 1600

    def make_inputs(self, seed: int):
        rng = np.random.default_rng(seed)
        return gen.component_mixture(
            [
                gen.random_tree(1200, rng),
                gen.grid_2d(35, 35),
                gen.star_graph(600),
                gen.random_regular(1500, 4, rng),
            ]
        )

    def construct(self, inputs, ctx, seed: int):
        graph, _ = inputs
        return components.connected_components_hybrid(
            graph, rng=_construction_rng(seed), m_bound=self.m_bound, ctx=ctx
        )

    def record(self, result, calls) -> dict:
        history = result.overlay.history
        started = sum(s.tokens_started for s in history)
        accepted = sum(s.tokens_accepted for s in history)
        return {
            "ncc0_rounds": result.ledger.total_rounds,
            "node_msgs_max": result.ledger.max_global_capacity,
            "labels": np.asarray(result.labels, dtype=np.int64),
            "forest_parent": np.asarray(result.forest.parent, dtype=np.int64),
            "fingerprint": _fingerprint(result.labels, result.forest.parent),
            "layers": {
                "hybrid.evolutions": len(history),
                "hybrid.token_accept_frac": accepted / started if started else 0.0,
            },
        }

    def check(self, inputs, rec: dict) -> list[str]:
        _, memberships = inputs
        labels = rec["labels"]
        parent = rec["forest_parent"]
        out = []
        seen = set()
        for k, members in enumerate(memberships):
            members = np.asarray(members, dtype=np.int64)
            got = np.unique(labels[members])
            if got.shape[0] != 1 or int(got[0]) in seen:
                out.append(f"component {k}: labels do not match the ground truth")
                continue
            seen.add(int(got[0]))
            roots = int((parent[members] == members).sum())
            if roots != 1:
                out.append(f"component {k}: {roots} roots in its well-formed tree")
        if len(seen) != len(memberships) or labels.shape[0] != sum(map(len, memberships)):
            out.append("labels do not partition the nodes into the input components")
        return out


class FaultedRooting(Workload):
    """Rooting under delay, drops and a crash wave with rejoin."""

    name = "rooting-faults-200k"
    n = 200_000

    @staticmethod
    def spec(seed: int) -> ScenarioSpec:
        # The crash wave falls inside the min-id flood (which runs
        # rooting_flood_rounds(n) = 38 rounds at n = 2·10⁵) and rejoins
        # well before it ends, so every node can still hear the minimum.
        return ScenarioSpec(
            "delay3-drop2-crash5",
            delay=LinkDelay(max_delay=3),
            drop=MessageDrop(probability=0.02),
            crashes=(CrashWave(round_no=2, fraction=0.05, rejoin_round=10),),
            fault_seed=seed,
        )

    def make_inputs(self, seed: int):
        graph = PortGraph.ring_with_chords(
            self.n, delta=RING_DELTA, chords=RING_CHORDS, seed=seed
        )
        return graph, self.spec(seed)

    def construct(self, inputs, ctx, seed: int):
        graph, spec = inputs
        return runner.run_rooting_scenario(graph, spec, seed=seed, tier="soa", ctx=ctx)

    def record(self, row, calls) -> dict:
        ((args, (report, network)),) = calls["sync"]
        population = args[0]
        metrics = network.metrics
        return {
            "ncc0_rounds": row["rounds"],
            "node_msgs_max": _node_msgs_max(metrics),
            "converged": bool(row["converged"]),
            "elapsed_time_units": report.elapsed_time_units,
            "parent": population.parent.copy(),
            "depth": population.depth.copy(),
            "fingerprint": row["tree_sha"],
            "layers": {},
        }

    def check(self, inputs, rec: dict) -> list[str]:
        graph, _ = inputs
        parent, depth = rec["parent"], rec["depth"]
        out = [] if rec["converged"] else ["the faulted run did not converge"]
        out += check_tree(parent)
        if out:
            return out
        ids = np.arange(parent.shape[0], dtype=np.int64)
        child = parent != ids
        if not (graph.ports[child] == parent[child][:, None]).any(axis=1).all():
            out.append("a parent is not a graph neighbour")
        if (depth[~child] != 0).any() or (depth[child] != depth[parent[child]] + 1).any():
            out.append("a depth is not its parent's depth + 1")
        return out

    def layer_extras(self, inputs, rec: dict, ctx, seed: int) -> dict:
        """``scenarios.dilation``: time units of the faulted run over the
        rounds of the same rooting with no adversary."""
        graph, _ = inputs
        clean = soa_rooting.run_soa_rooting(
            graph, pipeline.rooting_flood_rounds(graph.n),
            rng=np.random.default_rng(seed), ctx=ctx,
        )
        return {"scenarios.dilation": rec["elapsed_time_units"] / clean.rounds}


class Rooting1M(Workload):
    """Synchronous SoA rooting at n = 10⁶."""

    name = "rooting-1m"
    n = 1_000_000
    _oracle = None  # (graph, BFS forest): one oracle run per input graph

    def make_inputs(self, seed: int):
        return PortGraph.ring_with_chords(self.n, delta=RING_DELTA, chords=RING_CHORDS, seed=seed)

    def construct(self, graph, ctx, seed: int):
        return soa_rooting.run_soa_rooting(
            graph, pipeline.rooting_flood_rounds(graph.n),
            rng=_construction_rng(seed), ctx=ctx,
        )

    def record(self, result, calls) -> dict:
        return {
            "ncc0_rounds": result.rounds,
            "node_msgs_max": _node_msgs_max(result.metrics),
            "parent": result.parent,
            "depth": result.depth,
            "fingerprint": _fingerprint(result.parent, result.depth),
            "layers": {},
        }

    def check(self, graph, rec: dict) -> list[str]:
        if self._oracle is None or self._oracle[0] is not graph:
            self._oracle = (graph, soa_pipeline.build_bfs_forest_soa(graph))
        return check_bfs_equal(self._oracle[1], rec["parent"], rec["depth"])


WORKLOADS = {w.name: w for w in (OverlayLine(), HybridMix(), FaultedRooting(), Rooting1M())}
