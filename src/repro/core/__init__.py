"""Core contribution of the paper (Sections 2–3).

The public surface:

- :class:`repro.core.params.ExpanderParams` — the ``(ℓ, Δ, Λ, L)`` bundle;
- :func:`repro.core.benign.make_benign` / :func:`check_benign` —
  Definition 2.1 preparation and invariant oracle;
- :class:`repro.core.expander.ExpanderBuilder` /
  :func:`create_expander` — the evolutions themselves (fast engine);
- :func:`repro.core.pipeline.build_well_formed_tree` — the full
  Theorem 1.1 pipeline (prepare → evolve → BFS → well-form);
- :mod:`repro.core.protocol` — the message-level NCC0 engine used to
  validate communication bounds (object nodes, the oracle), with its
  structure-of-arrays production tier in :mod:`repro.core.batch_protocol`.
"""

from repro.core.params import ExpanderParams
from repro.core.batch_protocol import SoAExpanderClass, run_soa_expander
from repro.core.benign import BenignReport, check_benign, make_benign
from repro.core.protocol import ExpanderNode, ProtocolRunResult, run_protocol_expander
from repro.core.walks import WalkResult, run_token_walks, sample_port_targets
from repro.core.expander import (
    EdgeRegistry,
    EvolutionStats,
    ExpanderBuilder,
    ExpanderResult,
    OverlayEdge,
    create_expander,
)
from repro.core.protocol_tree import (
    ROOTING_TIERS,
    TreeProtocolResult,
    build_rooting_population,
    run_protocol_rooting,
    run_rooting_under_asynchrony,
)
from repro.core.soa_rooting import SoARootingClass, csr_neighbors, run_soa_rooting
from repro.core.bfs import BFSForest, build_bfs_forest, distributed_bfs, flood_min_ids
from repro.core.child_sibling import RootedTree, to_child_sibling
from repro.core.euler import (
    EulerTour,
    WellFormedTree,
    build_well_formed_from_tree,
    euler_tour,
    heap_tree,
    list_rank,
    preorder_and_sizes,
)
from repro.core.pipeline import OverlayBuildResult, build_well_formed_tree
from repro.core.primitives import TreePrimitives
from repro.core.topologies import (
    OverlayTopology,
    build_butterfly,
    build_debruijn,
    build_hypercube,
    build_sorted_path,
    build_sorted_ring,
)

__all__ = [
    "ExpanderParams",
    "SoAExpanderClass",
    "run_soa_expander",
    "ExpanderNode",
    "ProtocolRunResult",
    "run_protocol_expander",
    "BenignReport",
    "check_benign",
    "make_benign",
    "WalkResult",
    "run_token_walks",
    "sample_port_targets",
    "EdgeRegistry",
    "EvolutionStats",
    "ExpanderBuilder",
    "ExpanderResult",
    "OverlayEdge",
    "create_expander",
    "TreeProtocolResult",
    "run_protocol_rooting",
    "run_rooting_under_asynchrony",
    "ROOTING_TIERS",
    "build_rooting_population",
    "SoARootingClass",
    "csr_neighbors",
    "run_soa_rooting",
    "BFSForest",
    "build_bfs_forest",
    "distributed_bfs",
    "flood_min_ids",
    "RootedTree",
    "to_child_sibling",
    "EulerTour",
    "WellFormedTree",
    "build_well_formed_from_tree",
    "euler_tour",
    "heap_tree",
    "list_rank",
    "preorder_and_sizes",
    "OverlayBuildResult",
    "build_well_formed_tree",
    "TreePrimitives",
    "OverlayTopology",
    "build_butterfly",
    "build_debruijn",
    "build_hypercube",
    "build_sorted_path",
    "build_sorted_ring",
]
