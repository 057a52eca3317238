"""Signed-graph substrate: data structure, I/O, generators, balance, paths, metrics."""

from repro.signed.graph import POSITIVE, NEGATIVE, SignedEdge, SignedGraph
from repro.signed.delta import GraphDelta
from repro.signed.balance import (
    BalanceReport,
    harary_bipartition,
    is_balanced,
    frustration_index_greedy,
    triangle_census,
    path_is_balanced,
    induced_subgraph_is_balanced,
)
from repro.signed.paths import (
    SignedBFSResult,
    signed_bfs,
    count_signed_shortest_paths,
    shortest_path_lengths,
    shortest_signed_walk_lengths,
    all_shortest_paths,
    enumerate_simple_paths,
    shortest_balanced_positive_path,
    BalancedPathSearch,
)
# The CSR snapshot and kernels (repro.signed.csr) are imported lazily via
# __getattr__ below, so `import repro` does not load numpy until a graph is
# indexed.
_CSR_EXPORTS = (
    "CSRSignedBFSResult",
    "CSRSignedGraph",
    "CSRLengths",
    "multi_source_signed_bfs",
    "multi_source_shortest_path_lengths_csr",
    "shortest_path_lengths_csr",
    "shortest_signed_walk_lengths_csr",
    "signed_bfs_csr",
)


# The snapshot store (repro.signed.store) is exported lazily alongside the
# CSR snapshot.
_STORE_EXPORTS = ("save_snapshot", "load_snapshot", "snapshot_info")

# CSR-first ingestion (repro.signed.ingest) and the lazy SignedGraph facade
# (repro.signed.lazy) both sit on numpy; exported lazily like the CSR snapshot.
_INGEST_EXPORTS = (
    "parse_edge_list_csr",
    "read_edge_arrays",
    "read_edge_tokens",
    "csr_from_edge_arrays",
)
_LAZY_EXPORTS = ("CSRBackedSignedGraph", "as_signed_graph")


def __getattr__(name):
    if name in _CSR_EXPORTS:
        from repro.signed import csr

        return getattr(csr, name)
    if name in _INGEST_EXPORTS:
        from repro.signed import ingest

        return getattr(ingest, name)
    if name in _LAZY_EXPORTS:
        from repro.signed import lazy

        return getattr(lazy, name)
    if name in _STORE_EXPORTS:
        from repro.signed import store

        return getattr(store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
from repro.signed.components import connected_components, largest_connected_component, is_connected
from repro.signed.metrics import (
    GraphStatistics,
    graph_statistics,
    diameter,
    average_degree,
    negative_edge_fraction,
    degree_histogram,
    sign_distribution,
)
from repro.signed.convert import to_networkx, from_networkx, unsigned_copy, positive_subgraph
from repro.signed.clustering import (
    PartitionQuality,
    greedy_balance_partition,
    partition_agreement,
    partition_quality,
    propagate_balance_partition,
)
from repro.signed.prediction import (
    AlwaysPositivePredictor,
    CompatibilityPredictor,
    PredictionReport,
    ShortestPathSignPredictor,
    SignPredictor,
    TriangleVotePredictor,
    compare_predictors,
    evaluate_predictor,
)

__all__ = [
    "PartitionQuality",
    "greedy_balance_partition",
    "partition_agreement",
    "partition_quality",
    "propagate_balance_partition",
    "SignPredictor",
    "AlwaysPositivePredictor",
    "TriangleVotePredictor",
    "ShortestPathSignPredictor",
    "CompatibilityPredictor",
    "PredictionReport",
    "evaluate_predictor",
    "compare_predictors",
    "POSITIVE",
    "NEGATIVE",
    "SignedEdge",
    "SignedGraph",
    "GraphDelta",
    "BalanceReport",
    "harary_bipartition",
    "is_balanced",
    "frustration_index_greedy",
    "triangle_census",
    "path_is_balanced",
    "induced_subgraph_is_balanced",
    "SignedBFSResult",
    "signed_bfs",
    "count_signed_shortest_paths",
    "shortest_path_lengths",
    "shortest_signed_walk_lengths",
    "all_shortest_paths",
    "enumerate_simple_paths",
    "shortest_balanced_positive_path",
    "BalancedPathSearch",
    "CSRSignedGraph",
    "CSRSignedBFSResult",
    "CSRLengths",
    "save_snapshot",
    "load_snapshot",
    "snapshot_info",
    "signed_bfs_csr",
    "shortest_path_lengths_csr",
    "shortest_signed_walk_lengths_csr",
    "multi_source_signed_bfs",
    "multi_source_shortest_path_lengths_csr",
    "connected_components",
    "largest_connected_component",
    "is_connected",
    "GraphStatistics",
    "graph_statistics",
    "diameter",
    "average_degree",
    "negative_edge_fraction",
    "degree_histogram",
    "sign_distribution",
    "to_networkx",
    "from_networkx",
    "unsigned_copy",
    "positive_subgraph",
]
