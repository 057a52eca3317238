"""Descriptive statistics of signed graphs (Table 1 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.signed.components import connected_components
from repro.signed.graph import NEGATIVE, POSITIVE, Node, SignedGraph
from repro.utils.rng import RandomState, ensure_rng


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics of a signed graph, mirroring the paper's Table 1."""

    num_nodes: int
    num_edges: int
    num_negative_edges: int
    negative_fraction: float
    diameter: Optional[int]
    num_components: int
    average_degree: float

    def as_dict(self) -> Dict[str, object]:
        """Return the statistics as a plain dictionary (for table rendering)."""
        return {
            "#users": self.num_nodes,
            "#edges": self.num_edges,
            "#neg edges": self.num_negative_edges,
            "neg fraction": round(self.negative_fraction, 4),
            "diameter": self.diameter,
            "#components": self.num_components,
            "avg degree": round(self.average_degree, 2),
        }


def negative_edge_fraction(graph: SignedGraph) -> float:
    """Fraction of edges that are negative (0.0 for an empty edge set)."""
    if graph.number_of_edges() == 0:
        return 0.0
    return graph.number_of_negative_edges() / graph.number_of_edges()


def average_degree(graph: SignedGraph) -> float:
    """Mean node degree (0.0 for an empty graph)."""
    if graph.number_of_nodes() == 0:
        return 0.0
    return 2.0 * graph.number_of_edges() / graph.number_of_nodes()


def degree_histogram(graph: SignedGraph) -> Dict[int, int]:
    """Map degree -> number of nodes with that degree."""
    histogram: Dict[int, int] = {}
    for node in graph.nodes():
        degree = graph.degree(node)
        histogram[degree] = histogram.get(degree, 0) + 1
    return histogram


def sign_distribution(graph: SignedGraph) -> Dict[int, int]:
    """Map sign (+1 / -1) -> number of edges with that sign."""
    return {
        POSITIVE: graph.number_of_positive_edges(),
        NEGATIVE: graph.number_of_negative_edges(),
    }


def diameter(
    graph: SignedGraph,
    sample_sources: Optional[int] = None,
    seed: RandomState = None,
) -> Optional[int]:
    """Diameter of the graph ignoring edge signs.

    Returns ``None`` for an empty graph and for a disconnected graph (the
    paper's datasets are restricted to their largest connected component
    first).  For large graphs an eccentricity *estimate* can be requested by
    passing ``sample_sources``: the BFS is then run only from that many
    randomly chosen sources and the largest distance observed is returned,
    which is a lower bound on the true diameter.

    Connectivity comes from the CSR snapshot's component labels and the
    eccentricities from word-parallel path-length rows
    (:func:`~repro.signed.csr.shortest_path_lengths_dense_batch_into`),
    reduced one 64-source word at a time.
    """
    nodes = graph.nodes()
    if not nodes:
        return None
    if not _csr_connected(graph):
        return None
    if sample_sources is not None:
        if sample_sources <= 0:
            raise ValueError(f"sample_sources must be positive, got {sample_sources}")
        rng = ensure_rng(seed)
        sources: List[Node] = rng.sample(nodes, min(sample_sources, len(nodes)))
    else:
        sources = nodes
    return _csr_eccentricity_bound(graph, sources)


def _csr_connected(graph: SignedGraph) -> bool:
    """:func:`is_connected` from the CSR snapshot's component labels."""
    from repro.signed.ingest import component_labels

    csr = graph.csr_view()
    return not component_labels(csr.indptr, csr.indices).any()


def _csr_eccentricity_bound(graph: SignedGraph, sources: List[Node]) -> int:
    """Largest eccentricity of ``sources``, one path-length word at a time."""
    import numpy as np

    from repro.signed.csr import shortest_path_lengths_dense_batch_into
    from repro.utils.bitset import WORD_BITS

    csr = graph.csr_view()
    ids = [csr.index_of(source) for source in sources]
    rows = np.empty((min(WORD_BITS, len(ids)), csr.number_of_nodes()), dtype=np.int32)
    best = 0
    for start in range(0, len(ids), WORD_BITS):
        word = ids[start : start + WORD_BITS]
        shortest_path_lengths_dense_batch_into(csr, word, rows[: len(word)])
        best = max(best, int(rows[: len(word)].max()))
    return best


def graph_statistics(
    graph: SignedGraph,
    diameter_sample_sources: Optional[int] = None,
    seed: RandomState = None,
) -> GraphStatistics:
    """Compute the Table-1 statistics for ``graph``.

    ``diameter_sample_sources`` is forwarded to :func:`diameter` so large
    graphs can report an estimated diameter.
    """
    components = connected_components(graph) if graph.number_of_nodes() else []
    return GraphStatistics(
        num_nodes=graph.number_of_nodes(),
        num_edges=graph.number_of_edges(),
        num_negative_edges=graph.number_of_negative_edges(),
        negative_fraction=negative_edge_fraction(graph),
        diameter=diameter(graph, sample_sources=diameter_sample_sources, seed=seed),
        num_components=len(components),
        average_degree=average_degree(graph),
    )
