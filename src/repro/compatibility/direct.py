"""The two edge-based compatibility relations: DPE and NNE (Definitions 3.1, 3.2).

* **DPE** (Direct Positive Edge) — the strictest relation: only pairs joined
  by a positive edge are compatible.  Teams under DPE are cliques of friends.
* **NNE** (No Negative Edge) — the most relaxed relation: every pair is
  compatible unless it is joined by a negative edge.

These are respectively the minimal relation satisfying Positive Edge
Compatibility and the maximal relation satisfying Negative Edge
Incompatibility.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from repro.compatibility.base import CompatibilityRelation
from repro.signed.graph import NEGATIVE, Node


class DirectPositiveEdgeCompatibility(CompatibilityRelation):
    """DPE: ``(u, v)`` compatible iff the edge ``(u, v, +1)`` exists."""

    name = "DPE"

    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        return set(self._graph.positive_neighbors(u))


class NoNegativeEdgeCompatibility(CompatibilityRelation):
    """NNE: ``(u, v)`` compatible iff there is no edge ``(u, v, -1)``."""

    name = "NNE"
    # A compatible set is "everyone but my enemies": adding or removing *any*
    # node changes every set, so component-conservative cache invalidation is
    # unsound and the generational caches clear wholesale on node-set changes.
    component_local_sets = False

    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        enemies = set(self._graph.negative_neighbors(u))
        return {node for node in self._graph.nodes() if node != u and node not in enemies}

    def compatibility_degree(self, u: Node) -> int:
        # Everyone but ``u`` and its enemies (the graph has no self-loops):
        # arithmetic instead of materialising the (almost complete) set.
        self._require_nodes(u)
        return self._graph.number_of_nodes() - 1 - len(self._graph.negative_neighbors(u))

    def batch_compatibility_degrees(self, sources: Iterable[Node]) -> List[int]:
        return [self.compatibility_degree(source) for source in sources]

    def batch_count_compatible(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> List[int]:
        # The present targets minus the source's enemies among them.
        source_list = list(sources)
        self._require_nodes(*source_list)
        graph = self._graph
        present = {target for target in targets if target in graph}
        return [
            len(present) - len(present.intersection(graph.negative_neighbors(source)))
            for source in source_list
        ]

    def dense_partner_rows(self, csr, sources: Sequence[Node], ids):
        # Everyone but the sources' enemies (the snapshot's negative
        # entries), without materialising the (almost complete) sets.
        import numpy as np

        from repro.signed.csr import negative_entries

        rows = np.ones((len(sources), csr.number_of_nodes()), dtype=bool)
        rows[negative_entries(csr, ids)] = False
        return rows

    def are_compatible(self, u: Node, v: Node) -> bool:
        # Overridden to avoid materialising the (almost complete) compatible
        # set for a single pair query on large graphs.
        self._require_nodes(u, v)
        if u == v:
            return True
        if self._graph.has_edge(u, v):
            return self._graph.sign(u, v) != NEGATIVE
        return True
