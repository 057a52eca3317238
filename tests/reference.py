"""Reference relations on the pure-Python searches, for differential tests.

The library answers every SPA/SPM/SPO, SBP and SBPH query on the CSR kernels
(:mod:`repro.signed.csr`).  :class:`ReferenceRelation` restates the same
relations straight from their definitions on :mod:`repro.signed.paths`:

* SP* — Algorithm 1 (:func:`~repro.signed.paths.signed_bfs`) per source and
  the pair rule of Definition 3.3 on its counts;
* SBP / SBPH — :class:`~repro.signed.paths.BalancedPathSearch` per source,
  symmetrised by the either-direction closure: a pair is compatible iff one
  endpoint's search finds a positive balanced path to the other and no
  negative edge joins them;
* distances (Section 4) — the BFS level of
  :func:`~repro.signed.paths.shortest_path_lengths` for SP*, the shorter
  direction's positive balanced path for SBP/SBPH.

No cache bound, batch, executor or dense row is involved: like
``PerPairEngine`` in ``test_engine_equivalence.py``, the reference is a plain
loop over the definitions, meant for small graphs.  Tests compare the
library's answers against it node by node.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import numpy as np

from repro.compatibility.base import CompatibilityRelation
from repro.signed.graph import NEGATIVE, Node, SignedGraph
from repro.signed.paths import (
    DEFAULT_MAX_EXPANSIONS,
    INFINITY,
    BalancedPathSearch,
    shortest_path_lengths,
    signed_bfs,
)
from repro.utils.rng import ensure_rng

#: The SP* pair rules of Definition 3.3 on ``(positive, negative)`` counts.
PAIR_RULES = {
    "SPA": lambda positive, negative: positive > 0 and negative == 0,
    "SPM": lambda positive, negative: positive > 0 and positive >= negative,
    "SPO": lambda positive, negative: positive > 0,
}

#: The relations :class:`ReferenceRelation` states.
REFERENCE_RELATIONS = ("SPA", "SPM", "SPO", "SBP", "SBPH")


def narrowest_dtype(values) -> np.dtype:
    """The narrowest of ``int8``/``int16``/``int32``/``int64`` holding every
    entry of ``values``: the type a cached per-source row must have."""
    entries = [int(value) for value in values] or [0]
    low, high = min(entries), max(entries)
    for dtype, largest in ((np.int8, 127), (np.int16, 32767), (np.int32, 2**31 - 1)):
        if -largest - 1 <= low and high <= largest:
            return np.dtype(dtype)
    return np.dtype(np.int64)


class ReferenceRelation(CompatibilityRelation):
    """SPA, SPM, SPO, SBP or SBPH (``name``), straight from the definitions.

    ``max_path_length`` / ``max_expansions`` bound the balanced searches as
    they bound the library's relations.  Per-source results are kept for the
    graph's current generation only; a mutation drops them all, so the
    reference never answers from a stale search.
    """

    def __init__(
        self,
        name: str,
        graph: SignedGraph,
        max_path_length: Optional[int] = None,
        max_expansions: int = DEFAULT_MAX_EXPANSIONS,
    ) -> None:
        if name not in REFERENCE_RELATIONS:
            raise ValueError(f"no reference for relation {name!r}")
        super().__init__(graph)
        self.name = name
        self._search = BalancedPathSearch(
            self._graph, max_length=max_path_length, max_expansions=max_expansions
        )
        self._rows: Dict[Node, object] = {}
        self._levels: Dict[Node, Dict[Node, int]] = {}
        self._rows_generation = self._graph.generation

    def _current(self) -> None:
        """Drop every per-source result once the graph has mutated."""
        if self._graph.generation != self._rows_generation:
            self._rows.clear()
            self._levels.clear()
            self._rows_generation = self._graph.generation

    def _row(self, source: Node):
        """``source``'s signed BFS (SP*) or balanced search (SBP/SBPH)."""
        self._current()
        row = self._rows.get(source)
        if row is None:
            if self.name == "SBP":
                row = self._search.search_exact(source)
            elif self.name == "SBPH":
                row = self._search.search_heuristic(source)
            else:
                row = signed_bfs(self._graph, source)
            self._rows[source] = row
        return row

    def _negative_edge(self, u: Node, v: Node) -> bool:
        return self._graph.has_edge(u, v) and self._graph.sign(u, v) == NEGATIVE

    def _finds(self, source: Node, target: Node) -> bool:
        """Does ``source``'s balanced search find a positive path to ``target``?"""
        return target in self._row(source).positive_lengths

    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        if self.name in PAIR_RULES:
            rule = PAIR_RULES[self.name]
            result = self._row(u)
            return {v for v in result.lengths if rule(*result.counts(v))}
        # Balanced paths never leave a component.
        return {
            v
            for v in shortest_path_lengths(self._graph, u)
            if v != u
            and not self._negative_edge(u, v)
            and (self._finds(u, v) or self._finds(v, u))
        }

    def truncated(self, source: Node) -> bool:
        """True iff ``source``'s exact search hit the expansion cap (SBP)."""
        return self.name == "SBP" and self._row(source).truncated

    def distance(self, u: Node, v: Node) -> float:
        """The relation's distance between ``u`` and ``v`` (``inf`` if none)."""
        self._require_nodes(u, v)
        if u == v:
            return 0.0
        if self.name in PAIR_RULES:
            self._current()
            if u not in self._levels:
                self._levels[u] = shortest_path_lengths(self._graph, u)
            return float(self._levels[u].get(v, INFINITY))
        if self._negative_edge(u, v):
            return INFINITY
        return float(min(self._row(u).positive_length(v), self._row(v).positive_length(u)))

    def distance_to_set(self, node: Node, team: Iterable[Node]) -> float:
        """Largest :meth:`distance` from ``node`` to a member of ``team``."""
        return max((self.distance(member, node) for member in team), default=0.0)


def reference_average_distance(
    relation: CompatibilityRelation,
    distance,
    max_exact_nodes: int = 500,
    num_sampled_sources: int = 200,
    seed=None,
):
    """``average_compatible_distance`` as the per-pair loop it states.

    Partners come from ``relation.compatible_with`` and each pair's length
    from ``distance(u, v)``; sources are chosen as the library chooses them
    (every node, each pair counted from its earlier node, or a seeded
    sample).
    """
    nodes = relation.graph.nodes()
    if len(nodes) < 2:
        return 0.0, 0
    if len(nodes) <= max_exact_nodes:
        sources = nodes
        positions = {node: position for position, node in enumerate(nodes)}
    else:
        sources = ensure_rng(seed).sample(nodes, min(num_sampled_sources, len(nodes)))
        positions = None
    total = 0
    count = 0
    for u in sources:
        for v in relation.compatible_with(u):
            if v == u or (positions is not None and positions[v] < positions[u]):
                continue
            length = distance(u, v)
            if length != INFINITY:
                total += length
                count += 1
    if count == 0:
        return 0.0, 0
    return total / count, count
