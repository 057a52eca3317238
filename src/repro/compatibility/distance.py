"""Distances between users, per compatibility relation (Section 4 of the paper).

The communication cost of a team is defined on pairwise distances, and the
paper defines the distance *per relation*:

* **DPE, SPA, SPM, SPO** — the length of the shortest path between the users
  (for compatible pairs a positive shortest path of that length exists);
* **SBP, SBPH** — the length of the shortest positive structurally balanced
  path (exact or heuristic, matching the relation);
* **NNE** — the length of the shortest path ignoring signs (there may be no
  positive path at all).

:class:`DistanceOracle` hides these differences behind a single ``distance``
call.  For SPA/SPM/SPO a distance row is the ``lengths`` part of the
relation's own cached signed BFS (Algorithm 1 already computes it), so the
oracle runs no traversal of its own; for DPE and NNE it caches one
sign-agnostic BFS per queried source, run on the CSR snapshot.  The "avg
distance" row of Table 2 is the mean distance over compatible pairs, which
:func:`average_compatible_distance` reads from one distance row per source
rather than one oracle query per pair, reduced as dense rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.compatibility.balanced import NO_PATH, _BalancedPathRelation
from repro.compatibility.base import CompatibilityRelation
from repro.compatibility.shortest_path import _ShortestPathRelation
from repro.signed.graph import Node
from repro.signed.paths import INFINITY
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import APPROX_BYTES_PER_NODE, fetch_batched, scaled_cache_size
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive

#: Ceiling on the number of cached single-source distance maps (the entry
#: bound :func:`~repro.utils.lru.scaled_cache_size` scales down by graph size).
DEFAULT_DISTANCE_CACHE_SIZE = 2048


class DistanceOracle:
    """Pairwise user distances consistent with a compatibility relation.

    For SP* relations the distance rows are the lengths of the relation's
    cached signed BFS results
    (:meth:`~repro.compatibility.shortest_path._ShortestPathRelation.distance_rows`):
    the oracle holds no cache of its own — the cache bound is the
    relation's, and :meth:`sync` and :meth:`clear_cache` are no-ops (the
    relation's ``sync_caches`` and ``clear_cache`` act on the rows).  For
    the other relations single-source distance maps are cached in a bounded
    LRU of :data:`DEFAULT_DISTANCE_CACHE_SIZE` entries, scaled down by graph
    size; their sign-agnostic BFS runs on the graph's CSR snapshot.
    :meth:`warm` and
    :meth:`batch_distance_to_set` are the batched entry points the
    :class:`~repro.compatibility.engine.CompatibilityEngine` uses to resolve
    many candidates against a team in one batched sweep.
    """

    def __init__(self, relation: CompatibilityRelation) -> None:
        self._relation = relation
        self._graph = relation.graph
        num_nodes = self._graph.number_of_nodes()
        #: SP* relations serve the rows themselves (None otherwise).
        self._sp_relation: Optional[_ShortestPathRelation] = (
            relation if isinstance(relation, _ShortestPathRelation) else None
        )
        # The other relations' distance maps are generation-keyed like the
        # relations' caches, so mutations invalidate by component.
        self._bfs_cache: Optional[GenerationalLRUCache[Node, object]] = (
            None
            if self._sp_relation is not None
            else GenerationalLRUCache(
                self._graph,
                maxsize=scaled_cache_size(DEFAULT_DISTANCE_CACHE_SIZE, num_nodes),
                bytes_per_entry=num_nodes * APPROX_BYTES_PER_NODE,
            )
        )

    @property
    def relation(self) -> CompatibilityRelation:
        """The compatibility relation whose distance definition is used."""
        return self._relation

    def distance(self, u: Node, v: Node) -> float:
        """Distance from ``u`` to ``v`` under the relation's definition.

        Returns ``inf`` when the relevant kind of path does not exist (e.g. no
        positive balanced path under SBP, or disconnected nodes under NNE).
        BFS levels are symmetric on the undirected graph, so when only
        ``v``'s distance row is cached the answer is read from it instead of
        traversing from ``u``.
        """
        if u == v:
            return 0.0
        if isinstance(self._relation, _BalancedPathRelation):
            return self._relation.positive_balanced_distance(u, v)
        cached = (
            self._bfs_cache.__contains__
            if self._sp_relation is None
            else self._sp_relation._has_row
        )
        if not cached(u) and cached(v):
            u, v = v, u
        lengths = self._shortest_paths_from(u)
        return float(lengths.get(v, INFINITY))

    def max_pairwise_distance(self, nodes: Iterable[Node]) -> float:
        """Largest pairwise distance among ``nodes`` (the team's communication cost)."""
        node_list = list(nodes)
        best = 0.0
        for index, u in enumerate(node_list):
            for v in node_list[index + 1 :]:
                best = max(best, self.distance(u, v))
                if best == INFINITY:
                    return INFINITY
        return best

    def sum_pairwise_distance(self, nodes: Iterable[Node]) -> float:
        """Sum of pairwise distances among ``nodes`` (alternative cost function)."""
        node_list = list(nodes)
        total = 0.0
        for index, u in enumerate(node_list):
            for v in node_list[index + 1 :]:
                distance = self.distance(u, v)
                if distance == INFINITY:
                    return INFINITY
                total += distance
        return total

    def distance_to_set(self, node: Node, team: Iterable[Node]) -> float:
        """Largest distance from ``node`` to any member of ``team`` (0 for an empty team).

        Distances are queried *from the team members* so that their cached
        single-source computations are reused across the many candidate nodes
        the team-formation policies evaluate.
        """
        best = 0.0
        for member in team:
            best = max(best, self.distance(member, node))
            if best == INFINITY:
                return INFINITY
        return best

    def warm(self, sources: Iterable[Node]) -> List[object]:
        """Prefetch the single-source distance maps of ``sources``, batched.

        For SP* relations the maps are the lengths of the relation's signed
        BFS results, fetched through its ``distance_rows`` (one
        word-parallel sweep over the uncached sources).  For DPE and NNE
        every uncached source joins one multi-source BFS
        (:func:`repro.signed.csr.shortest_path_lengths_dense_batch`) instead
        of running its own traversal.  Returns the maps in input order; they
        are also written through to the cache.  All requested maps are computed and held for the
        duration of the call (callers pass team-sized lists); prefetch-only
        sweeps larger than the cache bound should warm in cache-sized
        chunks — see
        :func:`average_compatible_distance` — or the excess entries evict
        each other before they are read.  For balanced-path relations the
        oracle distance is not a plain BFS distance, so this is a no-op
        returning an empty list.
        """
        if isinstance(self._relation, _BalancedPathRelation):
            return []
        source_list = list(sources)
        if self._sp_relation is not None:
            return self._sp_relation.distance_rows(source_list)

        def compute_missing(missing: List[Node]) -> List[object]:
            from repro.signed.csr import CSRLengths, shortest_path_lengths_dense_batch

            csr = self._graph.csr_view()
            arrays = shortest_path_lengths_dense_batch(
                csr, [csr.index_of(source) for source in missing]
            )
            return [CSRLengths(csr, lengths) for lengths in arrays]

        return fetch_batched(self._bfs_cache, source_list, compute_missing)

    def batch_distance_to_set(
        self, candidates: Sequence[Node], team: Iterable[Node]
    ) -> List[float]:
        """:meth:`distance_to_set` for many candidates at once.

        The team members' distance maps are prefetched in one batched sweep
        (:meth:`warm`) and the per-candidate maximum over members is
        computed with array indexing instead of a Python loop per
        pair.  Every map is read over the current snapshot's dense ids
        (:meth:`~repro.signed.csr.CSRLengths.row_in`), also one cached on an
        older snapshot, and a candidate outside the graph reads ``inf``.
        Values are identical to calling :meth:`distance_to_set` per
        candidate.  Balanced-path relations — whose distance is the balanced
        path length, not a BFS level — delegate to the relation's own
        :meth:`~repro.compatibility.balanced._BalancedPathRelation.batch_distance_to_set`
        (shared forward searches plus one chunked reverse sweep) instead of
        the per-candidate loop.
        """
        candidate_list = list(candidates)
        team_list = list(team)
        if not candidate_list:
            return []
        if not team_list:
            return [0.0] * len(candidate_list)
        if isinstance(self._relation, _BalancedPathRelation):
            return self._relation.batch_distance_to_set(candidate_list, team_list)
        import numpy as np

        from repro.signed.csr import UNREACHABLE

        maps = self.warm(team_list)
        csr = self._graph.csr_view()
        index = csr._index
        ids = np.fromiter(
            (index.get(c, -1) for c in candidate_list), np.int64, len(candidate_list)
        )
        best = np.zeros(len(candidate_list), dtype=np.float64)
        for view in maps:
            values = view.row_in(csr)[ids].astype(np.float64)
            values[values == UNREACHABLE] = INFINITY
            np.maximum(best, values, out=best)
        # A candidate outside the graph has no entry in any row: unreachable.
        best[ids < 0] = INFINITY
        return [float(value) for value in best]

    def sync(self) -> None:
        """Eagerly re-key the distance-map cache to the current generation.

        Optional — the cache syncs lazily on its next access; see
        :meth:`CompatibilityRelation.sync_caches`.  A no-op for SP*
        relations, whose rows live in the relation's cache.
        """
        if self._bfs_cache is not None:
            self._bfs_cache.sync()

    def clear_cache(self) -> None:
        """Drop all cached distance maps.

        Not required after graph mutations (the cache is generation-keyed);
        kept as the full reset for memory pressure or tests.  A no-op for
        SP* relations: their rows are the relation's signed BFS results,
        dropped by the relation's ``clear_cache``.
        """
        if self._bfs_cache is not None:
            self._bfs_cache.clear()

    def _cache_bound(self) -> int:
        """Entry bound of the cache the distance rows live in."""
        if self._sp_relation is not None:
            return self._sp_relation.bfs_cache_maxsize
        return self._bfs_cache.maxsize

    def _shortest_paths_from(self, source: Node):
        if self._sp_relation is not None:
            return self._sp_relation.distance_rows([source])[0]
        lengths = self._bfs_cache.get(source)
        if lengths is None:
            from repro.signed.csr import CSRLengths, shortest_path_lengths_csr

            csr = self._graph.csr_view()
            lengths = CSRLengths(csr, shortest_path_lengths_csr(csr, source))
            self._bfs_cache[source] = lengths
        return lengths


def average_compatible_distance(
    relation: CompatibilityRelation,
    oracle: Optional[DistanceOracle] = None,
    max_exact_nodes: int = 500,
    num_sampled_sources: int = 200,
    seed: RandomState = None,
) -> Tuple[float, int]:
    """Average distance over compatible pairs (the "avg distance" row of Table 2).

    Returns ``(average, pairs_counted)``; the average is ``0.0`` when no
    compatible pair with a finite distance was evaluated.  Small graphs are
    enumerated exhaustively (every node is a source and each unordered pair
    is counted once, from its earlier node in ``graph.nodes()`` order);
    larger graphs are estimated by averaging over all compatible pairs
    anchored at ``num_sampled_sources`` random source nodes (the same
    sampling scheme as
    :func:`repro.compatibility.matrix.source_sampled_pair_statistics`).

    Sources are processed in chunks of the oracle's cache bound, and each
    source reads one distance row: the oracle's distance map, or for
    balanced relations the two directions' search results.  A chunk is
    reduced as dense ``(sources, n)`` rows, with no Python loop per pair:

    * SBP/SBPH — one positive-depth matrix of ``min(P[u, v], P[v, u])``
      built from the cached search results
      (:meth:`~repro.compatibility.balanced._BalancedPathRelation._symmetric_depths`)
      gives both: its finite entries are the compatible sets, their values
      the distances (no per-pair ``_search_from``);
    * other relations — partners are the relation's
      :meth:`~repro.compatibility.base.CompatibilityRelation.dense_partner_rows`
      (SP* reads its pair-rule masks, NNE its enemies), distances the
      oracle's rows.

    Only partners later than the source in ``graph.nodes()`` order are kept
    in the exhaustive case; that order check goes through a dense-id →
    position map, since dense ids need not follow it.  Every row is read
    over the current snapshot's dense ids, also one cached on an older
    snapshot.  Distances are integers, so the average does not depend on the
    order.
    """
    if oracle is None:
        oracle = DistanceOracle(relation)
    elif oracle.relation is not relation:
        raise ValueError("the oracle must be built on the given relation")
    nodes = relation.graph.nodes()
    if len(nodes) < 2:
        return 0.0, 0
    if len(nodes) <= max_exact_nodes:
        sources = nodes
        positions = {node: position for position, node in enumerate(nodes)}
    else:
        require_positive(num_sampled_sources, "num_sampled_sources")
        rng = ensure_rng(seed)
        sources = rng.sample(nodes, min(num_sampled_sources, len(nodes)))
        positions = None
    total = 0
    count = 0
    chunk = oracle._cache_bound()
    for start in range(0, len(sources), chunk):
        chunk_total, chunk_count = _dense_pair_sums(
            relation, oracle, sources[start : start + chunk], positions
        )
        total += chunk_total
        count += chunk_count
    if count == 0:
        return 0.0, 0
    return total / count, count


def _dense_pair_sums(
    relation: CompatibilityRelation,
    oracle: DistanceOracle,
    sources: List[Node],
    positions: Optional[Dict[Node, int]],
) -> Tuple[int, int]:
    """``(sum, count)`` of finite distances from ``sources`` to their partners,
    over dense ``(sources, n)`` rows."""
    import numpy as np

    from repro.signed.csr import UNREACHABLE

    csr = relation.graph.csr_view()
    index = csr._index
    ids = np.fromiter(map(index.__getitem__, sources), np.int64, len(sources))
    if isinstance(relation, _BalancedPathRelation):
        # The symmetric depths are both the partners and their distances.
        members, depths = relation._symmetric_depths(csr, sources, ids)
        distances = np.full((ids.size, csr.number_of_nodes()), NO_PATH, dtype=np.int32)
        distances[:, members] = depths
        partners = distances != NO_PATH
    else:
        partners = relation.dense_partner_rows(csr, sources, ids)
        distances = np.full(partners.shape, UNREACHABLE, dtype=np.int32)
        for row, view in enumerate(oracle.warm(sources)):
            distances[row] = view.row_in(csr)
        partners &= distances != UNREACHABLE
    partners[np.arange(ids.size), ids] = False
    if positions is not None:
        order = np.empty(csr.number_of_nodes(), dtype=np.int64)
        order[list(map(index.__getitem__, positions))] = list(positions.values())
        partners &= order[None, :] > order[ids][:, None]
    return int(distances[partners].sum(dtype=np.int64)), int(np.count_nonzero(partners))
