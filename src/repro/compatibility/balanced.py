"""Structurally balanced path compatibility: SBP (exact) and SBPH (heuristic).

Definition 3.4 of the paper: ``(u, v)`` are SBP-compatible iff there exists a
*positive* path between them whose induced subgraph is structurally balanced.
Enumerating such paths is exponential in the worst case (the prefix property
fails, Figure 1(b)), so the paper — and this module — also provides a
heuristic, **SBPH**, that only considers paths satisfying the prefix property.

Symmetry
--------
Section 2 requires every compatibility relation to be *symmetric*.  Positive
balanced paths are inherently symmetric (reversing a path changes neither its
sign nor the subgraph it induces), but both searches are *directional*
under-approximations: the heuristic keeps a single representative path per
``(node, sign)`` state, and the exact search can hit its expansion budget, so
"the search from ``u`` finds ``v``" may disagree with "the search from ``v``
finds ``u``" (on the Figure 1(b) graph the heuristic misses ``u → v`` but
finds the reversed path ``v → u``).  The relations therefore define the pair
as compatible iff **either direction** finds a positive balanced path — a
canonical, query-order-independent check applied consistently by
:meth:`~_BalancedPathRelation.are_compatible`,
:meth:`~_BalancedPathRelation._compute_compatible_set` and
:meth:`~_BalancedPathRelation.positive_balanced_distance`.  The symmetrised
relation is still sound (every reported pair is joined by a real positive
balanced path) and still under-approximates exact SBP.

Both relations additionally expose the length of the best positive balanced
path found, which is the distance the team-formation cost uses under SBP/SBPH.
Per-source search results live in a bounded LRU
(:data:`DEFAULT_RESULT_CACHE_SIZE` entries, scaled down on huge graphs), so a
full sweep over a large graph cannot exhaust memory.

Execution
---------
Both searches run in the batched CSR core
(:func:`repro.signed.csr.balanced_depths`), which advances a batch of sources
level by level and vectorises candidate generation, the expansion cap and the
balance check.  A result keeps the core's two dense depth rows, wrapped in
:class:`~repro.signed.csr.CSRLengths` views, from the search through the
cache to the symmetric closure.  The pure-Python
searches (:meth:`~repro.signed.paths.BalancedPathSearch.search_exact`, a
path-by-path BFS whose states are bitmasks over dense node ids, and
:meth:`~repro.signed.paths.BalancedPathSearch.search_heuristic`) return the
same depth per node and the same truncation flag; they are the readable
statement of both searches and the tests' reference.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set

from repro.compatibility.base import CompatibilityRelation
from repro.signed.graph import NEGATIVE, Node, SignedGraph
from repro.signed.paths import (
    DEFAULT_MAX_EXPANSIONS,
    INFINITY,
    BalancedPathResult,
    BalancedPathSearch,
)
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import fetch_batched, scaled_cache_size

#: Ceiling on the number of cached per-source balanced-path results (the
#: entry bound :func:`~repro.utils.lru.scaled_cache_size` scales down by graph
#: size).  Sized to hold a full sweep of graphs up to its own size (the
#: symmetric closure touches every node's search once), so repeated set
#: queries stay amortised on the bundled datasets; larger graphs re-search
#: evicted sources on later sweeps.
DEFAULT_RESULT_CACHE_SIZE = 4096

#: Widest size of one cached search result per node: two depth rows of at
#: most ``int32`` each (:func:`~repro.signed.csr.narrow_row` usually makes
#: them ``int8``).  The 256 MiB budget then keeps the full 4096 entries up
#: to 8192 nodes, so the symmetric closure of the 2308-node epinions
#: stand-in never evicts its own searches.
DEPTH_ROW_BYTES_PER_NODE = 8

#: Sources per :meth:`_BalancedPathRelation.batch_search` call inside the
#: reverse sweeps.  Bounds how many O(n) search results the sweep holds
#: outside the LRU at once (the LRU's own byte-aware bound stays the ceiling
#: for what is *retained*), while still giving the batched search whole
#: chunks.
REVERSE_SWEEP_CHUNK = 64

#: Depth entry of :meth:`_BalancedPathRelation._symmetric_depths` where
#: no positive balanced path was found (the int32 maximum, so the shorter of
#: two directions is their minimum).
NO_PATH = 2**31 - 1


class _BalancedPathRelation(CompatibilityRelation):
    """Shared machinery: one cached balanced-path search per source node."""

    #: Whether the search is exhaustive (overridden by subclasses).
    exact_search = True

    def __init__(
        self,
        graph: SignedGraph,
        max_path_length: Optional[int] = None,
        max_expansions: int = DEFAULT_MAX_EXPANSIONS,
    ) -> None:
        super().__init__(graph)
        graph = self._graph  # the base may have adapted a bare CSR snapshot
        # Validates and holds the search bounds balanced_depths takes.
        self._search = BalancedPathSearch(
            graph, max_length=max_path_length, max_expansions=max_expansions
        )
        num_nodes = graph.number_of_nodes()
        # Truncation must survive cache eviction: remember *which* sources hit
        # the expansion cap in a small persistent set of node ids, not via the
        # evictable results themselves.  The set is generation-pruned on its
        # own (``_prune_truncated``) because flags deliberately outlive cache
        # entries: a mutation in a flagged source's component drops the flag
        # (its re-search may no longer truncate) even when the result itself
        # was evicted long ago.
        self._truncated_sources: Set[Node] = set()
        self._truncated_generation = graph.generation
        # Generation-keyed: a mutation drops only the search results whose
        # component it touched (balanced paths never leave a component).
        self._result_cache: GenerationalLRUCache[Node, BalancedPathResult] = (
            GenerationalLRUCache(
                graph,
                maxsize=scaled_cache_size(
                    DEFAULT_RESULT_CACHE_SIZE, num_nodes, DEPTH_ROW_BYTES_PER_NODE
                ),
                bytes_per_entry=num_nodes * DEPTH_ROW_BYTES_PER_NODE,
            )
        )
        self.max_path_length = max_path_length

    def _prune_truncated(self) -> None:
        """Drop truncation flags whose source's component a mutation touched."""
        generation = self._graph.generation
        if generation == self._truncated_generation:
            return
        if self._truncated_sources:
            affected = self._graph.affected_nodes_since(self._truncated_generation)
            if affected is None:
                self._truncated_sources.clear()
            else:
                self._truncated_sources -= affected
        self._truncated_generation = generation

    def _search_from(self, source: Node) -> BalancedPathResult:
        self._prune_truncated()
        result = self._result_cache.get(source)
        if result is None:
            [result] = self._csr_searches([source])
            self._result_cache[source] = result
            if result.truncated:
                self._truncated_sources.add(source)
        return result

    def batch_search(self, sources: Sequence[Node]) -> List[BalancedPathResult]:
        """One balanced-path search result per source, batched.

        Uncached sources share one :func:`~repro.signed.csr.balanced_depths`
        call.  Each result holds the same depth per node and the same
        truncation flag as :meth:`_search_from`; results are written through
        to the result cache and truncation flags are recorded exactly as the
        per-source path would have.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        self._prune_truncated()

        def compute_missing(missing: List[Node]) -> List[BalancedPathResult]:
            results = self._csr_searches(missing)
            for source, result in zip(missing, results):
                if result.truncated:
                    self._truncated_sources.add(source)
            return results

        return fetch_batched(self._result_cache, source_list, compute_missing)

    def _csr_searches(self, sources: List[Node]) -> List[BalancedPathResult]:
        """:func:`~repro.signed.csr.balanced_depths` rows of ``sources``, read
        by node through :class:`~repro.signed.csr.CSRLengths` views."""
        from repro.signed.csr import CSRLengths, balanced_depths

        csr = self._graph.csr_view()
        raw = balanced_depths(
            csr,
            [csr.index_of(source) for source in sources],
            max_length=self.max_path_length,
            exact=self.exact_search,
            max_expansions=self._search._max_expansions,
        )
        bound = self.max_path_length
        if bound is None:
            bound = csr.number_of_nodes() - 1
        return [
            BalancedPathResult(
                source=source,
                positive_lengths=CSRLengths(csr, positive),
                negative_lengths=CSRLengths(csr, negative),
                exact=self.exact_search,
                max_length=bound,
                truncated=truncated,
            )
            for source, (positive, negative, truncated) in zip(sources, raw)
        ]

    def _clear_subclass_cache(self) -> None:
        self._result_cache.clear()
        self._truncated_sources.clear()
        self._truncated_generation = self._graph.generation

    def _sync_subclass_caches(self) -> None:
        self._result_cache.sync()
        self._prune_truncated()

    def _found_positive(self, source: Node, target: Node) -> bool:
        """Directional check: does the search *from* ``source`` reach ``target``?"""
        return target in self._search_from(source).positive_lengths

    def are_compatible(self, u: Node, v: Node) -> bool:
        # Canonical symmetric check: the pair is compatible iff a positive
        # balanced path is found in either direction.  Overridden here (rather
        # than inherited via compatible_with) so a pair query costs at most two
        # searches instead of a full symmetric closure.
        self._require_nodes(u, v)
        if u == v:
            return True
        if not self._pair_allowed(u, v):
            return False
        return self._found_positive(u, v) or self._found_positive(v, u)

    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        return set(self._symmetric_closure([u])[0])

    def batch_compatible_sets(self, sources: Sequence[Node]) -> List[FrozenSet[Node]]:
        """The symmetric compatible set of every source, from one shared sweep.

        The symmetric relation needs, for each source ``s``, both the forward
        search from ``s`` and the reverse information "whose search finds
        ``s``".  The uncached sources share one pass over every candidate's
        search (:meth:`_symmetric_closure`), so the whole batch costs one
        sweep regardless of cache pressure.  Each returned set equals
        ``compatible_with(source)`` exactly (the source included) and is
        written into the compatible-set cache.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        return fetch_batched(self._compatible_cache, source_list, self._symmetric_closure)

    def _symmetric_closure(self, sources: List[Node]) -> List[FrozenSet[Node]]:
        """Forward finds plus reverse finds for distinct ``sources``.

        The finds are read from each source's own search result (forward
        finds) and the search result of every node in the sources'
        components (reverse finds: whose search reaches the source), as the
        entries of one matrix over the members of the sources' components
        (one CSR frontier expansion), :meth:`_symmetric_depths`: the forward
        rows, the transpose of the forward block for members that are
        sources themselves and one gathered column per other member, with
        direct negative edges cleared by one mask from the snapshot's
        negative entries.
        """
        import numpy as np

        csr = self._graph.csr_view()
        ids = np.fromiter(map(csr._index.__getitem__, sources), np.int64, len(sources))
        members, depths = self._symmetric_depths(csr, sources, ids)
        depths[np.arange(ids.size), np.searchsorted(members, ids)] = 0  # the source itself
        nodes = csr._nodes
        return [
            frozenset(map(nodes.__getitem__, members[row != NO_PATH].tolist()))
            for row in depths
        ]

    def _symmetric_depths(self, csr, sources: List[Node], ids):
        """Symmetric balanced depths of ``sources`` over their components.

        Returns ``(members, depths)``: ``members`` holds the ascending dense
        ids of ``csr`` in the components of the sources (dense ids ``ids``),
        found by one frontier expansion
        (:func:`~repro.signed.csr.component_members`), and ``depths`` is an
        int32 ``(len(sources), len(members))`` matrix.  Entry ``[i, j]`` is
        ``min(P[s, m], P[m, s])`` for ``s = sources[i]`` and ``m =
        members[j]``, where ``P[u, v]`` is the length of the positive balanced
        path ``u``'s search found to ``v``; it is :data:`NO_PATH` where
        neither direction found one or a direct negative edge joins the pair,
        so the other entries of a row are the source's compatible set (the
        source itself aside).  Balanced paths never leave a component, so no
        other node can be compatible, and the work is bounded by the
        components, not by the snapshot.  The forward rows are the sources'
        search rows at the members; the reverse direction is read off the
        forward rows' transpose where the member is a source too, otherwise
        from its search row, gathered at the sources in chunks of
        :data:`REVERSE_SWEEP_CHUNK` searches, so only that many O(n) results
        are held outside the LRU at once.  Every row is read in ``csr``'s
        dense ids (:meth:`~repro.signed.csr.CSRLengths.row_in`), also that
        of a cached result from a snapshot with another node set.
        """
        import numpy as np

        from repro.signed.csr import UNREACHABLE, component_members, negative_entries

        members = component_members(csr, ids)
        depths = np.empty((ids.size, members.size), dtype=np.int32)
        for row, result in enumerate(self.batch_search(sources)):
            depths[row] = result.positive_lengths.row_in(csr)[members]
        reverse = np.empty_like(depths)
        own = np.searchsorted(members, ids)
        reverse[:, own] = depths[:, own].T
        others = np.ones(members.size, dtype=bool)
        others[own] = False
        others = np.flatnonzero(others)
        nodes = csr._nodes
        for start in range(0, others.size, REVERSE_SWEEP_CHUNK):
            chunk = others[start : start + REVERSE_SWEEP_CHUNK]
            results = self.batch_search([nodes[dense] for dense in members[chunk].tolist()])
            reverse[:, chunk] = np.stack(
                [result.positive_lengths.row_in(csr)[ids] for result in results], axis=1
            )
        # Both directions hold UNREACHABLE (-1) where no path was found, the
        # largest value as uint32: the unsigned minimum is the shorter
        # direction, and what stays UNREACHABLE becomes NO_PATH.
        np.minimum(depths.view(np.uint32), reverse.view(np.uint32), out=depths.view(np.uint32))
        depths[depths == UNREACHABLE] = NO_PATH
        rows, enemies = negative_entries(csr, ids)
        depths[rows, np.searchsorted(members, enemies)] = NO_PATH
        return members, depths

    def batch_distance_to_set(
        self, candidates: Sequence[Node], team: Sequence[Node]
    ) -> List[float]:
        """Largest balanced distance from each candidate to any team member.

        The batched counterpart of looping
        :meth:`~repro.compatibility.distance.DistanceOracle.distance_to_set`
        under a balanced relation (the last per-candidate loop in LCMD): the
        team members' forward searches are resolved once and shared by every
        candidate, and the candidates' reverse searches run as one chunked
        sweep instead of one :meth:`_search_from` at a time.  Every value
        equals ``max(positive_balanced_distance(member, candidate) for member
        in team)`` exactly — same symmetric two-direction minimum, same
        ``inf`` for missing paths and negative-edge pairs.  A candidate
        outside the graph reads ``inf``, as under the other relations; a
        team member outside it raises
        :class:`~repro.exceptions.NodeNotFoundError`.
        """
        candidate_list = list(candidates)
        team_list = list(team)
        if not candidate_list:
            return []
        if not team_list:
            return [0.0] * len(candidate_list)
        self._require_nodes(*team_list)
        graph = self._graph
        distances: List[float] = [0.0] * len(candidate_list)
        # Cheap pre-pass first: a direct negative edge to any member makes the
        # maximum inf without any search (the short-circuit the per-candidate
        # loop had) — only the surviving candidates join the reverse sweep.
        searchable: List[int] = []
        for position, candidate in enumerate(candidate_list):
            if candidate not in graph or any(
                member != candidate and not self._pair_allowed(member, candidate)
                for member in team_list
            ):
                distances[position] = INFINITY
            else:
                searchable.append(position)
        if not searchable:
            return distances
        member_results = self.batch_search(team_list)
        for start in range(0, len(searchable), REVERSE_SWEEP_CHUNK):
            positions = searchable[start : start + REVERSE_SWEEP_CHUNK]
            chunk = [candidate_list[position] for position in positions]
            for position, candidate, candidate_result in zip(
                positions, chunk, self.batch_search(chunk)
            ):
                best = 0.0
                for member, member_result in zip(team_list, member_results):
                    if member == candidate:
                        continue  # distance 0 never raises the maximum
                    distance = min(
                        member_result.positive_length(candidate),
                        candidate_result.positive_length(member),
                    )
                    if distance > best:
                        best = distance
                    if best == INFINITY:
                        break
                distances[position] = best
        return distances

    def positive_balanced_distance(self, u: Node, v: Node) -> float:
        """Length of the best positive balanced path found between ``u`` and ``v``.

        Returns ``inf`` when no such path was found.  This is the distance the
        paper uses for the communication cost under SBP/SBPH.  Like the
        relation itself, the distance is symmetric: both search directions are
        consulted and the shorter of the two path lengths wins, so compatible
        pairs always have a finite distance regardless of query order.
        """
        self._require_nodes(u, v)
        if u == v:
            return 0.0
        if not self._pair_allowed(u, v):
            return INFINITY
        forward = self._search_from(u).positive_length(v)
        backward = self._search_from(v).positive_length(u)
        return min(forward, backward)

    def _pair_allowed(self, u: Node, v: Node) -> bool:
        """Enforce Negative Edge Incompatibility explicitly.

        A positive balanced path between ``u`` and ``v`` cannot coexist with a
        direct negative edge (the edge would close an unbalanced cycle), so
        for the *exact* relation this check is redundant; the heuristic search
        keeps it as a guard so SBPH always satisfies Property 2 even when its
        path bookkeeping is approximate.
        """
        if self._graph.has_edge(u, v) and self._graph.sign(u, v) == NEGATIVE:
            return False
        return True


class StructurallyBalancedPathCompatibility(_BalancedPathRelation):
    """SBP: exact (exhaustive) structurally balanced positive path search.

    Worst-case exponential; intended for small graphs, mirroring the paper
    (which reports SBP only on Slashdot).  ``max_expansions`` bounds the work
    per source; if the bound is hit the relation under-approximates and the
    per-source result is flagged ``truncated``.
    """

    name = "SBP"
    exact_search = True

    def truncated_sources(self) -> Set[Node]:
        """Sources whose exact search hit the expansion cap (results partial).

        Tracked independently of the (bounded, evictable) result cache, so the
        report stays complete even after a sweep larger than the cache.
        """
        self._prune_truncated()
        return set(self._truncated_sources)


class HeuristicBalancedPathCompatibility(_BalancedPathRelation):
    """SBPH: heuristic search restricted to prefix-property balanced paths.

    The directional search (:meth:`BalancedPathSearch.search_heuristic`) keeps
    one representative path per ``(node, sign)`` state and therefore depends
    on the search direction; the relation symmetrises it by accepting a pair
    when either endpoint's search finds the other (see the module docstring).
    """

    name = "SBPH"
    exact_search = False
