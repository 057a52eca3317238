"""The batched compatibility query service.

Team formation (Section 4 of the paper) keeps asking *one-to-many* questions:
"which holders of skill ``s`` are compatible with the current team?", "how far
is each candidate from the team?".  The per-pair relation API answers them one
:meth:`~repro.compatibility.base.CompatibilityRelation.are_compatible` call at
a time — correct, but each call pays Python-interpreter cost, and none of the
batched CSR kernels (:mod:`repro.signed.csr`) get a chance to amortise work
across the candidates.

:class:`CompatibilityEngine` is the shared service every layer above the
kernels queries instead:

* :class:`~repro.teams.problem.TeamFormationProblem` filters per-skill
  candidates through :meth:`compatible_from_many`;
* the user-selection policies score candidates through
  :meth:`distances_to_team_many` and count their compatible holders of
  still-needed skills through :meth:`compatible_counts`;
* the generic Algorithm 2 warms the seed users' per-source computations in
  one multi-source batch (:meth:`warm`);
* the experiment harness routes its sampled pair statistics through
  :meth:`compatibility_degrees`.

The engine decides per relation how to serve each query: SP* relations
answer team filters with one multi-source BFS plus a vectorised pair-rule
mask; every other relation falls back to exactly the per-pair loop over the
relation API, so results are identical by construction.

The per-pair relation API (``are_compatible`` / ``compatible_with`` /
:meth:`~repro.compatibility.distance.DistanceOracle.distance_to_set`) is the
reference: the equivalence tests run the same queries through it pair by pair
and assert the teams, costs and statistics match the engine bit for bit.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.compatibility.base import CompatibilityRelation
from repro.compatibility.distance import DistanceOracle
from repro.compatibility.shortest_path import _ShortestPathRelation
from repro.signed.graph import Node, SignedGraph
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import scaled_cache_size

#: Ceiling on the number of memoised per-member rule masks (each mask is one
#: byte per node, so :func:`~repro.utils.lru.scaled_cache_size` rarely
#: shrinks it).
DEFAULT_MASK_CACHE_SIZE = 4096


class CompatibilityEngine:
    """Batched one-to-many compatibility and distance queries for one relation.

    Parameters
    ----------
    relation:
        The compatibility relation to serve queries for.
    oracle:
        Optional pre-built :class:`DistanceOracle`; built from ``relation``
        when omitted.  Sharing the oracle shares its distance-map caches.

    For SP* relations, :meth:`compatible_from_many` memoises one boolean
    rule mask per ``(team member, graph generation)`` in an LRU of
    :data:`DEFAULT_MASK_CACHE_SIZE` entries (scaled down by graph size), so
    Algorithm 2's repeated filters against the same team skip both the BFS
    lookup and the mask recomputation.
    """

    def __init__(
        self,
        relation: CompatibilityRelation,
        oracle: Optional[DistanceOracle] = None,
    ) -> None:
        self._relation = relation
        self._oracle = oracle if oracle is not None else DistanceOracle(relation)
        if self._oracle.relation is not relation:
            raise ValueError("the oracle must be built on the engine's relation")
        num_nodes = relation.graph.number_of_nodes()
        # member -> (node-list identity of the snapshot, mask array).  The
        # generational wrapper drops entries whose member's component a
        # mutation touched; the identity tag guards against dense-id drift
        # when the node set changes (new snapshots then carry a new list).
        self._mask_cache: GenerationalLRUCache[Node, Tuple[object, object]] = (
            GenerationalLRUCache(
                relation.graph,
                maxsize=scaled_cache_size(
                    DEFAULT_MASK_CACHE_SIZE, num_nodes, bytes_per_node=1
                ),
                bytes_per_entry=max(1, num_nodes),
            )
        )

    # ------------------------------------------------------------- properties

    @property
    def relation(self) -> CompatibilityRelation:
        """The compatibility relation this engine serves."""
        return self._relation

    @property
    def oracle(self) -> DistanceOracle:
        """The distance oracle consistent with the relation."""
        return self._oracle

    @property
    def graph(self) -> SignedGraph:
        """The signed graph the relation is bound to."""
        return self._relation.graph

    # ------------------------------------------------------- pairwise facade

    def are_compatible(self, u: Node, v: Node) -> bool:
        """Per-pair query, delegated to the relation."""
        return self._relation.are_compatible(u, v)

    def compatible_set(self, u: Node) -> FrozenSet[Node]:
        """The compatible set of ``u`` (always contains ``u``), cached."""
        return self._relation.compatible_with(u)

    def distance(self, u: Node, v: Node) -> float:
        """Pairwise distance under the relation's definition."""
        return self._oracle.distance(u, v)

    # --------------------------------------------------------- batched queries

    def compatible_counts(
        self, sources: Sequence[Node], targets: Iterable[Node]
    ) -> List[int]:
        """``|compatible_set(s) ∩ targets|`` per source, batched.

        See :meth:`~repro.compatibility.base.CompatibilityRelation.batch_count_compatible`:
        SP* relations count off their pair-rule masks,
        NNE off the sources' enemy lists, the rest intersect batched sets.
        """
        return self._relation.batch_count_compatible(list(sources), targets)

    def compatibility_degrees(self, sources: Sequence[Node]) -> List[int]:
        """Number of *other* compatible nodes per source, batched."""
        return self._relation.batch_compatibility_degrees(list(sources))

    def warm(self, sources: Sequence[Node]) -> None:
        """Prefetch per-source computations the coming queries will need.

        For SP* relations this runs one multi-source BFS
        over the uncached sources (bounded by the BFS cache size, so a huge
        seed list cannot churn the cache).  The oracle's distance rows are
        the lengths of those same BFS results, so distance queries are warmed
        too.  Purely an optimisation — results of later queries are
        unchanged.
        """
        source_list = list(dict.fromkeys(sources))
        if not source_list:
            return
        relation = self._relation
        if isinstance(relation, _ShortestPathRelation):
            relation.batch_bfs(source_list[: relation.bfs_cache_maxsize])

    def compatible_from_many(
        self, candidates: Iterable[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """The candidates compatible with *every* member of ``team``.

        Team members themselves are excluded from the result, mirroring the
        per-pair candidate filter.  SP* relations answer with
        one batched BFS over the team plus vectorised pair-rule masks indexed
        at the candidates; everything else runs the per-pair loop.
        The result is identical either way (the SP* pair rules are symmetric
        in the pair, so membership in the member's masked set *is* the pair
        query).
        """
        team_list = list(team)
        team_set = set(team_list)
        survivors = [c for c in candidates if c not in team_set]
        if not team_list or not survivors:
            return frozenset(survivors)
        relation = self._relation
        if isinstance(relation, _ShortestPathRelation):
            return self._compatible_from_many_csr(survivors, team_list)
        return frozenset(
            candidate
            for candidate in survivors
            # Query with the team member first: the relations cache their
            # per-source computation, and the members recur across candidates.
            if all(relation.are_compatible(member, candidate) for member in team_list)
        )

    def _member_rule_masks(self, team: Sequence[Node], csr) -> List:
        """One memoised rule mask per team member, aligned with ``team``.

        A mask is the member's vectorised pair rule over ``csr``'s dense ids
        — the entire per-member contribution to a team filter (unreachable
        nodes have no positive path and fail every rule).  Masks live in
        the engine's ``(member, generation)`` memo; misses are read off one
        batched BFS over exactly the missing members
        (:meth:`~repro.compatibility.shortest_path._ShortestPathRelation.batch_bfs`),
        whose planes every result gives over ``csr``'s dense ids, also one
        cached on an older snapshot.
        """
        relation = self._relation
        nodes_tag = csr._nodes
        masks: dict = {}
        missing: List[Node] = []
        for member in dict.fromkeys(team):
            entry = self._mask_cache.get(member)
            if entry is not None and entry[0] is nodes_tag:
                masks[member] = entry[1]
            else:
                missing.append(member)
        for member, mask in zip(missing, relation._rule_rows(csr, missing)):
            self._mask_cache[member] = (nodes_tag, mask)
            masks[member] = mask
        return [masks[member] for member in team]

    def _compatible_from_many_csr(
        self, survivors: Sequence[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """Vectorised team filter: memoised per-member rule masks, indexed at
        the candidates (one batched BFS only for members without a valid memo
        entry)."""
        import numpy as np

        csr = self.graph.csr_view()
        index = csr._index
        try:
            ids = np.fromiter(
                (index[candidate] for candidate in survivors),
                dtype=np.int64,
                count=len(survivors),
            )
        except KeyError as missing:
            from repro.exceptions import NodeNotFoundError

            raise NodeNotFoundError(missing.args[0]) from None
        keep = np.ones(len(survivors), dtype=bool)
        for mask in self._member_rule_masks(team, csr):
            keep &= mask[ids]
            if not keep.any():
                break
        return frozenset(
            survivors[position] for position in np.flatnonzero(keep)
        )

    def distance_to_team(self, node: Node, team: Iterable[Node]) -> float:
        """Largest distance from ``node`` to any team member (one candidate)."""
        return self._oracle.distance_to_set(node, team)

    def distances_to_team_many(
        self, candidates: Sequence[Node], team: Sequence[Node]
    ) -> List[float]:
        """:meth:`distance_to_team` for every candidate, batched.

        The team's distance maps are computed in one batched sweep and the
        per-candidate maxima are taken with array indexing.  Values equal the
        per-candidate calls exactly.
        """
        return self._oracle.batch_distance_to_set(list(candidates), team)

    def refresh(self) -> None:
        """Eagerly resync the engine with a mutated graph.

        Every cache the engine touches is generation-keyed and resyncs
        lazily, so calling this is never required for correctness.  It exists
        to move the (possibly delta-applied) CSR snapshot rebuild and the
        targeted cache invalidation out of the next query's latency — the
        natural point in a streaming workload is right after an update batch,
        before queries resume.
        """
        if self.graph._csr_cache is not None:
            self.graph.csr_view()
        self._mask_cache.sync()
        self._relation.sync_caches()
        self._oracle.sync()

    def clear_caches(self) -> None:
        """Drop the relation's, the oracle's and the engine's own caches.

        With generation-keyed caches this is no longer required after graph
        mutations (stale entries expire by themselves); it remains the full
        reset for tests and memory pressure.
        """
        self._relation.clear_cache()
        self._oracle.clear_cache()
        self._mask_cache.clear()

    def __repr__(self) -> str:
        return f"CompatibilityEngine(relation={self._relation.name})"
