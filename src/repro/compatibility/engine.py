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

The engine holds no cache and makes no per-relation choice: each query
goes to the relation's batched method
(:meth:`~repro.compatibility.base.CompatibilityRelation.compatible_from_many`,
:meth:`~repro.compatibility.base.CompatibilityRelation.warm`, ...) or to the
distance oracle.  SP* relations answer team filters with one multi-source
BFS plus the pair rule read at the candidates; every other relation runs
exactly the per-pair loop over the relation API, so results are identical
by construction.

The per-pair relation API (``are_compatible`` / ``compatible_with`` /
:meth:`~repro.compatibility.distance.DistanceOracle.distance_to_set`) is the
reference: the equivalence tests run the same queries through it pair by pair
and assert the teams, costs and statistics match the engine bit for bit.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence

from repro.compatibility.base import CompatibilityRelation
from repro.compatibility.distance import DistanceOracle
from repro.signed.graph import Node, SignedGraph


class CompatibilityEngine:
    """Batched one-to-many compatibility and distance queries for one relation.

    Parameters
    ----------
    relation:
        The compatibility relation to serve queries for.
    oracle:
        Optional pre-built :class:`DistanceOracle`; built from ``relation``
        when omitted.  Sharing the oracle shares its distance-map caches.

    The engine itself is stateless: every cache it reads is the relation's
    or the oracle's, so Algorithm 2's repeated filters against the same team
    are served by the relation's generation-keyed per-source results.
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

        See :meth:`~repro.compatibility.base.CompatibilityRelation.warm`: SP*
        relations run one multi-source BFS, whose lengths are also the
        oracle's distance rows.  Purely an optimisation — results of later
        queries are unchanged.
        """
        self._relation.warm(sources)

    def compatible_from_many(
        self, candidates: Iterable[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """The candidates compatible with *every* member of ``team``, members excluded.

        See :meth:`~repro.compatibility.base.CompatibilityRelation.compatible_from_many`.
        """
        return self._relation.compatible_from_many(candidates, team)

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
        self._relation.sync_caches()
        self._oracle.sync()

    def clear_caches(self) -> None:
        """Drop the relation's and the oracle's caches.

        With generation-keyed caches this is no longer required after graph
        mutations (stale entries expire by themselves); it remains the full
        reset for tests and memory pressure.
        """
        self._relation.clear_cache()
        self._oracle.clear_cache()

    def __repr__(self) -> str:
        return f"CompatibilityEngine(relation={self._relation.name})"
