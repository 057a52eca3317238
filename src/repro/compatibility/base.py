"""The abstract compatibility relation ``Comp ⊆ V × V``.

Section 2 of the paper requires every compatibility relation to be reflexive
and symmetric and to satisfy two properties:

* **Positive Edge Compatibility** — endpoints of a positive edge are compatible;
* **Negative Edge Incompatibility** — endpoints of a negative edge are not.

:class:`CompatibilityRelation` encodes that contract.  Concrete relations are
bound to a :class:`~repro.signed.graph.SignedGraph` at construction time and
answer two queries:

* :meth:`are_compatible` — is the pair ``(u, v)`` in the relation?
* :meth:`compatible_with` — the set of nodes compatible with ``u`` (used by
  the "most compatible" team-formation policy and by the pairwise statistics).

Implementations cache whatever per-source computation they need (a signed BFS,
a balanced-path search, ...), so repeated queries from the same source are
cheap.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.signed.graph import NEGATIVE, POSITIVE, Node, SignedGraph
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import scaled_cache_size

#: Ceiling on the number of cached per-source compatible sets (the entry
#: bound :func:`~repro.utils.lru.scaled_cache_size` scales down by graph size).
DEFAULT_COMPATIBLE_CACHE_SIZE = 4096

#: Bytes per member the compatible-set cache budgets for, as if every set
#: held every node.  A frozenset's hash table measured 33-105 bytes per
#: member between 10 and 100k members (CPython 3.11; the node objects are
#: the graph's own), so the bound takes 64.
COMPATIBLE_SET_BYTES_PER_MEMBER = 64


class CompatibilityRelation(abc.ABC):
    """Base class for every compatibility relation.

    Parameters
    ----------
    graph:
        The signed graph the relation is defined over.

    The LRU of per-source compatible sets holds
    :data:`DEFAULT_COMPATIBLE_CACHE_SIZE` entries, scaled down by graph
    size; each set is O(n), so the bound caps the relation's memory at a
    fixed byte budget on dense relations.
    """

    #: Short name used in the paper's tables (e.g. ``"SPA"``); set by subclasses.
    name: str = "ABSTRACT"

    #: Whether a source's compatible set depends only on its connected
    #: component (true for every path-based relation).  Relations with global
    #: dependence (NNE's complement-style sets) override this so the
    #: generation-keyed caches invalidate wholesale on node-set changes.
    component_local_sets: bool = True

    def __init__(self, graph: SignedGraph) -> None:
        if not isinstance(graph, SignedGraph):
            # Bare CSR snapshots (CSR-first ingestion) are adapted to the
            # canonical lazy facade; the adjacency dict only materialises if
            # a dict-only code path is actually exercised.
            from repro.signed.lazy import as_signed_graph

            graph = as_signed_graph(graph)
        self._graph = graph
        num_nodes = graph.number_of_nodes()
        # Generation-keyed: entries auto-expire when a mutation touches their
        # source's connected component, so mutating the graph never requires a
        # manual clear_cache() and never wipes unaffected components.
        self._compatible_cache: GenerationalLRUCache[Node, FrozenSet[Node]] = (
            GenerationalLRUCache(
                graph,
                maxsize=scaled_cache_size(
                    DEFAULT_COMPATIBLE_CACHE_SIZE, num_nodes, COMPATIBLE_SET_BYTES_PER_MEMBER
                ),
                bytes_per_entry=num_nodes * COMPATIBLE_SET_BYTES_PER_MEMBER,
                component_local=type(self).component_local_sets,
            )
        )

    @property
    def graph(self) -> SignedGraph:
        """The signed graph this relation is bound to."""
        return self._graph

    # ----------------------------------------------------------------- public

    def are_compatible(self, u: Node, v: Node) -> bool:
        """True iff ``(u, v)`` belongs to the relation.

        Reflexive by construction: ``are_compatible(u, u)`` is always ``True``
        for nodes in the graph.
        """
        self._require_nodes(u, v)
        if u == v:
            return True
        return v in self.compatible_with(u)

    def compatible_with(self, u: Node) -> FrozenSet[Node]:
        """The set of nodes compatible with ``u`` (always contains ``u``)."""
        if u not in self._graph:
            raise NodeNotFoundError(u)
        cached = self._compatible_cache.get(u)
        if cached is None:
            computed = set(self._compute_compatible_set(u))
            computed.add(u)
            cached = frozenset(computed)
            self._compatible_cache[u] = cached
        return cached

    def compatibility_degree(self, u: Node) -> int:
        """Number of *other* nodes compatible with ``u``."""
        return len(self.compatible_with(u)) - 1

    def all_compatible(self, nodes: Iterable[Node]) -> bool:
        """True iff every pair of ``nodes`` is compatible (the team condition)."""
        node_list = list(nodes)
        for index, u in enumerate(node_list):
            compatible = self.compatible_with(u)
            for v in node_list[index + 1 :]:
                if v not in compatible:
                    return False
        return True

    def incompatible_pairs(self, nodes: Iterable[Node]) -> Iterator[Tuple[Node, Node]]:
        """Yield the incompatible pairs among ``nodes`` (useful for diagnostics)."""
        node_list = list(nodes)
        for index, u in enumerate(node_list):
            compatible = self.compatible_with(u)
            for v in node_list[index + 1 :]:
                if v not in compatible:
                    yield (u, v)

    def batch_compatible_sets(self, sources: Iterable[Node]) -> List[FrozenSet[Node]]:
        """Compatible sets for many sources at once (results cached as usual).

        The default runs :meth:`compatible_with` per source; relations with a
        cheaper batched strategy (the SP* family's indexed multi-source BFS,
        the balanced relations' shared reverse sweep) override this, and the
        pairwise statistics call it instead of looping so they pick up
        whichever strategy the relation implements.
        """
        return [self.compatible_with(source) for source in sources]

    def batch_compatibility_degrees(self, sources: Iterable[Node]) -> List[int]:
        """Number of *other* compatible nodes per source (see :meth:`batch_compatible_sets`)."""
        return [len(found) - 1 for found in self.batch_compatible_sets(sources)]

    def batch_count_compatible(
        self, sources: Iterable[Node], targets: Iterable[Node]
    ) -> List[int]:
        """``|compatible_with(s) ∩ targets|`` per source (see :meth:`batch_compatible_sets`).

        ``targets`` is read as a set: duplicates count once and nodes outside
        the graph not at all.  A source in ``targets`` counts itself, since
        every compatible set contains its source.  The default intersects the
        batched sets; the SP* family counts straight off its pair-rule masks
        and NNE off the sources' enemy lists, building no set.
        """
        target_set = frozenset(targets)
        return [len(found & target_set) for found in self.batch_compatible_sets(sources)]

    def compatible_from_many(
        self, candidates: Iterable[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """The candidates compatible with *every* member of ``team``.

        Team members themselves are excluded from the result.  The default
        runs the per-pair loop, asking with the team member first: the
        relations cache their per-source computation, and the members recur
        across candidates.  The SP* family reads its pair-rule masks instead.
        """
        team_list = list(team)
        team_set = set(team_list)
        return frozenset(
            candidate
            for candidate in candidates
            if candidate not in team_set
            and all(self.are_compatible(member, candidate) for member in team_list)
        )

    def warm(self, sources: Iterable[Node]) -> None:
        """Prefetch the per-source computations coming queries will need.

        Purely an optimisation, and by default nothing: the SP* family runs
        one multi-source BFS over the sources.
        """

    def dense_partner_rows(self, csr, sources: Sequence[Node], ids):
        """The sources' compatible sets as one ``(len(sources), n)`` bool matrix.

        ``csr`` is the graph's current CSR snapshot and ``ids`` the sources'
        dense ids in it; row ``i`` is true exactly at the dense ids of
        ``compatible_with(sources[i])``, the source included.  The default
        marks each :meth:`batch_compatible_sets` entry; the SP* family reads
        its pair-rule masks and NNE its enemies, building no set.
        """
        import numpy as np

        index = csr._index
        rows = np.zeros((len(sources), csr.number_of_nodes()), dtype=bool)
        for row, found in enumerate(self.batch_compatible_sets(sources)):
            rows[row, list(map(index.__getitem__, found))] = True
        return rows

    def clear_cache(self) -> None:
        """Drop all cached per-source computations.

        Not required after graph mutations — the caches are generation-keyed
        and expire stale entries by themselves (targeted by connected
        component).  This remains the full reset for memory pressure or
        tests.
        """
        self._compatible_cache.clear()
        self._clear_subclass_cache()

    def sync_caches(self) -> None:
        """Eagerly re-key every generational cache to the current generation.

        Purely a latency optimisation: the caches sync lazily on their next
        access anyway.  Callers that know a mutation batch just ended (e.g.
        :meth:`~repro.compatibility.engine.CompatibilityEngine.refresh`) use
        this to take the invalidation sweep out of the next query.
        """
        self._compatible_cache.sync()
        self._sync_subclass_caches()

    # ----------------------------------------------------- property validation

    def satisfies_positive_edge_compatibility(self) -> bool:
        """Check Property 1 of the paper on every positive edge of the graph."""
        return all(
            self.are_compatible(u, v)
            for u, v, sign in self._graph.edge_triples()
            if sign == POSITIVE
        )

    def satisfies_negative_edge_incompatibility(self) -> bool:
        """Check Property 2 of the paper on every negative edge of the graph."""
        return not any(
            self.are_compatible(u, v)
            for u, v, sign in self._graph.edge_triples()
            if sign == NEGATIVE
        )

    def is_valid_relation(self) -> bool:
        """Check both required properties (exhaustively, edge by edge)."""
        return (
            self.satisfies_positive_edge_compatibility()
            and self.satisfies_negative_edge_incompatibility()
        )

    # --------------------------------------------------------------- subclass

    @abc.abstractmethod
    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        """Return the nodes compatible with ``u`` (``u`` itself may be omitted)."""

    def _clear_subclass_cache(self) -> None:
        """Hook for subclasses that keep extra caches."""

    def _sync_subclass_caches(self) -> None:
        """Hook mirroring :meth:`_clear_subclass_cache` for eager generation sync."""

    # ---------------------------------------------------------------- helpers

    def _require_nodes(self, *nodes: Node) -> None:
        for node in nodes:
            if node not in self._graph:
                raise NodeNotFoundError(node)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(graph={self._graph!r})"
