"""Shortest-path compatibility relations: SPA, SPM, SPO (Definition 3.3).

All three are computed from the output of **Algorithm 1**
(:func:`repro.signed.paths.signed_bfs`), which counts the positive and
negative shortest paths from a query node to every other node in one BFS:

* **SPA** — *all* shortest paths between the pair are positive;
* **SPM** — at least as many positive as negative shortest paths (majority);
* **SPO** — at least *one* shortest path between the pair is positive.

Algorithm 1 runs on the graph's
:meth:`~repro.signed.graph.SignedGraph.csr_view`: the indexed array BFS
(:func:`repro.signed.csr.signed_bfs_csr`) per source, and a word-parallel
multi-source kernel (:func:`repro.signed.csr.multi_source_signed_bfs`) behind
:meth:`batch_bfs`.  Every result a relation caches or returns is a
:class:`~repro.signed.csr.CSRSignedBFSResult`: a source whose path counts
trip the kernels' int64 guard is answered by the pure-Python
:func:`~repro.signed.paths.signed_bfs`, whose result is laid onto dense rows
of exact Python ints
(:meth:`~repro.signed.csr.CSRSignedBFSResult.from_signed_bfs_result`), and
readers take a result's planes over the current snapshot's dense ids
(:meth:`~repro.signed.csr.CSRSignedBFSResult.signed_rows`), so no reader
keeps a per-pair fallback.  :mod:`repro.signed.paths` is the readable
statement of Algorithm 1 and the tests' reference.

A source's BFS result (lengths plus positive and negative path counts)
depends only on the graph and the source, not on the pair rule, so it is
computed once per graph: every SPA/SPM/SPO relation on the graph reads one
bounded, generation-keyed LRU
(:class:`repro.utils.generational.GenerationalLRUCache`) held by the graph
itself, and the SP* distance oracles read their distance rows from the same
results.  Its entry bound scales :data:`DEFAULT_BFS_CACHE_SIZE` down on huge
graphs so the cache stays within a fixed byte budget (entries are O(n) — see
:func:`repro.utils.lru.scaled_cache_size`).

SPO only asks whether a positive shortest path *exists*, so its batched
misses (:meth:`OneShortestPathCompatibility.batch_bfs`)
run the word-parallel presence traversal
(:func:`repro.signed.csr._wordparallel_presence_into`) for every word of at
least :data:`~repro.signed.csr.PRESENCE_MIN_SOURCES` (4) sources: lengths
plus one bit per sign, no counts.  Those *presence results* go into the same
cache, and ``result.presence`` tells the two kinds apart.

The sampled statistics only need each source's *degree* under each rule:
the graph's second cache is a generation-keyed memo of ``(spa, spm, spo)``
degree triples, whose entries are three ints, so it keeps the
:data:`DEFAULT_BFS_CACHE_SIZE` ceiling unscaled.  SPA and SPO, like SPO's
pair rule, only need to know whether a positive or a negative shortest path
exists, so their misses without a cached result run presence planes
in-process, 64 sources a word (:func:`repro.signed.csr.presence_degrees`),
and leave the entry's ``spm`` unknown; SPM counts Algorithm 1 for any entry
without it, which fills the whole triple.

Who reads what: SPO reads either kind of cached result; SPA and SPM read
counts only, so a presence entry is a miss to them and their counts result
replaces it.  Degree sweeps take the whole triple from cached counts and
SPA's and SPO's degrees from a presence result too, and distance rows are
BFS lengths, which both kinds hold.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.compatibility.base import CompatibilityRelation
from repro.signed.graph import Node, SignedGraph
from repro.signed.paths import signed_bfs
from repro.utils.generational import GenerationalLRUCache
from repro.utils.lru import fetch_batched, scaled_cache_size

#: Ceiling on the number of cached per-source BFS results (the entry bound
#: :func:`~repro.utils.lru.scaled_cache_size` scales down by graph size).
DEFAULT_BFS_CACHE_SIZE = 2048

#: Widest size of one cached BFS or presence result per node: ``int32``
#: lengths plus two ``int64`` count planes, the kernels' widths
#: (:func:`~repro.signed.csr.narrow_row` usually copies them out at a
#: fraction of that).  A row of ``object`` counts past ``int64`` is larger,
#: but only a source with more than 2**63 shortest paths has one.
BFS_ROW_BYTES_PER_NODE = 20

# The result type, named lazily: repro.signed.csr is imported by the methods.
_BFSResult = "CSRSignedBFSResult"

#: A source's ``(spa, spm, spo)`` compatibility degrees; ``spm`` is ``None``
#: while only presence planes answered the source.
DegreeTriple = Tuple[int, Optional[int], int]


def _shared_caches(graph: SignedGraph) -> Tuple[
    GenerationalLRUCache[Node, _BFSResult],
    GenerationalLRUCache[Node, DegreeTriple],
]:
    """The graph's signed-BFS cache (counts and presence results) and degree memo.

    The graph holds one of each, bounded for its size.  Once it has grown
    enough to scale the bound down, the next SP* relation built on it gets
    fresh caches and the graph holds those; earlier relations keep theirs.
    Generation-keyed:
    mutating the graph drops only the entries whose component a mutation
    touched, for every relation sharing the caches; the rest stay valid
    (a result from an older CSR snapshot is read over the current one's
    dense ids — see CSRSignedBFSResult.signed_rows).
    """
    num_nodes = graph.number_of_nodes()
    maxsize = scaled_cache_size(DEFAULT_BFS_CACHE_SIZE, num_nodes, BFS_ROW_BYTES_PER_NODE)
    if graph._sp_caches is None or graph._sp_caches[0].maxsize != maxsize:
        graph._sp_caches = (
            GenerationalLRUCache(
                graph, maxsize=maxsize, bytes_per_entry=num_nodes * BFS_ROW_BYTES_PER_NODE
            ),
            # Entries are O(1): the ceiling stays unscaled.
            GenerationalLRUCache(graph, maxsize=DEFAULT_BFS_CACHE_SIZE),
        )
    return graph._sp_caches


class _ShortestPathRelation(CompatibilityRelation):
    """Shared machinery: one cached signed BFS per source node.

    Parameters
    ----------
    graph:
        The signed graph the relation is defined over.

    Every SP* relation on the graph shares its LRU of per-source BFS
    results (:data:`DEFAULT_BFS_CACHE_SIZE` entries, scaled down by graph
    size).
    """

    #: Whether the relation's degree follows from positive/negative path
    #: presence alone (SPA, SPO), not from Algorithm 1's counts (SPM).
    _presence_decides = True

    #: Whether a cached presence result answers the relation's pair, set and
    #: distance-row queries (SPO), or only Algorithm 1's counts do (SPA, SPM).
    _reads_presence = False

    def __init__(self, graph: SignedGraph) -> None:
        super().__init__(graph)
        self._bfs_cache, self._degree_cache = _shared_caches(self._graph)

    def _row(self, source: Node) -> _BFSResult:
        """``source``'s cached result, else Algorithm 1's fresh counts.

        A presence result is a miss unless the relation reads presence; the
        counts computed for it then replace it in the cache.
        """
        result = self._bfs_cache.get(source)
        if result is None or (result.presence and not self._reads_presence):
            from repro.signed.csr import signed_bfs_csr

            csr = self._graph.csr_view()
            try:
                result = signed_bfs_csr(csr, source)
            except OverflowError:
                result = self._exact_result(csr, source)
            self._bfs_cache[source] = result
        return result

    def _exact_result(self, csr, source: Node) -> _BFSResult:
        """``source``'s counts past the int64 guard, on ``csr``'s dense rows.

        The arbitrary-precision :func:`~repro.signed.paths.signed_bfs`
        answers the source, and its result becomes ``object`` count planes
        of Python ints.
        """
        from repro.signed.csr import CSRSignedBFSResult

        return CSRSignedBFSResult.from_signed_bfs_result(signed_bfs(self._graph, source), csr)

    def _has_row(self, node: Node) -> bool:
        """True iff the shared cache holds a result for ``node``.

        A membership probe: it counts no hit or miss.  It is true for a
        presence result too, which SPA and SPM then recompute.
        """
        return node in self._bfs_cache

    def _holds(self, result: _BFSResult, target: Node) -> bool:
        """The pair rule between ``result``'s source and reachable ``target``."""
        positive, negative = result.counts(target)
        return self._pair_rule(positive, negative)

    def batch_bfs(self, sources: Sequence[Node]) -> List[_BFSResult]:
        """One Algorithm-1 result per source, batched.

        Uncached sources run :func:`~repro.signed.csr.signed_bfs_dense_batch`
        (word-parallel in 64-source words, per-source below
        :data:`~repro.signed.csr.WORDPARALLEL_MIN_SOURCES`).  Sources whose
        counts overflow int64 fall back to the arbitrary-precision
        :func:`~repro.signed.paths.signed_bfs` individually and come back
        on dense ``object`` rows (:meth:`_exact_result`).  Results are held
        locally for the duration of the call, so a batch larger than the
        LRU bound is still computed exactly once; they are also written
        through to the cache for follow-up per-pair queries.  Every result
        is bit-identical to what :meth:`_row` would have produced.  SPO may
        answer with presence results instead (see
        :meth:`OneShortestPathCompatibility.batch_bfs`).
        """
        return self._batch_counts(sources)

    def _batch_counts(self, sources: Sequence[Node]) -> List[_BFSResult]:
        """:meth:`batch_bfs` with Algorithm 1's counts for every relation.

        A cached presence result is a miss, and its counts replace it.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        return fetch_batched(
            self._bfs_cache,
            source_list,
            self._compute_csr,
            usable=lambda result: not result.presence,
        )

    def _compute_csr(self, missing: List[Node], presence: bool = False) -> List[_BFSResult]:
        """One :func:`~repro.signed.csr.signed_bfs_dense_batch` over ``missing``
        (nothing cached).

        With ``presence`` the batch may answer whole words with presence
        rows, which come back as presence results.
        """
        from repro.signed.csr import CSRSignedBFSResult, PresenceRows, signed_bfs_dense_batch

        csr = self._graph.csr_view()
        triples = signed_bfs_dense_batch(
            csr,
            [csr.index_of(source) for source in missing],
            skip_overflow=True,
            presence=presence,
        )
        return [
            # None marks an int64 overflow: that source needs
            # arbitrary-precision counts.
            self._exact_result(csr, source)
            if triple is None
            else CSRSignedBFSResult(
                source=source,
                graph=csr,
                lengths_array=triple[0],
                positive_array=triple[1],
                negative_array=triple[2],
                presence=isinstance(triple, PresenceRows),
            )
            for source, triple in zip(missing, triples)
        ]

    def distance_rows(self, sources: Sequence[Node]) -> List[object]:
        """BFS distance maps for ``sources``, read off their signed BFS results.

        Algorithm 1's lengths are plain BFS levels — the values a
        sign-agnostic BFS would compute — so the SP* distance oracle reads
        its rows here instead of traversing again.  A single source resolves
        like a pair query (:meth:`_row`, in-process); longer lists go through
        :meth:`batch_bfs`.  Each row is the result's ``lengths_array``, at
        its narrowest integer type (:func:`~repro.signed.csr.narrow_row`;
        unreachable nodes hold :data:`~repro.signed.csr.UNREACHABLE`),
        behind a :class:`~repro.signed.csr.CSRLengths` view.
        """
        source_list = list(sources)
        if len(source_list) == 1:
            results = [self._row(source_list[0])]
        else:
            results = self.batch_bfs(source_list)
        return [_lengths_row(result) for result in results]

    @property
    def bfs_cache_maxsize(self) -> int:
        """Entry bound of the graph's shared signed-BFS cache."""
        return self._bfs_cache.maxsize

    def _clear_subclass_cache(self) -> None:
        # The caches are the graph's shared ones: this empties them for every
        # SP* relation (and SP* distance oracle) that reads them.
        self._bfs_cache.clear()
        self._degree_cache.clear()

    def _sync_subclass_caches(self) -> None:
        self._bfs_cache.sync()
        self._degree_cache.sync()

    def warm(self, sources: Iterable[Node]) -> None:
        """One multi-source BFS over the uncached ``sources`` (:meth:`batch_bfs`).

        Bounded by the BFS cache size, so a huge seed list cannot churn the
        cache.  The distance oracle's rows are the lengths of those same
        results, so distance queries are warmed too.
        """
        self.batch_bfs(list(dict.fromkeys(sources))[: self._bfs_cache.maxsize])

    def compatible_from_many(
        self, candidates: Iterable[Node], team: Sequence[Node]
    ) -> FrozenSet[Node]:
        """The team filter on the pair-rule masks (see the base class).

        One :meth:`batch_bfs` over the team; each member's planes are read
        at the candidates' dense ids and the pair rule applied to those
        entries alone.  The SP* rules are symmetric in the pair, so the
        member's rule at a candidate *is* the pair query.
        """
        import numpy as np

        team_list = list(team)
        team_set = set(team_list)
        survivors = [candidate for candidate in candidates if candidate not in team_set]
        if not team_list or not survivors:
            return frozenset(survivors)
        csr = self._graph.csr_view()
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
        for result in self.batch_bfs(team_list):
            keep &= self._rule_at(csr, result, ids)
            if not keep.any():
                break
        return frozenset(survivors[position] for position in np.flatnonzero(keep))

    def _compute_compatible_set(self, u: Node) -> Set[Node]:
        result = self._row(u)
        rule_mask = self._pair_rule_mask(result.positive_array, result.negative_array)
        return set(result.compatible_nodes(rule_mask))

    def are_compatible(self, u: Node, v: Node) -> bool:
        # Use the cached BFS directly instead of materialising the whole
        # compatible set when only pair queries are needed.
        self._require_nodes(u, v)
        if u == v:
            return True
        source, target = (u, v) if self._has_row(u) or not self._has_row(v) else (v, u)
        result = self._row(source)
        if target not in result.graph:
            # The cached result survived a mutation elsewhere but predates
            # ``target``'s addition to the graph: a node outside the result's
            # snapshot cannot be in the source's (untouched) component, hence
            # unreachable and incompatible.
            return False
        if not result.reachable(target):
            return False
        return self._holds(result, target)

    def batch_compatible_sets(self, sources: Sequence[Node]) -> List[FrozenSet[Node]]:
        """Compatible sets for many sources from one batched sweep.

        The uncached sources share one multi-source BFS
        (:meth:`batch_bfs`) and the pair rule is applied
        as a vectorised mask (:meth:`_rule_rows`); each returned set equals
        :meth:`compatible_with` exactly and is written into the
        compatible-set cache.  Results are held locally, so samples larger
        than the cache bound still cost one batched pass.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        import numpy as np

        def compute_missing(missing: List[Node]) -> List[FrozenSet[Node]]:
            csr = self._graph.csr_view()
            nodes = csr._nodes
            sets: List[FrozenSet[Node]] = []
            for source, row in zip(missing, self._rule_rows(csr, missing)):
                # Built as compatible_with builds it, so the sets iterate
                # alike: the others in dense-id order, then the source.
                row[csr.index_of(source)] = False
                computed = set(map(nodes.__getitem__, np.flatnonzero(row).tolist()))
                computed.add(source)
                sets.append(frozenset(computed))
            return sets

        return fetch_batched(self._compatible_cache, source_list, compute_missing)

    def _rule_at(self, csr, result: _BFSResult, ids):
        """The pair rule between ``result``'s source and dense ``ids`` of ``csr``.

        The planes are gathered at ``ids`` first, so the rule runs over
        those entries alone.  Unreachable nodes have no positive path and
        fail every rule, while the source's own entry passes.
        """
        positive, negative = result.signed_rows(csr)
        return self._pair_rule_mask(positive[ids], negative[ids])

    def _rule_rows(self, csr, sources: Sequence[Node]) -> Iterator:
        """Each source's pair-rule row over ``csr``'s dense ids.

        One boolean row per source, read off its :meth:`batch_bfs` planes
        (:meth:`~repro.signed.csr.CSRSignedBFSResult.signed_rows`).
        Unreachable nodes have no positive path and fail every rule, while
        the source's own entry (one positive path) passes.
        """
        return (
            self._pair_rule_mask(*result.signed_rows(csr))
            for result in self.batch_bfs(sources)
        )

    def batch_count_compatible(
        self, sources: Sequence[Node], targets: Iterable[Node]
    ) -> List[int]:
        """``|compatible_with(s) ∩ targets|`` per source, counted off the rule masks.

        Each source's :meth:`batch_bfs` planes are
        gathered at the targets' dense ids and the pair rule is applied to
        those entries alone; no node list or set is built.  Unreachable
        targets have no positive path and fail every rule, while the
        source's own entry (one positive path) passes, so a source counts
        itself, as its set does.  Uncached sources go through
        :meth:`batch_bfs`, so their results land in the BFS cache for later
        calls.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        import numpy as np

        csr = self._graph.csr_view()
        index = csr._index
        ids = np.fromiter(
            (index[target] for target in frozenset(targets) if target in index),
            dtype=np.int64,
        )
        unique = list(dict.fromkeys(source_list))
        counts = {}
        for source, result in zip(unique, self.batch_bfs(unique)):
            counts[source] = int(np.count_nonzero(self._rule_at(csr, result, ids)))
        return [counts[source] for source in source_list]

    def dense_partner_rows(self, csr, sources: Sequence[Node], ids):
        """Compatible rows read off the pair-rule masks (:meth:`_rule_rows`;
        see the base class)."""
        import numpy as np

        rows = np.zeros((len(sources), csr.number_of_nodes()), dtype=bool)
        for row, rule_row in enumerate(self._rule_rows(csr, sources)):
            rows[row] = rule_row
        return rows

    def batch_compatibility_degrees(self, sources: Sequence[Node]) -> List[int]:
        """Number of *other* compatible nodes for every source, batched.

        Reads the graph's degree memo of ``(spa, spm, spo)`` triples, where
        ``spm`` may be unknown (``None``).  Misses resolve in this order:

        * a source with cached counts (the shared BFS cache) gets its whole
          triple from them, for every relation, and one with a cached
          presence result its ``spa`` and ``spo``;
        * SPA and SPO only ask whether a positive or negative shortest path
          exists: their remaining misses run the presence planes in-process,
          64 sources a word (:func:`~repro.signed.csr.presence_degrees`) —
          no count row;
        * SPM (an entry without ``spm`` is a miss) counts the rest from
          Algorithm 1 through :meth:`_batch_counts`, which caches the
          results for later pair and distance queries.

        So a sweep over SPA, then SPO runs one presence word per 64
        sources, and SPM's counts then fill the whole triple.  The degrees
        are identical whatever the order of the sweeps.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        slot = self._degree_slot
        triples = fetch_batched(
            self._degree_cache,
            source_list,
            self._degree_triples,
            usable=lambda triple: triple[slot] is not None,
        )
        return [triple[slot] for triple in triples]

    def _degree_triples(self, missing: List[Node]) -> List[DegreeTriple]:
        """Degree triples for the memo's misses (see :meth:`batch_compatibility_degrees`)."""
        triples: List[Optional[DegreeTriple]] = []
        uncounted: List[int] = []
        for position, source in enumerate(missing):
            result = self._bfs_cache.get(source)
            triple = None if result is None else _degree_triple(result)
            if triple is None or triple[self._degree_slot] is None:
                uncounted.append(position)
            triples.append(triple)
        if not uncounted:
            return triples
        if self._presence_decides:
            from repro.signed.csr import presence_degrees

            csr = self._graph.csr_view()
            pairs = presence_degrees(csr, [csr.index_of(missing[at]) for at in uncounted])
            for position, (spa, spo) in zip(uncounted, pairs):
                triples[position] = (spa, None, spo)
        else:
            counted = self._batch_counts([missing[position] for position in uncounted])
            for position, result in zip(uncounted, counted):
                triples[position] = _degree_triple(result)
        return triples

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        raise NotImplementedError

    @staticmethod
    def _pair_rule_mask(positive, negative):
        """Vectorised counterpart of :meth:`_pair_rule` over count arrays."""
        raise NotImplementedError


def _degree_triple(result: _BFSResult) -> DegreeTriple:
    """``(spa, spm, spo)`` degrees of a BFS result's source.

    A presence result holds no counts, so its ``spm`` is unknown (``None``).
    """
    spa, spm, spo = dense_degree_triple(
        result.lengths_array,
        result.positive_array,
        result.negative_array,
        result.graph.index_of(result.source),
    )
    return (spa, None if result.presence else spm, spo)


def dense_degree_triple(lengths, positive, negative, source: int) -> DegreeTriple:
    """``(spa, spm, spo)`` degrees of dense ``source`` from its Algorithm-1 arrays.

    Each count is the relation's pair rule over the reachable nodes other
    than the source — the size of
    :meth:`~repro.signed.csr.CSRSignedBFSResult.compatible_nodes` under it.
    """
    from repro.signed.csr import UNREACHABLE

    others = lengths != UNREACHABLE
    others[source] = False
    return tuple(
        int((relation._pair_rule_mask(positive, negative) & others).sum())
        for relation in SHORTEST_PATH_CHAIN
    )


def _lengths_row(result: _BFSResult) -> object:
    """The distance map inside a signed BFS result."""
    from repro.signed.csr import CSRLengths

    return CSRLengths(result.graph, result.lengths_array)


class AllShortestPathsCompatibility(_ShortestPathRelation):
    """SPA: every shortest path between the pair is positive."""

    name = "SPA"
    _degree_slot = 0

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        return positive > 0 and negative == 0

    @staticmethod
    def _pair_rule_mask(positive, negative):
        return (positive > 0) & (negative == 0)


class MajorityShortestPathsCompatibility(_ShortestPathRelation):
    """SPM: at least as many positive as negative shortest paths."""

    name = "SPM"
    _degree_slot = 1
    _presence_decides = False

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        return positive > 0 and positive >= negative

    @staticmethod
    def _pair_rule_mask(positive, negative):
        return (positive > 0) & (positive >= negative)


class OneShortestPathCompatibility(_ShortestPathRelation):
    """SPO: at least one shortest path between the pair is positive.

    The rule only asks whether a positive shortest path *exists*, so SPO's
    batched misses run the word-parallel presence
    traversal (:meth:`batch_bfs`) and its pair, compatible-set and distance
    queries read those presence results next to Algorithm 1's counts.
    """

    name = "SPO"
    _degree_slot = 2
    _reads_presence = True

    def batch_bfs(self, sources: Sequence[Node]) -> List[_BFSResult]:
        """One result per source: Algorithm 1's counts or positive-path presence.

        A cached result of either kind answers its source.  The misses go
        to ``csr_signed_bfs`` with the ``presence`` param: words of at least
        :data:`~repro.signed.csr.PRESENCE_MIN_SOURCES` sources come back as
        presence results (lengths plus whether some shortest path is
        positive / negative, no counts), smaller words as counts, and both
        land in the shared cache.
        """
        source_list = list(sources)
        self._require_nodes(*source_list)
        return fetch_batched(
            self._bfs_cache,
            source_list,
            lambda missing: self._compute_csr(missing, presence=True),
        )

    def _holds(self, result: _BFSResult, target: Node) -> bool:
        # A presence result holds no counts; one positive shortest path decides.
        return result.has_positive_path(target)

    @staticmethod
    def _pair_rule(positive: int, negative: int) -> bool:
        return positive > 0

    @staticmethod
    def _pair_rule_mask(positive, negative):
        return positive > 0


#: The SP* relations in containment order (SPA ⊆ SPM ⊆ SPO); a degree
#: triple holds their counts in this order (``_degree_slot``).
SHORTEST_PATH_CHAIN = (
    AllShortestPathsCompatibility,
    MajorityShortestPathsCompatibility,
    OneShortestPathCompatibility,
)
