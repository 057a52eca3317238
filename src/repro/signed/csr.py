"""Indexed CSR snapshots of signed graphs and batched array-based BFS.

The dict-of-dicts :class:`~repro.signed.graph.SignedGraph` is ideal for
incremental construction and O(1) single-edge queries, but every per-source
algorithm pays Python-interpreter cost per visited edge.  This module provides
the indexed counterpart, the one execution path of every relation, oracle and
engine query (:mod:`repro.signed.paths` keeps the pure-Python statement of
the same algorithms, the tests' reference):

* :class:`CSRSignedGraph` — an immutable snapshot that maps arbitrary hashable
  node ids to dense integers and stores adjacency as three flat arrays
  (``indptr`` offsets, ``indices`` neighbours, ``signs`` labels) — the classic
  compressed-sparse-row layout;
* :func:`signed_bfs_csr` — Algorithm 1 (positive/negative shortest-path
  counting) as a level-synchronous vectorised BFS over the flat arrays,
  direction-optimising (Beamer et al., SC 2012): a level whose frontier
  holds more adjacency entries than the undiscovered nodes do is run
  bottom-up, each undiscovered node summing its parents' counts over its
  own row, instead of scattering the frontier's entries;
* :func:`shortest_path_lengths_csr` / :func:`shortest_signed_walk_lengths_csr`
  — array versions of the other two single-source primitives (the first
  direction-optimising like :func:`signed_bfs_csr`);
* :func:`multi_source_signed_bfs` — **batched** Algorithm 1: sources run
  word-parallel, 64 per ``uint64`` frontier word, so one adjacency gather per
  BFS level serves a whole word; a batch smaller than
  :data:`WORDPARALLEL_MIN_SOURCES` runs per-source traversals instead;
  with ``presence`` (SPO's request) a word of at least
  :data:`PRESENCE_MIN_SOURCES` sources runs the positive-path *presence*
  traversal, which keeps one bit per sign instead of counts;
* :func:`presence_degrees` — the SPA and SPO compatibility degrees straight
  from that traversal's ``uint64`` planes, 64 sources a word, with no
  ``(k, n)`` row; the presence traversal gathers each level in steps of at
  most :data:`PRESENCE_SLICE_ENTRIES` adjacency entries, so its temporaries
  stay bounded on large graphs;
* :func:`multi_source_shortest_path_lengths_csr` — the batched counterpart for
  sign-agnostic distances, used by the distance oracle's team sweeps;
* :func:`balanced_depths` — both balanced-path searches over a batch of
  sources at once.  SBPH is an
  indexed (node, sign)-state BFS: candidate generation, claimed-state
  filtering and the Harary balance check of every candidate are array
  operations over the whole batch's frontier.  Exact SBP enumerates
  balanced simple paths level by level, each path a pair of bit planes,
  with the expansion cap applied per source by a segmented count.  A
  source's result is two depth rows (positive, negative;
  :data:`UNREACHABLE` where no path was found) plus its truncation flag,
  the one format from the search to the balanced
  relations' caches (wrapped in :class:`CSRLengths`).  Every node's depth
  and the flag equal
  :meth:`~repro.signed.paths.BalancedPathSearch.search_heuristic` and
  :meth:`~repro.signed.paths.BalancedPathSearch.search_exact`.

Results come back as :class:`CSRSignedBFSResult`, an array-backed object that
answers the same ``length`` / ``counts`` / ``reachable`` queries as
:class:`~repro.signed.paths.SignedBFSResult` and can be converted to it
exactly (:meth:`CSRSignedBFSResult.to_signed_bfs_result`), so tests compare
the two by value.  The kernels count paths in ``int64`` — exact up to
2**63-1, which covers every graph in this repository; a source of a graph
engineered to have astronomically many shortest paths (e.g. a large grid)
trips the kernels' guard, is answered by
:func:`repro.signed.paths.signed_bfs` and comes back as exact ``object``
rows (:meth:`CSRSignedBFSResult.from_signed_bfs_result`).  Every other row
a result keeps — lengths, counts, balanced depths — is copied out of its
kernel buffer at the narrowest signed integer type that holds it
(:func:`narrow_row`): ``int8`` for the depths of a low-diameter graph.

Everything here is deterministic: the dense ids follow the insertion order of
the source graph, and the BFS visits neighbours in adjacency order, so the
outputs are bit-identical to the dict implementations (the equivalence tests
in ``tests/test_csr.py`` enforce this).

The level-synchronous traversal pays a fixed cost of ~20 array operations per
BFS level, so it targets the low-diameter graphs this library is about
(social networks, diameter < 20); on path-like graphs with diameter ~n the
pure-Python BFS of :mod:`repro.signed.paths` is faster per source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import NodeNotFoundError
from repro.signed.graph import Node, Sign, SignedGraph
from repro.signed.paths import (
    DEFAULT_MAX_EXPANSIONS,
    INFINITY,
    SignedBFSResult,
)
from repro.utils.bitset import (
    WORD_BITS,
    bit_counts,
    set_bit_positions,
    source_bits,
    word_bit_columns,
    words_for,
)

#: Sentinel used in length arrays for unreachable nodes.
UNREACHABLE = -1

#: Smallest word of sources the multi-source kernels run word-parallel.
#: Word-parallel BFS advances up to 64 sources through ONE adjacency gather
#: per level: frontier/visited state lives in per-node ``uint64`` words (bit
#: b = "source b is here"), so in a low-diameter graph — where nearby
#: sources' frontiers overlap heavily after a couple of levels — the union
#: frontier is far smaller than the sum of per-source frontiers.  A small
#: batch has little union to exploit, and the direction-optimising
#: per-source kernels skip most of the late levels' entries instead.  On the
#: 2308-node epinions stand-in signed BFS ties at 9 sources and runs faster
#: word-parallel from 10, while path lengths already cross at 8; at 100k
#: nodes per-source wins for both at 8-10 sources.  No one value suits both
#: kernels at every size.  The constant is the signed crossover: the team and
#: statistics workloads send batches of 8-10 sources only to signed BFS
#: (their path lengths run one source at a time).
WORDPARALLEL_MIN_SOURCES = 9

#: Smallest word of sources a presence request runs through
#: :func:`_wordparallel_presence_into` (smaller words keep Algorithm 1's
#: counts).  Presence advances every source of a word with the same array
#: operations, where the counting kernels pay per source.  Per word, best
#: of repeated runs on a 2-core Xeon VM, presence vs counts: on the
#: 2308-node epinions stand-in 2 sources tie (1.6-2.0 vs 1.4-2.0 ms),
#: 3 sources 1.6-2.2 vs 2.5-2.6 ms, 4 sources 2.7-2.9 vs 3.2-3.9 ms and
#: 64 sources 6-7.4 vs 37-43 ms.  At 100k nodes (the ``million`` stand-in
#: at scale 0.1) presence loses at 2 sources (60-92 vs 56-66 ms) and 3
#: (97-119 vs 87-112 ms), ties at 4 (117-130 vs 115-136 ms) and wins at 8
#: (159-188 vs 216-263 ms).  4 is no slower at either size; the streaming
#: workload ran equally fast end to end with 3 or 4.
PRESENCE_MIN_SOURCES = 4

#: Most adjacency entries one push or pull step of the presence traversal
#: gathers at once (plus one long row, see :func:`_entry_spans`); a larger
#: level runs as several steps.  Each gathered entry costs about 50 bytes
#: of temporaries (positions, neighbour ids, sign masks, both planes read
#: and swapped).  A 64-source :func:`presence_degrees` sweep over the
#: 100k-node ``million`` stand-in (scale 0.1, 2.0M entries), best of 5 on a
#: 2-core Xeon VM, by step size: unsliced 180 ms with 117 MB of traced
#: allocations at peak (+52 MB process RSS), 2**20 142 ms / 70 MB,
#: 2**18 141 ms / 26 MB (+0 MB RSS), 2**16 145 ms / 15 MB, 2**14 158 ms /
#: 14 MB.  Graphs up to the 2308-node epinions stand-in run every level in
#: one step.
PRESENCE_SLICE_ENTRIES = 2**18


class CSRSignedGraph:
    """An immutable compressed-sparse-row snapshot of a signed graph.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the neighbours of dense node ``i``
        live in ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int32`` array of neighbour dense ids (both directions of every
        undirected edge are stored, like the adjacency dict).
    signs:
        ``int8`` array parallel to ``indices`` holding the edge labels.
    """

    __slots__ = ("indptr", "indices", "signs", "generation", "_nodes", "_index")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        signs: np.ndarray,
        nodes: List[Node],
        index: Optional[Dict[Node, int]] = None,
        generation: int = 0,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.signs = signs
        #: The :attr:`SignedGraph.generation` this snapshot was taken at
        #: (``0`` for snapshots built outside the graph's cache).
        self.generation = generation
        self._nodes = nodes
        # A pre-built index may be shared across snapshots of the same node
        # set (delta maintenance); both are treated as immutable.
        self._index: Dict[Node, int] = (
            index if index is not None else {node: i for i, node in enumerate(nodes)}
        )

    # ------------------------------------------------------------------ build

    @classmethod
    def from_signed_graph(cls, graph: SignedGraph) -> "CSRSignedGraph":
        """Snapshot ``graph`` into CSR form (dense ids follow node insertion order)."""
        nodes = graph.nodes()
        index = {node: i for i, node in enumerate(nodes)}
        num_nodes = len(nodes)
        adjacency = graph._adjacency
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        for node, i in index.items():
            indptr[i + 1] = len(adjacency[node])
        np.cumsum(indptr, out=indptr)
        num_entries = int(indptr[-1])
        indices = np.empty(num_entries, dtype=np.int32)
        signs = np.empty(num_entries, dtype=np.int8)
        position = 0
        for node in nodes:
            for neighbor, sign in adjacency[node].items():
                indices[position] = index[neighbor]
                signs[position] = sign
                position += 1
        return cls(
            indptr, indices, signs, nodes, index=index, generation=graph.generation
        )

    @classmethod
    def apply_delta(
        cls, base: "CSRSignedGraph", graph: SignedGraph, delta
    ) -> "CSRSignedGraph":
        """New snapshot of ``graph`` built by patching ``base`` with ``delta``.

        Only the adjacency rows of nodes the delta touches are rebuilt (in
        Python, from the graph's adjacency dicts — the source of truth for
        neighbour order); every other row is copied from ``base`` with one
        vectorised gather.  The result is **bit-identical** to
        :meth:`from_signed_graph` on the mutated graph: same node order, same
        per-row neighbour order, same dtypes (the dynamic-graph equivalence
        suite asserts this for arbitrary mutation interleavings).

        When the node set is unchanged the new snapshot *shares* the node
        list and index objects of ``base`` (both are immutable), which is what
        lets per-source results cached against ``base`` remain dense-id
        compatible with the new snapshot (:meth:`shares_index_with`).  Node
        additions extend a copy of the index; node removals trigger a full
        dense-id remap of the copied rows.
        """
        adjacency = graph._adjacency
        touched = delta.touched_nodes()
        old_nodes = base._nodes
        old_degrees = np.diff(base.indptr)
        if not delta.has_node_changes:
            nodes = old_nodes
            index = base._index
            remap = None
            back: Optional[np.ndarray] = None
            degrees = old_degrees.copy()
        elif not delta.nodes_removed:
            # Pure additions append to the node order; extend a copy of the
            # index (cheap C-level dict copy) and keep existing dense ids.
            nodes = list(adjacency)
            index = dict(base._index)
            for position in range(len(old_nodes), len(nodes)):
                index[nodes[position]] = position
            remap = None
            back = None
            degrees = np.zeros(len(nodes), dtype=np.int64)
            degrees[: len(old_nodes)] = old_degrees
        else:
            # Removals shift dense ids: rebuild the order from the graph and
            # remap every copied row's neighbour ids.
            nodes = list(adjacency)
            index = {node: i for i, node in enumerate(nodes)}
            remap = np.full(len(old_nodes), -1, dtype=np.int64)
            for old_id, node in enumerate(old_nodes):
                new_id = index.get(node)
                if new_id is not None:
                    remap[old_id] = new_id
            back = np.full(len(nodes), -1, dtype=np.int64)
            kept = np.flatnonzero(remap >= 0)
            back[remap[kept]] = kept
            degrees = np.where(back >= 0, old_degrees[np.maximum(back, 0)], 0)
        num_nodes = len(nodes)
        touched_ids = sorted(index[node] for node in touched if node in index)
        for dense in touched_ids:
            degrees[dense] = len(adjacency[nodes[dense]])
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        indptr[1:] = degrees
        np.cumsum(indptr, out=indptr)
        num_entries = int(indptr[-1])
        indices = np.empty(num_entries, dtype=np.int32)
        signs = np.empty(num_entries, dtype=np.int8)
        # Untouched rows: one vectorised slice-to-slice copy for all of them.
        untouched = np.ones(num_nodes, dtype=bool)
        if touched_ids:
            untouched[touched_ids] = False
        rows = np.flatnonzero(untouched)
        if rows.size:
            old_rows = rows if back is None else back[rows]
            counts = degrees[rows]
            total = int(counts.sum())
            if total:
                src_starts = base.indptr[old_rows]
                dst_starts = indptr[rows]
                shifts = np.concatenate(([0], np.cumsum(counts)[:-1]))
                steps = np.arange(total)
                src = np.repeat(src_starts - shifts, counts) + steps
                dst = np.repeat(dst_starts - shifts, counts) + steps
                values = base.indices[src]
                if remap is not None:
                    values = remap[values]
                indices[dst] = values
                signs[dst] = base.signs[src]
        # Touched rows: rebuilt from the adjacency dicts, preserving order.
        for dense in touched_ids:
            position = int(indptr[dense])
            for neighbor, sign in adjacency[nodes[dense]].items():
                indices[position] = index[neighbor]
                signs[position] = sign
                position += 1
        return cls(
            indptr, indices, signs, nodes, index=index, generation=graph.generation
        )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node, Sign]],
        nodes: Optional[Iterable[Node]] = None,
    ) -> "CSRSignedGraph":
        """Build from ``(u, v, sign)`` triples, via an intermediate :class:`SignedGraph`."""
        return cls.from_signed_graph(SignedGraph.from_edges(edges, nodes=nodes))

    # ------------------------------------------------------------------ persist

    def save(self, path: str) -> str:
        """Persist this snapshot to ``path`` in the store format.

        Atomic (temp file + ``os.replace``); see :mod:`repro.signed.store`
        for the layout.  Returns ``path``.
        """
        from repro.signed.store import save_snapshot

        return save_snapshot(self, path)

    @classmethod
    def load(cls, path: str, mmap: bool = True) -> "CSRSignedGraph":
        """Load a snapshot previously written by :meth:`save`.

        With ``mmap=True`` the planes are read-only :class:`numpy.memmap`
        views — cold start is the cost of mapping the file, not of parsing
        an edge list.  Bit-identical to the saved snapshot either way.
        """
        from repro.signed.store import load_snapshot

        return load_snapshot(path, mmap=mmap)

    def to_signed_graph(self) -> SignedGraph:
        """Rebuild the mutable dict-backend graph this snapshot describes.

        The inverse of :meth:`from_signed_graph`, exactly: node insertion
        order follows dense-id order and each adjacency dict is filled in
        CSR row order, so ``CSRSignedGraph.from_signed_graph(csr.to_signed_graph())``
        reproduces ``indptr``/``indices``/``signs`` bit for bit.  This is what
        lets the dataset loaders round-trip parsed graphs through the
        snapshot store without perturbing any downstream result.
        """
        graph = SignedGraph()
        nodes = self._nodes
        # (neighbour, sign) entries in CSR order; each row takes the next
        # ``degree`` of them.  Rows are filled directly (same discipline as
        # SignedGraph.copy): the public add_edge would insert each neighbour
        # at edge-addition order, not CSR row order, and the roundtrip would
        # stop being exact.
        entries = zip(map(nodes.__getitem__, self.indices.tolist()), self.signs.tolist())
        adjacency = graph._adjacency
        for node, degree in zip(nodes, self.degrees().tolist()):
            adjacency[node] = dict(islice(entries, degree))
        graph._num_edges = len(self.indices) // 2
        graph._num_positive = int(np.count_nonzero(self.signs > 0)) // 2
        return graph

    # ------------------------------------------------------------------ query

    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self._nodes)

    def number_of_edges(self) -> int:
        """Return ``|E|`` (each undirected edge counted once)."""
        return len(self.indices) // 2

    def nodes(self) -> List[Node]:
        """The original node objects, in dense-id order (a fresh list, like
        :meth:`SignedGraph.nodes`, so callers may mutate it freely)."""
        return list(self._nodes)

    def node_at(self, dense_id: int) -> Node:
        """The original node object for ``dense_id``."""
        return self._nodes[dense_id]

    def index_of(self, node: Node) -> int:
        """The dense id of ``node``; raises :class:`NodeNotFoundError` if absent."""
        try:
            return self._index[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def __contains__(self, node: Node) -> bool:
        return node in self._index

    def shares_index_with(self, other: "CSRSignedGraph") -> bool:
        """True iff ``other`` uses the *same* dense-id mapping as this snapshot.

        Snapshots produced by delta maintenance (and full rebuilds of an
        unchanged node set) share the node-list object, so dense arrays
        computed against one remain valid against the other.  The check is an
        identity test — O(1), never a node-by-node comparison.
        """
        return self._nodes is other._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def degrees(self) -> np.ndarray:
        """Array of node degrees, indexed by dense id."""
        return np.diff(self.indptr)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(u, v, sign)`` dense-id arrays, one entry per undirected edge.

        Order is first row-major appearance in the planes: the entry for
        ``{u, v}`` sits in the row of the smaller dense id (the other
        direction lives in a later row), in row order.  Because CSR row order
        is dict insertion order, this is exactly the order
        :meth:`SignedGraph.edges` enumerates the same graph in — the contract
        the streaming churn sampler relies on to stay bit-compatible across
        backends.
        """
        row = np.repeat(
            np.arange(len(self._nodes), dtype=np.int64), np.diff(self.indptr)
        )
        keep = row < self.indices
        return row[keep], self.indices[keep].astype(np.int64), self.signs[keep]

    def __repr__(self) -> str:
        return (
            f"CSRSignedGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()})"
        )


@dataclass(eq=False)
class CSRSignedBFSResult:
    """Array-backed output of :func:`signed_bfs_csr` (Algorithm 1).

    ``lengths[i]`` is the BFS distance from the source to dense node ``i``
    (:data:`UNREACHABLE` when there is none); ``positive_counts`` /
    ``negative_counts`` hold the signed shortest-path counts.  The query
    methods accept the original node objects, so the object is a drop-in for
    :class:`~repro.signed.paths.SignedBFSResult` in pairwise code.  Equality
    is identity (``eq=False``): value comparison of array fields is ambiguous;
    convert via :meth:`to_signed_bfs_result` to compare results by value.

    A *presence* result (``presence=True``, from
    :func:`_wordparallel_presence_into`) holds the same lengths, but its two
    planes only say whether *some* shortest path is positive / negative
    (boolean, or 0/1).  Its :meth:`counts` and :meth:`to_signed_bfs_result`
    raise :class:`ValueError`; every other query answers as usual.

    Each row is held at the narrowest signed integer type that holds it
    (:func:`narrow_row`): the lengths mostly as ``int8``, each count plane
    by its own maximum, so one result costs far less than the kernels'
    ``int32`` lengths plus two ``int64`` planes (20 bytes per node), which
    stay the widest it can take.  A source whose counts overflow ``int64``
    is the exception: the SP* relations answer it with
    :func:`~repro.signed.paths.signed_bfs` and lay its result onto ``object``
    planes of Python ints (:meth:`from_signed_bfs_result`), so every SP*
    result has this one format.  The query methods return Python ints;
    array readers compare planes or copy them into wider blocks.
    """

    source: Node
    graph: CSRSignedGraph
    lengths_array: np.ndarray
    positive_array: np.ndarray
    negative_array: np.ndarray
    presence: bool = False

    def _require_counts(self) -> None:
        if self.presence:
            raise ValueError(
                "a presence result records whether positive/negative shortest "
                "paths exist, not how many; run Algorithm 1 for counts"
            )

    def length(self, node: Node) -> float:
        """Shortest-path length to ``node`` (``inf`` if unreachable)."""
        value = self.lengths_array[self.graph.index_of(node)]
        return INFINITY if value == UNREACHABLE else int(value)

    def counts(self, node: Node) -> Tuple[int, int]:
        """Return ``(positive, negative)`` shortest-path counts for ``node``."""
        self._require_counts()
        dense = self.graph.index_of(node)
        return (int(self.positive_array[dense]), int(self.negative_array[dense]))

    def has_positive_path(self, node: Node) -> bool:
        """True iff some shortest path from the source to ``node`` is positive."""
        return bool(self.positive_array[self.graph.index_of(node)])

    def reachable(self, node: Node) -> bool:
        """True iff ``node`` is reachable from the source."""
        return self.lengths_array[self.graph.index_of(node)] != UNREACHABLE

    def reachable_count(self) -> int:
        """Number of reachable nodes (including the source)."""
        return int((self.lengths_array != UNREACHABLE).sum())

    def signed_rows(self, csr: CSRSignedGraph) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(positive, negative)`` planes over ``csr``'s dense ids.

        The planes themselves when ``csr`` shares this result's dense ids;
        a result cached on a snapshot with another node set is remapped
        (:func:`row_in`), zero where that snapshot has no node.
        """
        return (
            row_in(self.graph, self.positive_array, csr, 0),
            row_in(self.graph, self.negative_array, csr, 0),
        )

    def compatible_nodes(self, rule_mask: np.ndarray) -> List[Node]:
        """The non-source node objects selected by ``rule_mask`` (reachable only)."""
        mask = rule_mask & (self.lengths_array != UNREACHABLE)
        mask[self.graph.index_of(self.source)] = False
        nodes = self.graph._nodes
        return [nodes[i] for i in np.flatnonzero(mask)]

    @classmethod
    def from_signed_bfs_result(
        cls, result: SignedBFSResult, csr: CSRSignedGraph
    ) -> "CSRSignedBFSResult":
        """Lay a dict result onto ``csr``'s dense rows: the inverse of
        :meth:`to_signed_bfs_result`.

        The counts are ``object`` arrays of Python ints, so a source whose
        counts overflow ``int64`` keeps them exact; unreachable nodes hold
        :data:`UNREACHABLE` and zero counts, as in the kernels' rows.
        """
        num_nodes = csr.number_of_nodes()
        lengths = np.full(num_nodes, UNREACHABLE, dtype=np.int32)
        positive = np.zeros(num_nodes, dtype=object)
        negative = np.zeros(num_nodes, dtype=object)
        for node, length in result.lengths.items():
            dense = csr.index_of(node)
            lengths[dense] = length
            positive[dense], negative[dense] = result.counts(node)
        return cls(result.source, csr, narrow_row(lengths), positive, negative)

    def to_signed_bfs_result(self) -> SignedBFSResult:
        """Convert to the dict-backed :class:`SignedBFSResult`, bit for bit.

        Reachable nodes appear in BFS-discovery-compatible order (by level,
        then dense id); counts and lengths are identical to what
        :func:`~repro.signed.paths.signed_bfs` produces on the same graph.
        """
        self._require_counts()
        nodes = self.graph._nodes
        reachable = np.flatnonzero(self.lengths_array != UNREACHABLE)
        order = reachable[np.argsort(self.lengths_array[reachable], kind="stable")]
        lengths: Dict[Node, int] = {}
        positive: Dict[Node, int] = {}
        negative: Dict[Node, int] = {}
        for dense in order:
            node = nodes[dense]
            lengths[node] = int(self.lengths_array[dense])
            positive[node] = int(self.positive_array[dense])
            negative[node] = int(self.negative_array[dense])
        return SignedBFSResult(
            source=self.source,
            positive_counts=positive,
            negative_counts=negative,
            lengths=lengths,
        )


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, ascending: ``np.unique``'s output.

    One sort and a neighbour mask.  numpy 2's ``np.unique`` hashes integer
    arrays instead, which on a 2-core Xeon VM takes 58 µs for 500 ids
    against 8 µs here, and 339 µs for 3000 ids against 36 µs.
    """
    ordered = np.sort(values)
    if ordered.size > 1:
        distinct = np.empty(ordered.size, dtype=bool)
        distinct[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
        ordered = ordered[distinct]
    return ordered


def _first_occurrences(values: np.ndarray) -> np.ndarray:
    """Where each distinct entry of ``values`` first occurs, by ascending entry.

    ``np.unique(values, return_index=True)[1]``, from one stable sort and
    the neighbour mask of :func:`_sorted_unique`: the stable sort keeps
    equal entries in input order, so each run starts at its first
    occurrence.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    heads = np.empty(ordered.size, dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    return order[heads]


def _entry_spans(node_degrees: np.ndarray, limit: int) -> List[int]:
    """Cut points splitting consecutive nodes into runs of about ``limit`` entries.

    ``node_degrees`` are the adjacency row lengths of a node list.  The
    returned positions start at 0 and end at ``node_degrees.size``; the
    nodes between two neighbouring cuts hold at most ``limit`` entries
    besides the first node's row, so a row longer than ``limit`` is never
    split but runs alone or first.  One span when everything fits.
    """
    ends = np.cumsum(node_degrees)
    total = int(ends[-1]) if ends.size else 0
    if total <= limit:
        return [0, node_degrees.size]
    cuts = np.searchsorted(ends, np.arange(limit, total, limit), side="right")
    return _sorted_unique(np.concatenate(([0], cuts, [node_degrees.size]))).tolist()


def _next_frontier(
    new_states: np.ndarray, state_array: np.ndarray, next_depth: int
) -> np.ndarray:
    """Deduplicated frontier for the next BFS level.

    ``new_states`` holds the states discovered this level, possibly with
    duplicates.  For small levels a sort and a neighbour mask
    (:func:`_sorted_unique`) is cheapest; for large levels a linear scan of
    the state array beats sorting — without the scan fallback a
    low-diameter graph pays O(k log k) on huge levels, and without the sort
    fast path a path-like graph pays O(n · diameter) in full-array scans.
    """
    if new_states.size * 16 < state_array.size:
        return _sorted_unique(new_states)
    return np.flatnonzero(state_array == next_depth)


def _adjacency_positions(
    csr: CSRSignedGraph, nodes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat ``indices``/``signs`` positions of the rows of ``nodes``, concatenated.

    Returns ``(positions, counts, row_starts)``: the ``counts[i]`` entries of
    ``nodes[i]``'s row sit at ``positions[row_starts[i]:][:counts[i]]``.
    Fully vectorised: the concatenated ranges are materialised with the
    repeat/cumsum offset trick instead of a Python loop over the rows.
    """
    starts = csr.indptr[nodes]
    counts = csr.indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    row_starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    positions = np.repeat(starts - row_starts, counts) + np.arange(total)
    return positions, counts, row_starts


def _concatenated_neighbor_ranges(
    csr: CSRSignedGraph, frontier: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gather the adjacency slices of every frontier node into flat arrays.

    Returns ``(targets, signs, sources, counts)`` where ``sources[k]`` is the
    frontier node whose adjacency produced ``targets[k]`` and ``counts[i]`` is
    the degree of ``frontier[i]`` (so callers can repeat per-frontier data
    without regathering the offsets).
    """
    positions, counts, _row_starts = _adjacency_positions(csr, frontier)
    return (
        csr.indices[positions],
        csr.signs[positions],
        np.repeat(frontier, counts),
        counts,
    )


def negative_entries(
    csr: CSRSignedGraph, source_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every negative edge at the dense ``source_ids``, as ``(rows, targets)``.

    ``rows[e]`` is the position in ``source_ids`` of the edge's source and
    ``targets[e]`` the dense id of its other end, so
    ``mask[rows, targets] = False`` clears each source's enemies from a
    ``(len(source_ids), n)`` mask in one assignment.
    """
    targets, signs, _sources, counts = _concatenated_neighbor_ranges(csr, source_ids)
    negative = signs < 0
    rows = np.repeat(np.arange(source_ids.size), counts)
    return rows[negative], targets[negative]


def component_members(csr: CSRSignedGraph, source_ids: np.ndarray) -> np.ndarray:
    """Ascending dense ids of every node in the components of ``source_ids``.

    One frontier expansion from all the sources at once, so the work is
    bounded by those components' edges, not by the whole snapshot.
    """
    reached = np.zeros(csr.number_of_nodes(), dtype=bool)
    frontier = _sorted_unique(source_ids)
    reached[frontier] = True
    while frontier.size:
        targets = csr.indices[_adjacency_positions(csr, frontier)[0]]
        frontier = _sorted_unique(targets[~reached[targets]])
        reached[frontier] = True
    return np.flatnonzero(reached)


def _unvisited_with_edges(
    lengths: np.ndarray, degrees: np.ndarray, previous: Optional[np.ndarray]
) -> np.ndarray:
    """Ascending ids of the undiscovered nodes of non-zero degree.

    A pull level scans exactly these rows.  ``previous`` is the set a
    previous pull level left behind (or ``None`` before the first one):
    filtering it drops the nodes push levels discovered since, without
    another full-array scan.
    """
    if previous is None:
        return np.flatnonzero((lengths == UNREACHABLE) & (degrees > 0))
    return previous[lengths[previous] == UNREACHABLE]


def _signed_pull_level(
    csr: CSRSignedGraph,
    frontier: np.ndarray,
    unvisited: np.ndarray,
    lengths: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    depth: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """One bottom-up level of Algorithm 1; returns ``(joined, still_unvisited)``.

    Every node of ``unvisited`` (undiscovered, non-zero degree) reads its own
    adjacency row: it joins level ``depth + 1`` iff a neighbour sits in
    ``frontier`` (level ``depth``), and its counts are the sums over its row
    of those parents' counts, swapped across negative edges — one
    ``np.add.reduceat`` per sign over the contiguous rows, no scatter.
    Integer sums are exact, so the counts equal the push scatter's bit for
    bit.
    """
    positions, _counts, row_starts = _adjacency_positions(csr, unvisited)
    # Entry 2v holds frontier node v's positive count, 2v + 1 its negative
    # count; every other node reads as zero, so only parents contribute.
    parent_counts = np.zeros(2 * lengths.size, dtype=np.int64)
    parent_counts[2 * frontier] = positive[frontier]
    parent_counts[2 * frontier + 1] = negative[frontier]
    # A positive path to the row's node continues a positive path to the
    # parent across a positive edge and a negative one across a negative
    # edge: entry 2v + (sign < 0).  Flipping the low bit gives the negative
    # paths.
    reads = csr.indices[positions].astype(np.int64)
    reads *= 2
    reads += csr.signs[positions] < 0
    positive_sums = np.add.reduceat(parent_counts[reads], row_starts)
    reads ^= 1
    negative_sums = np.add.reduceat(parent_counts[reads], row_starts)
    # Every discovered node has at least one shortest path, so a row holds a
    # parent iff one of its sums is non-zero.
    joins = (positive_sums > 0) | (negative_sums > 0)
    joined = unvisited[joins]
    lengths[joined] = depth + 1
    positive[joined] = positive_sums[joins]
    negative[joined] = negative_sums[joins]
    return joined, unvisited[~joins]


def _pull_level(
    csr: CSRSignedGraph, unvisited: np.ndarray, lengths: np.ndarray, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """One bottom-up level of the sign-agnostic BFS; returns ``(joined, still_unvisited)``.

    A node of ``unvisited`` joins level ``depth + 1`` iff its adjacency row
    holds a neighbour at ``depth`` (one ``np.logical_or.reduceat``).
    """
    positions, _counts, row_starts = _adjacency_positions(csr, unvisited)
    joins = np.logical_or.reduceat(
        lengths[csr.indices[positions]] == depth, row_starts
    )
    joined = unvisited[joins]
    lengths[joined] = depth + 1
    return joined, unvisited[~joins]


def _signed_bfs_arrays(
    csr: CSRSignedGraph, source_id: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense core of :func:`signed_bfs_csr`: arrays in, arrays out.

    Takes a *dense* source id and touches only the snapshot's flat arrays,
    never the node list or index.  Returns ``(lengths, positive,
    negative)``.
    """
    num_nodes = csr.number_of_nodes()
    lengths = np.empty(num_nodes, dtype=np.int32)
    positive = np.empty(num_nodes, dtype=np.int64)
    negative = np.empty(num_nodes, dtype=np.int64)
    _signed_bfs_arrays_into(csr, source_id, lengths, positive, negative)
    return lengths, positive, negative


def _signed_bfs_arrays_into(
    csr: CSRSignedGraph,
    source_id: int,
    lengths: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
) -> None:
    """Run Algorithm 1 *into* caller-provided arrays (initialised here).

    The write-into-buffer variant behind the batch cores: the caller hands
    this function rows of its own ``(k, n)`` block, so the traversal's
    working arrays *are* the result rows.  The arrays must be ``n``-long
    with the dtypes of :func:`_signed_bfs_arrays`; previous contents are
    overwritten.
    Raises :class:`OverflowError` under the same per-level int64 guard (the
    arrays then hold partial state the caller must discard).

    ``remaining`` is the degree sum of the still-undiscovered nodes.  A level
    runs push (scatter the frontier's entries) while the frontier's degree
    sum is at most ``remaining``, and pull (:func:`_signed_pull_level`)
    otherwise; once ``remaining`` is zero nothing reachable is left.
    """
    num_nodes = csr.number_of_nodes()
    degrees = csr.degrees()
    max_degree = int(degrees.max()) if num_nodes else 0
    count_guard = (2**63 - 1) // max(1, max_degree)
    lengths.fill(UNREACHABLE)
    positive.fill(0)
    negative.fill(0)
    lengths[source_id] = 0
    positive[source_id] = 1
    frontier = np.array([source_id], dtype=np.int64)
    frontier_edges = int(degrees[source_id])
    remaining = int(csr.indptr[-1]) - frontier_edges
    unvisited: Optional[np.ndarray] = None
    depth = 0
    while frontier_edges and remaining:
        if frontier_edges > remaining:
            unvisited = _unvisited_with_edges(lengths, degrees, unvisited)
            frontier, unvisited = _signed_pull_level(
                csr, frontier, unvisited, lengths, positive, negative, depth
            )
        else:
            targets, edge_signs, origins, _counts = _concatenated_neighbor_ranges(
                csr, frontier
            )
            # Edges u -> x with L(x) == L(u) + 1 carry shortest-path counts.
            # At gather time every length is still <= depth or UNREACHABLE
            # (level depth + 1 is assigned just below), so those edges are
            # exactly the ones whose target was undiscovered — including
            # repeat occurrences of the same target within this level, which
            # all contribute counts.
            undiscovered = lengths[targets] == UNREACHABLE
            targets = targets[undiscovered]
            lengths[targets] = depth + 1
            edge_signs = edge_signs[undiscovered]
            origins = origins[undiscovered]
            positive_edges = edge_signs > 0
            pos_contrib = np.where(positive_edges, positive[origins], negative[origins])
            neg_contrib = np.where(positive_edges, negative[origins], positive[origins])
            np.add.at(positive, targets, pos_contrib)
            np.add.at(negative, targets, neg_contrib)
            frontier = _next_frontier(targets, lengths, depth + 1)
        depth += 1
        if frontier.size and (
            int(positive[frontier].max()) > count_guard
            or int(negative[frontier].max()) > count_guard
        ):
            raise OverflowError(
                "signed shortest-path counts exceed the int64 safety bound "
                f"({count_guard}) at BFS depth {depth}; use the "
                "arbitrary-precision repro.signed.paths.signed_bfs for this graph"
            )
        frontier_edges = int(degrees[frontier].sum())
        remaining -= frontier_edges


def signed_bfs_csr(csr: CSRSignedGraph, source: Node) -> CSRSignedBFSResult:
    """Algorithm 1 on a CSR snapshot: signed shortest-path counting.

    A level-synchronous, direction-optimising BFS.  A *push* level gathers
    the concatenated adjacency of the whole frontier, discovers the next
    level, and scatters the signed count contributions with ``np.add.at``
    (positive edges preserve the counts, negative edges swap them).  Once the
    frontier's degree sum exceeds that of the undiscovered nodes, a *pull*
    level gathers the undiscovered nodes' rows instead: a node joins the next
    level iff a neighbour sits in the frontier, and its counts are
    ``np.add.reduceat`` sums over its row.  On a low-diameter graph the last
    two levels hold most adjacency entries and land almost entirely on
    discovered nodes, so pulling them scans a fraction of the entries.
    Either way the full traversal is O(|V| + |E|) with constant factors one
    to two orders of magnitude below the dict BFS, and the integer sums make
    the result independent of the direction chosen.

    Counts are ``int64`` in the traversal, and the result's rows are copied
    out at their narrowest type (:func:`dense_row_result`), as the batched
    rows are.  A guard after every level, push or pull, raises
    :class:`OverflowError` *before* any count can wrap: as long as every
    count entering a level is at most ``(2**63 - 1) / max_degree``, no
    node's sum — at most ``max_degree`` non-negative terms, whether scattered
    or reduced over its row — can exceed ``int64`` during that level, so the
    check catches the overflow while all values are still exact.  Callers
    that hit the guard should fall back to the arbitrary-precision integers
    of :func:`repro.signed.paths.signed_bfs` — the relations do this
    automatically.
    """
    lengths, positive, negative = dense_row_result(
        True, *_signed_bfs_arrays(csr, csr.index_of(source))
    )
    return CSRSignedBFSResult(
        source=source,
        graph=csr,
        lengths_array=lengths,
        positive_array=positive,
        negative_array=negative,
    )


def _shortest_path_lengths_array(csr: CSRSignedGraph, source_id: int) -> np.ndarray:
    """Dense core of :func:`shortest_path_lengths_csr` (dense id in, array out)."""
    lengths = np.empty(csr.number_of_nodes(), dtype=np.int32)
    _shortest_path_lengths_array_into(csr, source_id, lengths)
    return lengths


def _shortest_path_lengths_array_into(
    csr: CSRSignedGraph, source_id: int, lengths: np.ndarray
) -> None:
    """Sign-agnostic BFS *into* a caller-provided ``int32`` array.

    The write-into-buffer variant behind the batch cores: the array may be a
    row of the caller's ``(k, n)`` block, which then holds the finished
    distance map.  Previous contents are overwritten.
    Direction-optimising with the rule of :func:`_signed_bfs_arrays_into`:
    push while the frontier's degree sum is at most that of the undiscovered
    nodes, pull (:func:`_pull_level`) otherwise.
    """
    degrees = csr.degrees()
    lengths.fill(UNREACHABLE)
    lengths[source_id] = 0
    frontier = np.array([source_id], dtype=np.int64)
    frontier_edges = int(degrees[source_id])
    remaining = int(csr.indptr[-1]) - frontier_edges
    unvisited: Optional[np.ndarray] = None
    depth = 0
    while frontier_edges and remaining:
        if frontier_edges > remaining:
            unvisited = _unvisited_with_edges(lengths, degrees, unvisited)
            frontier, unvisited = _pull_level(csr, unvisited, lengths, depth)
        else:
            targets, _, _, _ = _concatenated_neighbor_ranges(csr, frontier)
            undiscovered = targets[lengths[targets] == UNREACHABLE]
            lengths[undiscovered] = depth + 1
            frontier = _next_frontier(undiscovered, lengths, depth + 1)
        depth += 1
        frontier_edges = int(degrees[frontier].sum())
        remaining -= frontier_edges


def shortest_path_lengths_csr(csr: CSRSignedGraph, source: Node) -> np.ndarray:
    """Sign-agnostic BFS distances from ``source`` as a dense array.

    Unreachable nodes hold :data:`UNREACHABLE`; the row comes at the
    narrowest type that holds it (:func:`narrow_row`), as the batched
    :func:`shortest_path_lengths_dense_batch` rows do.  Wrap with
    :class:`CSRLengths` for a dict-like view keyed by original node objects.
    """
    return narrow_row(_shortest_path_lengths_array(csr, csr.index_of(source)))


def shortest_signed_walk_lengths_csr(
    csr: CSRSignedGraph, source: Node
) -> Tuple[np.ndarray, np.ndarray]:
    """Shortest positive / negative *walk* lengths on the signed double cover.

    Array version of
    :func:`~repro.signed.paths.shortest_signed_walk_lengths`: each node is
    duplicated into a positive-parity and a negative-parity state, positive
    edges stay within a layer and negative edges cross layers.  Returns two
    dense arrays (positive first) with :data:`UNREACHABLE` where no walk of
    that sign exists.
    """
    source_id = csr.index_of(source)
    num_nodes = csr.number_of_nodes()
    # State i encodes (node, +1); state i + n encodes (node, -1).
    distances = np.full(2 * num_nodes, UNREACHABLE, dtype=np.int32)
    distances[source_id] = 0
    frontier = np.array([source_id], dtype=np.int64)
    depth = 0
    while frontier.size:
        node_part = frontier % num_nodes
        parity_part = frontier // num_nodes  # 0 = positive, 1 = negative
        targets, edge_signs, _origins, counts = _concatenated_neighbor_ranges(
            csr, node_part
        )
        if targets.size == 0:
            break
        origin_parity = np.repeat(parity_part, counts)
        next_parity = np.where(edge_signs > 0, origin_parity, 1 - origin_parity)
        states = targets.astype(np.int64) + next_parity * num_nodes
        undiscovered = states[distances[states] == UNREACHABLE]
        distances[undiscovered] = depth + 1
        frontier = _next_frontier(undiscovered, distances, depth + 1)
        depth += 1
    return distances[:num_nodes].copy(), distances[num_nodes:].copy()


def _wordparallel_seed(
    num_nodes: int, source_ids: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Seed state for a word-parallel word: ``(ids, frontier)``.

    ``frontier`` is the per-node ``uint64`` word array with source ``i``'s
    bit set on its source node (``np.bitwise_or.at`` — duplicate sources in
    one word OR into the same word and stay independent traversals).
    """
    ids = np.asarray(source_ids, dtype=np.int64)
    frontier = np.zeros(num_nodes, dtype=np.uint64)
    np.bitwise_or.at(frontier, ids, source_bits(len(source_ids)))
    return ids, frontier


def _decode_levels(
    levels: List[Tuple[np.ndarray, np.ndarray]],
    seen: np.ndarray,
    out_lengths: np.ndarray,
) -> None:
    """Write a word-parallel traversal's BFS lengths into ``out_lengths``.

    ``levels[d]`` is ``(nodes, words)`` for depth ``d + 1``: the nodes some
    source discovered at that depth and, per node, the word of those sources.
    ``seen`` is the final per-node word of every source that reached the node
    (the sources themselves included).  Each (source, node) bit sits in
    exactly one level, so a node's depths are the sum over its levels of
    ``depth * bit``; row ``b`` of ``out_lengths`` (``(k, n)`` int32, any row
    layout) receives source ``b``'s lengths, :data:`UNREACHABLE` where its
    bit never reached the node.  One unpack per level and one transposed
    write, instead of one row write per active source per level.
    """
    k, num_nodes = out_lengths.shape
    depth_type = np.uint8 if len(levels) < 256 else np.int32
    depths = np.zeros((num_nodes, k), dtype=depth_type)
    for depth, (nodes, words) in enumerate(levels, start=1):
        depths[nodes] += word_bit_columns(words, k) * depth_type(depth)
    np.copyto(out_lengths, depths.T, casting="unsafe")
    out_lengths[word_bit_columns(seen, k).T == 0] = UNREACHABLE


def _wordparallel_path_lengths_into(
    csr: CSRSignedGraph, source_ids: Sequence[int], out_lengths: np.ndarray
) -> None:
    """Word-parallel multi-source BFS: up to 64 distance maps per gather.

    Frontier and visited state are packed ``uint64`` words (bit b = "source
    b"), so one level of ALL the word's traversals is one adjacency gather
    over the *union* frontier, one ``bitwise_or`` scatter, and one
    ``& ~seen``.  Row ``b`` of ``out_lengths`` (shape ``(k, n)``, int32;
    any row layout) receives source ``b``'s distances, decoded once at the
    end (:func:`_decode_levels`), bit-identical to
    :func:`_shortest_path_lengths_array_into`: BFS depths are unique per
    (source, node), so equality is exact by construction.
    """
    num_nodes = csr.number_of_nodes()
    _ids, frontier = _wordparallel_seed(num_nodes, source_ids)
    seen = frontier.copy()
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    while True:
        active = np.flatnonzero(frontier)
        if active.size == 0:
            break
        targets, _signs, origins, _counts = _concatenated_neighbor_ranges(csr, active)
        if targets.size == 0:
            break
        next_words = np.zeros(num_nodes, dtype=np.uint64)
        np.bitwise_or.at(next_words, targets, frontier[origins])
        next_words &= ~seen
        newly = np.flatnonzero(next_words)
        if newly.size == 0:
            break
        newly_words = next_words[newly]
        seen[newly] |= newly_words
        levels.append((newly, newly_words))
        frontier = next_words
    _decode_levels(levels, seen, out_lengths)


def _presence_planes(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    levels: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word-parallel positive-path *presence*: ``(seen, positive, negative)`` planes.

    SPA and SPO (Definition 3.3) only ask whether *some* shortest path is
    positive or negative, so this traversal carries, per node, ``uint64``
    planes instead of Algorithm 1's counts: bit ``b`` of ``seen[v]`` says
    source ``b`` reached ``v``, of ``positive[v]`` that some shortest path
    from source ``b`` to ``v`` is positive, of ``negative[v]`` that some is
    negative.  A positive edge passes both bits on, a negative edge swaps
    them, and a node's bits are the OR over its parents — presence of a
    signed shortest path, exactly ``counts > 0``.  Every source of the word
    (at most 64) advances with the same array operations, with no
    per-source loop (multi-source BFS, Then et al., PVLDB 8(4), 2014).

    Direction-optimising like :func:`_signed_bfs_arrays_into`: a level
    pushes (scatters the frontier's entries with ``np.bitwise_or.at``) while
    the frontier's degree sum is at most that of the nodes some source has
    not reached yet, and pulls otherwise (those nodes OR their rows with one
    ``np.bitwise_or.reduceat`` per plane).  Either way a level gathers its
    rows in runs of about :data:`PRESENCE_SLICE_ENTRIES` entries
    (:func:`_entry_spans`), so its temporaries stay bounded however large
    the frontier.  With ``levels``, each level's ``(nodes, words)`` — the
    nodes some source discovered and, per node, the word of those sources —
    is appended for :func:`_decode_levels`.  Nothing here can overflow.
    """
    num_nodes = csr.number_of_nodes()
    degrees = csr.degrees()
    negative_entries = csr.signs < 0
    _ids, frontier_positive = _wordparallel_seed(num_nodes, source_ids)
    frontier_negative = np.zeros(num_nodes, dtype=np.uint64)
    seen = frontier_positive.copy()
    positive = frontier_positive.copy()
    negative = np.zeros(num_nodes, dtype=np.uint64)
    all_sources = np.bitwise_or.reduce(source_bits(len(source_ids)))
    # Nodes some source has not reached (non-zero degree only): a pull
    # level scans their rows, and only they can still be discovered.
    unreached = np.flatnonzero(degrees > 0)
    active = np.flatnonzero(frontier_positive)
    while True:
        frontier_edges = int(degrees[active].sum())
        unreached = unreached[seen[unreached] != all_sources]
        if not frontier_edges or unreached.size == 0:
            break
        next_positive = np.zeros(num_nodes, dtype=np.uint64)
        next_negative = np.zeros(num_nodes, dtype=np.uint64)
        unreached_degrees = degrees[unreached]
        if frontier_edges > int(unreached_degrees.sum()):
            joined = []
            spans = _entry_spans(unreached_degrees, PRESENCE_SLICE_ENTRIES)
            for low, high in zip(spans, spans[1:]):
                rows = unreached[low:high]
                positions, _counts, row_starts = _adjacency_positions(csr, rows)
                reads = csr.indices[positions]
                swap = negative_entries[positions]
                from_positive = frontier_positive[reads]
                from_negative = frontier_negative[reads]
                unseen = ~seen[rows]
                joined_positive = np.bitwise_or.reduceat(
                    np.where(swap, from_negative, from_positive), row_starts
                )
                joined_positive &= unseen
                joined_negative = np.bitwise_or.reduceat(
                    np.where(swap, from_positive, from_negative), row_starts
                )
                joined_negative &= unseen
                joins = np.flatnonzero(joined_positive | joined_negative)
                rows = rows[joins]
                next_positive[rows] = joined_positive[joins]
                next_negative[rows] = joined_negative[joins]
                joined.append(rows)
            newly = np.concatenate(joined)
        else:
            spans = _entry_spans(degrees[active], PRESENCE_SLICE_ENTRIES)
            for low, high in zip(spans, spans[1:]):
                rows = active[low:high]
                positions, counts, _row_starts = _adjacency_positions(csr, rows)
                targets = csr.indices[positions]
                swap = negative_entries[positions]
                origins = np.repeat(rows, counts)
                from_positive = frontier_positive[origins]
                from_negative = frontier_negative[origins]
                np.bitwise_or.at(
                    next_positive, targets, np.where(swap, from_negative, from_positive)
                )
                np.bitwise_or.at(
                    next_negative, targets, np.where(swap, from_positive, from_negative)
                )
            unseen = ~seen
            next_positive &= unseen
            next_negative &= unseen
            newly = np.flatnonzero(next_positive | next_negative)
        if newly.size == 0:
            break
        frontier_positive, frontier_negative = next_positive, next_negative
        newly_words = frontier_positive[newly] | frontier_negative[newly]
        seen[newly] |= newly_words
        positive[newly] |= frontier_positive[newly]
        negative[newly] |= frontier_negative[newly]
        if levels is not None:
            levels.append((newly, newly_words))
        active = newly
    return seen, positive, negative


def _wordparallel_presence_into(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    out_lengths: np.ndarray,
    out_positive: np.ndarray,
    out_negative: np.ndarray,
) -> None:
    """Presence rows of a word: BFS lengths plus one 0/1 row per sign.

    Runs :func:`_presence_planes` and decodes its planes once, at the end:
    lengths by :func:`_decode_levels`, the sign planes into 0/1 rows of
    ``out_positive`` / ``out_negative`` (``counts > 0`` of Algorithm 1).
    Output buffers are ``(k, n)`` int32/int64/int64 with any row layout.
    """
    k = len(source_ids)
    levels: List[Tuple[np.ndarray, np.ndarray]] = []
    seen, positive, negative = _presence_planes(csr, source_ids, levels)
    _decode_levels(levels, seen, out_lengths)
    out_positive[...] = word_bit_columns(positive, k).T
    out_negative[...] = word_bit_columns(negative, k).T


def presence_degrees(csr: CSRSignedGraph, source_ids: Sequence[int]) -> List[Tuple[int, int]]:
    """``(spa, spo)`` compatibility degrees of every dense source from presence planes.

    Sources run 64 to a word through :func:`_presence_planes`; no ``(k, n)``
    row is built.  A node other than the source is SPO-compatible with it
    iff its ``positive`` bit is set, and SPA-compatible iff the source
    reached it and no shortest path is negative (``seen & ~negative``); the
    per-bit counts (:func:`~repro.utils.bitset.bit_counts`) include the
    source itself once, which is subtracted.  Each pair equals the SPA and
    SPO slots of :func:`repro.compatibility.shortest_path.dense_degree_triple`
    on the source's Algorithm-1 rows.  SPM needs the counts themselves.
    """
    id_list = list(source_ids)
    degrees: List[Tuple[int, int]] = []
    for start in range(0, len(id_list), WORD_BITS):
        word = id_list[start : start + WORD_BITS]
        seen, positive, negative = _presence_planes(csr, word)
        spa = bit_counts(seen & ~negative, len(word)) - 1
        spo = bit_counts(positive, len(word)) - 1
        degrees.extend(zip(spa.tolist(), spo.tolist()))
    return degrees


def _wordparallel_signed_bfs_into(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    out_lengths: np.ndarray,
    out_positive: np.ndarray,
    out_negative: np.ndarray,
) -> None:
    """Word-parallel Algorithm 1: up to 64 signed BFS runs per adjacency gather.

    Discovery is word-parallel exactly as in
    :func:`_wordparallel_path_lengths_into`; the signed count propagation
    then runs per *active* source over only that source's discovery edges
    (``frontier word & next word`` per edge selects them), in the same
    concatenated-adjacency order the per-source kernel scatters in — so rows
    are bit-identical to :func:`_signed_bfs_arrays_into`, including the
    per-level int64 overflow guard (raises :class:`OverflowError` at the
    same depth; the caller re-runs the word source by source).  A level
    reads its new counts back for the guard only when ``max_degree`` times
    a bound on the frontier's counts could exceed it.  Output buffers are
    ``(k, n)`` int32/int64/int64; writes are per-row, so any row layout
    (e.g. a row slice of a larger block) works.
    """
    num_nodes = csr.number_of_nodes()
    k = len(source_ids)
    degrees = csr.degrees()
    max_degree = int(degrees.max()) if num_nodes else 0
    count_guard = (2**63 - 1) // max(1, max_degree)
    ids, frontier = _wordparallel_seed(num_nodes, source_ids)
    bit_words = source_bits(k)
    seen = frontier.copy()
    out_lengths.fill(UNREACHABLE)
    out_positive.fill(0)
    out_negative.fill(0)
    rows = np.arange(k)
    out_lengths[rows, ids] = 0
    out_positive[rows, ids] = 1
    bound = 1
    depth = 0
    while True:
        active = np.flatnonzero(frontier)
        if active.size == 0:
            break
        targets, edge_signs, origins, _counts = _concatenated_neighbor_ranges(
            csr, active
        )
        if targets.size == 0:
            break
        words = frontier[origins]
        next_words = np.zeros(num_nodes, dtype=np.uint64)
        np.bitwise_or.at(next_words, targets, words)
        next_words &= ~seen
        newly = np.flatnonzero(next_words)
        if newly.size == 0:
            break
        newly_words = next_words[newly]
        seen[newly] |= newly_words
        # Per-edge discovery words: bit b set iff this edge crosses from
        # source b's frontier into a node source b discovers this level —
        # exactly the count-carrying edges of the per-source kernel.
        discovery = words & next_words[targets]
        positive_edges = edge_signs > 0
        # Every count on the frontier is at most ``bound``, and a new count
        # sums at most max_degree of them: only a level whose product could
        # pass the guard reads its new counts back (exactly, per source).
        exact = max_degree * bound > count_guard
        level_max = 0
        for b in set_bit_positions(int(np.bitwise_or.reduce(newly_words))):
            # Source b's discovery edges: their targets are exactly the nodes
            # b discovers this level (repeats included), never empty since b
            # is a bit of some newly discovered word.
            edge_sel = np.flatnonzero((discovery & bit_words[b]) != 0)
            chunk_targets = targets[edge_sel]
            out_lengths[b][chunk_targets] = depth + 1
            chunk_origins = origins[edge_sel]
            chunk_positive = positive_edges[edge_sel]
            positive_row = out_positive[b]
            negative_row = out_negative[b]
            from_positive = positive_row[chunk_origins]
            from_negative = negative_row[chunk_origins]
            np.add.at(
                positive_row,
                chunk_targets,
                np.where(chunk_positive, from_positive, from_negative),
            )
            np.add.at(
                negative_row,
                chunk_targets,
                np.where(chunk_positive, from_negative, from_positive),
            )
            if exact:
                level_max = max(
                    level_max,
                    int(positive_row[chunk_targets].max()),
                    int(negative_row[chunk_targets].max()),
                )
        if exact:
            if level_max > count_guard:
                raise OverflowError(
                    "signed shortest-path counts exceed the int64 safety bound "
                    f"({count_guard}) at BFS depth {depth + 1} in a "
                    "word-parallel traversal; re-run the affected sources "
                    "individually"
                )
            bound = level_max
        else:
            bound *= max_degree
        frontier = next_words
        depth += 1


#: One per-source kernel output: ``(lengths, positive, negative)`` arrays, or
#: ``None`` marking an int64 overflow the caller resolves with
#: :func:`repro.signed.paths.signed_bfs`.
DenseBFSTriple = Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]


class PresenceRows(tuple):
    """``(lengths, has_positive, has_negative)`` rows of a presence traversal.

    A plain triple to unpack, typed apart from Algorithm 1's count triples so
    the caller can tell which rows hold counts: the two boolean planes say
    whether some shortest path is positive / negative
    (:func:`_wordparallel_presence_into`).
    """

    __slots__ = ()


#: Token of a row written by the presence traversal (the other tokens are
#: ``True`` for Algorithm 1's counts and ``None`` for an int64 overflow).
PRESENCE_ROW = "presence"


def signed_bfs_dense_batch_into(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    out_lengths: np.ndarray,
    out_positive: np.ndarray,
    out_negative: np.ndarray,
    skip_overflow: bool = False,
    presence: bool = False,
) -> List[Optional[object]]:
    """Algorithm 1 from many dense sources, written into ``(k, n)`` buffers.

    The one multi-source implementation: sources go 64 to a word, and a word
    of at least :data:`WORDPARALLEL_MIN_SOURCES` sources runs
    word-parallel, a smaller one per source.  Row ``i`` of the three output
    buffers (dtypes ``int32``/``int64``/``int64``; any row layout, writes
    are per-row) receives source ``source_ids[i]``'s result, bit-identical
    to a per-source :func:`_signed_bfs_arrays` run, produced *in place*:
    :func:`signed_bfs_dense_batch` passes one word's block.

    With ``presence``, a word of at least :data:`PRESENCE_MIN_SOURCES`
    sources runs :func:`_wordparallel_presence_into` instead: its rows hold
    the same lengths and 0/1 for ``counts > 0`` — all a caller that only
    asks whether a positive shortest path exists needs.

    Returns one token per source, aligned with the input: ``True`` for a
    completed row of counts, :data:`PRESENCE_ROW` for a presence row,
    ``None`` for an int64 overflow (with ``skip_overflow``), whose row
    contents are then undefined.  A word whose counts trip the int64 guard
    is re-run source by source; a source that *individually* overflows
    raises :class:`OverflowError` unless ``skip_overflow`` is set.
    """
    id_list = list(source_ids)
    tokens: List[Optional[object]] = []
    for start in range(0, len(id_list), WORD_BITS):
        word = id_list[start : start + WORD_BITS]
        stop = start + len(word)
        if presence and len(word) >= PRESENCE_MIN_SOURCES:
            _wordparallel_presence_into(
                csr,
                word,
                out_lengths[start:stop],
                out_positive[start:stop],
                out_negative[start:stop],
            )
            tokens.extend([PRESENCE_ROW] * len(word))
            continue
        if len(word) >= WORDPARALLEL_MIN_SOURCES:
            try:
                _wordparallel_signed_bfs_into(
                    csr,
                    word,
                    out_lengths[start:stop],
                    out_positive[start:stop],
                    out_negative[start:stop],
                )
                tokens.extend([True] * len(word))
                continue
            except OverflowError:
                pass  # isolate the overflowing rows source by source
        for row, source_id in enumerate(word, start=start):
            try:
                _signed_bfs_arrays_into(
                    csr, source_id, out_lengths[row], out_positive[row], out_negative[row]
                )
                tokens.append(True)
            except OverflowError:
                if not skip_overflow:
                    raise
                tokens.append(None)
    return tokens


#: ``(smallest, largest, dtype)`` of each signed integer type a copied-out
#: row may take, narrowest first (:func:`narrow_row`).
_ROW_TYPES = tuple(
    (int(np.iinfo(dtype).min), int(np.iinfo(dtype).max), np.dtype(dtype))
    for dtype in (np.int8, np.int16, np.int32, np.int64)
)


def narrow_row(row: np.ndarray) -> np.ndarray:
    """A copy of integer ``row`` at the narrowest signed type that holds it.

    The one copy-out of every cached per-source row: BFS lengths and
    balanced depths (:data:`UNREACHABLE` fits every type) and Algorithm 1's
    count planes alike go to ``int8``, ``int16``, ``int32`` or ``int64`` by
    the row's smallest and largest entry.  Depths on the low-diameter graphs
    this library targets stay below 128, so a length row costs one byte per
    node instead of the kernels' four, and a count plane mostly one or two
    instead of eight.  The copy also keeps a cached row from pinning the kernel
    block it was written into.  Readers compare rows or copy them into
    wider blocks; one that does arithmetic on a row widens it first.
    """
    low = int(row.min(initial=0))
    high = int(row.max(initial=0))
    for smallest, largest, dtype in _ROW_TYPES:
        if smallest <= low and high <= largest:
            break
    return row.astype(dtype)


def dense_row_result(token, lengths: np.ndarray, positive: np.ndarray, negative: np.ndarray):
    """One source's result from its rows and token, the rows copied out.

    ``None`` for an overflow token, :class:`PresenceRows` (boolean planes)
    for :data:`PRESENCE_ROW`, else Algorithm 1's ``(lengths, positive,
    negative)`` triple.  Each integer row is copied out at the narrowest
    type that holds it (:func:`narrow_row`), so a cached result neither
    pins the buffer its rows were written into nor keeps the kernels'
    ``int32``/``int64`` widths.
    """
    if token is None:
        return None
    if token == PRESENCE_ROW:
        return PresenceRows((narrow_row(lengths), positive != 0, negative != 0))
    return (narrow_row(lengths), narrow_row(positive), narrow_row(negative))


def signed_bfs_dense_batch(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    skip_overflow: bool = False,
    presence: bool = False,
) -> List[DenseBFSTriple]:
    """Dense core of :func:`multi_source_signed_bfs`: dense ids in, arrays out.

    Works purely on the snapshot's flat arrays (no node objects).  An
    allocating wrapper over
    :func:`signed_bfs_dense_batch_into`, one 64-source word at a time: rows
    are copied out of the word's buffers at their narrowest type
    (:func:`dense_row_result`), so transient memory stays one word's worth
    and holding one result does not pin the rest.  Results are
    in input order; ``None`` marks an overflowing source (``skip_overflow``),
    :class:`PresenceRows` a presence row (``presence``; see
    :func:`dense_row_result`).
    """
    id_list = list(source_ids)
    num_nodes = csr.number_of_nodes()
    results: List[DenseBFSTriple] = []
    for start in range(0, len(id_list), WORD_BITS):
        word = id_list[start : start + WORD_BITS]
        lengths = np.empty((len(word), num_nodes), dtype=np.int32)
        positive = np.empty((len(word), num_nodes), dtype=np.int64)
        negative = np.empty((len(word), num_nodes), dtype=np.int64)
        tokens = signed_bfs_dense_batch_into(
            csr,
            word,
            lengths,
            positive,
            negative,
            skip_overflow=skip_overflow,
            presence=presence,
        )
        results.extend(
            dense_row_result(token, lengths[row], positive[row], negative[row])
            for row, token in enumerate(tokens)
        )
    return results


def multi_source_signed_bfs(
    csr: CSRSignedGraph, sources: Sequence[Node], skip_overflow: bool = False
) -> List[Optional[CSRSignedBFSResult]]:
    """Run Algorithm 1 from every source over one shared index, batched.

    Sources run through :func:`signed_bfs_dense_batch` (word-parallel, or
    per-source for batches under :data:`WORDPARALLEL_MIN_SOURCES`); results
    come back in input order and are bit-identical to per-source
    :func:`signed_bfs_csr` runs.  A source whose counts overflow int64
    raises :class:`OverflowError` unless ``skip_overflow`` is true, in which
    case its slot holds ``None`` and the caller is expected to fall back to
    the arbitrary-precision :func:`repro.signed.paths.signed_bfs` for it.
    """
    source_list = list(sources)
    triples = signed_bfs_dense_batch(
        csr,
        [csr.index_of(source) for source in source_list],
        skip_overflow=skip_overflow,
    )
    return [
        None
        if triple is None
        else CSRSignedBFSResult(
            source=source,
            graph=csr,
            lengths_array=triple[0],
            positive_array=triple[1],
            negative_array=triple[2],
        )
        for source, triple in zip(source_list, triples)
    ]


def shortest_path_lengths_dense_batch_into(
    csr: CSRSignedGraph, source_ids: Sequence[int], out_lengths: np.ndarray
) -> List[Optional[bool]]:
    """Sign-agnostic BFS from many dense sources into a ``(k, n)`` buffer.

    The one multi-source distance implementation, with the same word split
    as :func:`signed_bfs_dense_batch_into`.  Row ``i`` of ``out_lengths``
    (``int32``, any row layout — one word's block in
    :func:`shortest_path_lengths_dense_batch`, reusable rows in
    :func:`~repro.signed.metrics.diameter`) receives ``source_ids[i]``'s
    distance map, bit-identical to :func:`_shortest_path_lengths_array`.
    Returns one ``True`` token per source for uniformity with
    :func:`signed_bfs_dense_batch_into` (distance sweeps cannot overflow).
    """
    id_list = list(source_ids)
    for start in range(0, len(id_list), WORD_BITS):
        word = id_list[start : start + WORD_BITS]
        if len(word) >= WORDPARALLEL_MIN_SOURCES:
            _wordparallel_path_lengths_into(
                csr, word, out_lengths[start : start + len(word)]
            )
            continue
        for row, source_id in enumerate(word, start=start):
            _shortest_path_lengths_array_into(csr, source_id, out_lengths[row])
    return [True] * len(id_list)


def shortest_path_lengths_dense_batch(
    csr: CSRSignedGraph, source_ids: Sequence[int]
) -> List[np.ndarray]:
    """Dense core of :func:`multi_source_shortest_path_lengths_csr`.

    Dense ids in, one length array per source out; node objects are never
    touched.  An allocating wrapper over
    :func:`shortest_path_lengths_dense_batch_into`, one word at a time, with
    each row copied out of the word's ``int32`` block at the narrowest type
    that holds it (:func:`narrow_row`; ``int8`` below 128 levels), like
    :func:`signed_bfs_dense_batch`.
    """
    id_list = list(source_ids)
    num_nodes = csr.number_of_nodes()
    results: List[np.ndarray] = []
    for start in range(0, len(id_list), WORD_BITS):
        word = id_list[start : start + WORD_BITS]
        lengths = np.empty((len(word), num_nodes), dtype=np.int32)
        shortest_path_lengths_dense_batch_into(csr, word, lengths)
        results.extend(narrow_row(row) for row in lengths)
    return results


def multi_source_shortest_path_lengths_csr(
    csr: CSRSignedGraph, sources: Sequence[Node]
) -> List[np.ndarray]:
    """Sign-agnostic BFS distances from many sources over one shared index.

    The batched counterpart of :func:`shortest_path_lengths_csr`, with the
    same word-parallel / per-source split as :func:`multi_source_signed_bfs`.
    Returns one dense length array per source, in input order, each at the
    narrowest type that holds it (:data:`UNREACHABLE` marks unreachable
    nodes; wrap with :class:`CSRLengths` for a dict-like view).
    """
    return shortest_path_lengths_dense_batch(
        csr, [csr.index_of(source) for source in sources]
    )


#: Adjacency-entry budget of one SBPH batch: a batch advances
#: ``SBPH_BATCH_ENTRIES // len(csr.indices)`` sources (at least one, at most
#: :data:`~repro.utils.bitset.WORD_BITS`), so every level of a batch gathers
#: at most twice this many candidate edges however large the graph.  Small
#: graphs need the batch: one source's levels there are too small to pay
#: for the fixed cost of a level's array operations.  On the fast-config
#: stand-ins a batch holds 27-64 sources; on the 2308-node epinions
#: stand-in it holds 4, and 256 sources there take the same time in batches
#: of 64 but peak at 320 MB of RSS instead of 146 MB.
SBPH_BATCH_ENTRIES = 2**17

#: Path budget of one exact SBP batch: a batch runs ``EXACT_BATCH_PATHS //
#: max_expansions`` sources (at least one, at most an SBPH batch).  A
#: source's current and next level together hold at most ``max_expansions``
#: paths, so a batch holds at most this many (when the cap fits in it) — at
#: 80 bytes a path on the 226-node slashdot stand-in.  At Table 2's caps
#: that is 3 sources (20,000 expansions) and 1 (60,000); batches of twice
#: the budget run no faster and peak higher than the dict search.
EXACT_BATCH_PATHS = 2**16

#: Adjacency entries one step of an exact SBP level gathers, whole paths at a
#: time: the step's candidate arrays and their ``(words, candidates)``
#: planes are a level's only temporaries besides its paths.  On the 226-node
#: slashdot stand-in at 60,000 expansions the search then peaks at 6.0 MB of
#: allocations (7.7 MB with steps of ``2**14``), the dict search at 6.4 MB;
#: smaller steps mostly add per-step overhead.
EXACT_STEP_ENTRIES = 2**13


def sbph_batch_size(csr: CSRSignedGraph) -> int:
    """Sources one SBPH batch of :func:`balanced_depths` advances together."""
    return min(WORD_BITS, max(1, SBPH_BATCH_ENTRIES // max(1, csr.indices.size)))


def _sorted_edge_keys(csr: CSRSignedGraph) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, signs)``: every adjacency entry as ``row * n + col``, ascending.

    Edge ``(u, v)`` is found with one :func:`numpy.searchsorted` of
    ``u * n + v``; ``signs`` is parallel to ``keys``.
    """
    num_nodes = csr.number_of_nodes()
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), csr.degrees())
    keys = rows * num_nodes + csr.indices
    # Keys arrive grouped by row; the stable sort (merging natural runs)
    # exploits that.
    order = np.argsort(keys, kind="stable")
    return keys[order], csr.signs[order]


def _harary_extensions(
    edge_keys: np.ndarray,
    edge_signs: np.ndarray,
    num_nodes: int,
    paths: np.ndarray,
    camps: np.ndarray,
    targets: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.signed.paths._extend_camps` for many paths.

    Row ``i`` asks whether ``targets[i]`` extends the balanced path
    ``paths[i]`` (Harary camps ``camps[i]``, ``True`` = the camp opposite the
    source's).  The extension is allowed iff the target is off the path and
    every path node adjacent to it implies the same camp for it (its own
    camp across a positive edge, the other across a negative one).  Returns
    ``(allowed, camp)``: the camp is the implied one, or ``False`` (the
    source's camp) when no path node is adjacent.
    """
    off_path = ~(paths == targets[:, None]).any(axis=1)
    lookup = targets[:, None] * num_nodes + paths
    found = np.minimum(np.searchsorted(edge_keys, lookup), edge_keys.size - 1)
    adjacent = edge_keys[found] == lookup
    implied = camps ^ (edge_signs[found] < 0)
    in_camp_one = (adjacent & implied).any(axis=1)
    in_camp_zero = (adjacent & ~implied).any(axis=1)
    return off_path & ~(in_camp_one & in_camp_zero), in_camp_one


def _first_allowed(
    order: np.ndarray, starts: np.ndarray, allowed_heads: np.ndarray, check
) -> Tuple[np.ndarray, np.ndarray]:
    """Rescan the groups whose head was refused; return their first allowed member.

    ``order[starts[g]:starts[g + 1]]`` are group ``g``'s candidates in
    candidate order.  Every member after the head of a refused group is
    checked in one ``check(candidates)`` call; a group's winner is its first
    allowed member (a group with none claims nothing).  Returns
    ``(winners, camps)``.
    """
    refused = np.flatnonzero(~allowed_heads)
    ends = np.append(starts[1:], order.size)[refused]
    sizes = ends - starts[refused] - 1
    ragged_starts = np.cumsum(sizes) - sizes
    members = order[
        np.repeat(starts[refused] + 1 - ragged_starts, sizes) + np.arange(int(sizes.sum()))
    ]
    allowed, camps = check(members)
    passing = np.flatnonzero(allowed)
    group_of = np.repeat(refused, sizes)[passing]
    first = passing[np.append(True, group_of[1:] != group_of[:-1])] if passing.size else passing
    return members[first], camps[first]


def _sbph_batch_claims(
    csr: CSRSignedGraph,
    edge_keys: np.ndarray,
    edge_signs: np.ndarray,
    sources: np.ndarray,
    bound: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run one batch of SBPH searches; return every claim in claim order.

    The batch's ``(node, sign)``-state searches advance one BFS level at a
    time.  State ``i`` is ``(node i, positive prefix)``, state ``i + n``
    ``(node i, negative prefix)``; frontier row ``r`` belongs to batch row
    ``rows[r]`` and holds its state's representative path as
    ``paths[r]`` (nodes) and ``camps[r]`` (Harary camps).  A level gathers
    every frontier row's edges, drops those whose ``(batch row, target
    state)`` key was claimed on an earlier level, and groups the rest by key
    in candidate order — frontier order, then adjacency order, exactly the
    order the dict search meets them.  A group's winner is its first
    candidate that is off its path and keeps it balanced: heads are checked
    together first, and only groups whose head was refused rescan their
    other members.  Winners are taken in candidate order, so the next
    frontier keeps the dict search's FIFO order, which decides the next
    level's winners.

    Returns ``(rows, nodes, negative, depths)``, one entry per claim
    (sources' own depth-0 states excluded), level by level.
    """
    num_nodes = csr.number_of_nodes()
    width = 2 * num_nodes
    rows = np.arange(sources.size, dtype=np.int64)
    states = sources.astype(np.int64)
    claimed = np.zeros(sources.size * width, dtype=bool)
    claimed[rows * width + states] = True
    paths = states.astype(np.int32)[:, None]
    camps = np.zeros((sources.size, 1), dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    levels: List[Tuple[np.ndarray, ...]] = [(empty, empty, empty.astype(bool), empty)]
    depth = 0
    while rows.size and depth < bound:
        positions, counts, _row_starts = _adjacency_positions(csr, states % num_nodes)
        if positions.size == 0:
            break
        origins = np.repeat(np.arange(rows.size), counts)
        targets = csr.indices[positions].astype(np.int64)
        flips = (csr.signs[positions] < 0) ^ (states >= num_nodes)[origins]
        target_states = targets + flips * num_nodes
        keys = rows[origins] * width + target_states
        open_positions = np.flatnonzero(~claimed[keys])
        if open_positions.size == 0:
            break
        origins, targets, target_states, keys = (
            column[open_positions] for column in (origins, targets, target_states, keys)
        )

        def check(candidates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            parents = origins[candidates]
            return _harary_extensions(
                edge_keys, edge_signs, num_nodes,
                paths[parents], camps[parents], targets[candidates],
            )

        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        starts = np.flatnonzero(np.append(True, sorted_keys[1:] != sorted_keys[:-1]))
        heads = order[starts]
        allowed, head_camps = check(heads)
        winners, winner_camps = heads[allowed], head_camps[allowed]
        if not allowed.all():
            rescued, rescued_camps = _first_allowed(order, starts, allowed, check)
            winners = np.concatenate((winners, rescued))
            winner_camps = np.concatenate((winner_camps, rescued_camps))
        in_order = np.argsort(winners)
        winners, winner_camps = winners[in_order], winner_camps[in_order]
        claimed[keys[winners]] = True
        parents = origins[winners]
        rows = rows[parents]
        states = target_states[winners]
        new_nodes = targets[winners]
        paths = np.concatenate((paths[parents], new_nodes[:, None].astype(np.int32)), axis=1)
        camps = np.concatenate((camps[parents], winner_camps[:, None]), axis=1)
        depth += 1
        levels.append((rows, new_nodes, states >= num_nodes, np.full(rows.size, depth)))
    return tuple(np.concatenate(column) for column in zip(*levels))


def _exact_search_index(csr: CSRSignedGraph) -> Tuple[np.ndarray, ...]:
    """Word-major neighbour bitmasks plus every adjacency entry's word and bit.

    Returns ``(neighbours, negative, entry_words, entry_bits)``: bit ``b`` of
    ``neighbours[w, v]`` (a ``(words, n)`` uint64 plane) is set iff node
    ``w * 64 + b`` is a neighbour of ``v``, and of ``negative[w, v]`` iff it
    is a negative one — the dense twin of
    :meth:`~repro.signed.paths.BalancedPathSearch._bitsets`' masks — and
    adjacency entry ``e`` names node ``csr.indices[e]``, which is bit
    ``entry_bits[e]`` of word ``entry_words[e]``.
    """
    num_nodes = csr.number_of_nodes()
    rows = np.repeat(np.arange(num_nodes, dtype=np.int64), csr.degrees())
    entry_words = csr.indices.astype(np.int64) // WORD_BITS
    entry_bits = np.left_shift(np.uint64(1), (csr.indices % WORD_BITS).astype(np.uint64))
    planes = []
    for entries in (slice(None), csr.signs < 0):
        plane = np.zeros((words_for(num_nodes), num_nodes), dtype=np.uint64)
        np.bitwise_or.at(plane, (entry_words[entries], rows[entries]), entry_bits[entries])
        planes.append(plane)
    return planes[0], planes[1], entry_words, entry_bits


def _exact_batch_claims(
    csr: CSRSignedGraph,
    index: Tuple[np.ndarray, ...],
    sources: np.ndarray,
    bound: int,
    max_expansions: int,
) -> Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Run one batch of exact SBP searches; return its claims and truncation flags.

    The batched, level-synchronous form of
    :meth:`~repro.signed.paths.BalancedPathSearch.search_exact` over
    :func:`_exact_search_index`.  A state is a balanced simple path: its
    batch row, its last node and two word-major ``(words, states)`` bit
    planes, the path's nodes (``on_path``) and the Harary camp opposite the
    source's (``camp_one``).  A level's states stay in the dict search's
    FIFO order, grouped by batch row, in pieces of about
    :data:`EXACT_STEP_ENTRIES` adjacency entries that are extended one at a
    time, so one level's candidates — every state's off-path neighbours, in
    state then adjacency order — are each source's next expansions in the
    order the dict search counts them.

    A segmented count cuts each source at ``max_expansions``: the candidates
    within the cap are processed, one past it flags the source
    ``truncated`` and retires it after the level (the dict search returns
    right there).  The balance test is the dict search's mask test over all
    words at once; the first balanced candidate per ``(row, sign, node)``
    records that node's depth, and every balanced candidate becomes a state
    of the next level (there is no prefix property to prune by).  Every
    state is a distinct expansion of its source, so the current and the next
    level together hold at most ``max_expansions`` paths per source.

    Returns ``((rows, nodes, negative, depths), truncated)``: the claims as
    :func:`_sbph_batch_claims` returns them, and one flag per source.
    """
    neighbour_words, negative_words, entry_words, entry_bits = index
    num_words, num_nodes = neighbour_words.shape
    width = 2 * num_nodes
    degrees = csr.degrees()
    seen = np.zeros(sources.size * width, dtype=bool)
    spent = np.zeros(sources.size, dtype=np.int64)
    truncated = np.zeros(sources.size, dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    levels: List[Tuple[np.ndarray, ...]] = [(empty, empty, empty.astype(bool), empty)]

    def extend(rows, last, on_path, camp_one, depth):
        """One step of a level: record its claims, return its balanced paths."""
        positions, counts, _row_starts = _adjacency_positions(csr, last)
        origins = np.repeat(np.arange(last.size), counts)
        words, bits = entry_words[positions], entry_bits[positions]
        off_path = np.flatnonzero((on_path[words, origins] & bits) == 0)
        # Candidates arrive grouped by row: a candidate's expansion number
        # is its rank in its row plus what the row spent before it.
        candidate_rows = rows[origins[off_path]]
        per_row = np.bincount(candidate_rows, minlength=sources.size)
        spent_before = spent - (np.cumsum(per_row) - per_row)
        over = np.arange(off_path.size) + spent_before[candidate_rows] >= max_expansions
        truncated[candidate_rows[over]] = True
        spent[:] += per_row
        within = off_path[~over]
        origins, words, bits = origins[within], words[within], bits[within]
        targets = csr.indices[positions[within]].astype(np.int64)
        # search_exact's balance test over all words at once: a path
        # neighbour puts the new node in camp one iff its camp bit differs
        # from its edge's negativity; votes for both camps mean unbalanced.
        path_planes = np.take(on_path, origins, axis=1)
        camp_planes = np.take(camp_one, origins, axis=1)
        adjacent = np.take(neighbour_words, targets, axis=1) & path_planes
        camp_one_votes = adjacent & (camp_planes ^ np.take(negative_words, targets, axis=1))
        in_camp_one = np.bitwise_or.reduce(camp_one_votes, axis=0) != 0
        in_camp_zero = np.bitwise_or.reduce(adjacent ^ camp_one_votes, axis=0) != 0
        balanced = np.flatnonzero(~(in_camp_one & in_camp_zero))
        rows, targets, words, bits, in_camp_one = (
            column[balanced] for column in (rows[origins], targets, words, bits, in_camp_one)
        )
        keys = rows * width + in_camp_one * num_nodes + targets
        fresh = np.flatnonzero(~seen[keys])
        claims = fresh[_first_occurrences(keys[fresh])]
        seen[keys[claims]] = True
        levels.append(
            (rows[claims], targets[claims], in_camp_one[claims], np.full(claims.size, depth))
        )
        # np.take keeps the planes C-contiguous, so the |= through
        # reshape(-1) writes into them, not into a copy.
        on_path = np.take(path_planes, balanced, axis=1)
        camp_one = np.take(camp_planes, balanced, axis=1)
        cells = words * balanced.size + np.arange(balanced.size)
        on_path.reshape(-1)[cells] |= bits
        camp_one.reshape(-1)[cells] |= bits * in_camp_one
        return rows, targets, on_path, camp_one

    rows = np.arange(sources.size, dtype=np.int64)
    last = sources.astype(np.int64)
    seen[rows * width + last] = True
    on_path = np.zeros((num_words, sources.size), dtype=np.uint64)
    on_path[last // WORD_BITS, rows] = np.left_shift(
        np.uint64(1), (last % WORD_BITS).astype(np.uint64)
    )
    frontier = deque([(rows, last, on_path, np.zeros_like(on_path))])
    depth = 0
    while frontier and depth < bound:
        depth += 1
        extended = []
        while frontier:
            rows, last, on_path, camp_one = frontier.popleft()
            spans = _entry_spans(degrees[last], EXACT_STEP_ENTRIES)
            for low, high in zip(spans, spans[1:]):
                extended.append(
                    extend(rows[low:high], last[low:high], on_path[:, low:high],
                           camp_one[:, low:high], depth)
                )
        # Every balanced path of a source still searching is a state of the
        # next level.
        for piece in extended:
            searching = np.flatnonzero(~truncated[piece[0]])
            if searching.size < piece[0].size:
                piece = tuple(np.take(column, searching, axis=-1) for column in piece)
            if searching.size:
                frontier.append(piece)
    claims = tuple(np.concatenate(column) for column in zip(*levels))
    return claims, truncated


def _balanced_batches(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    max_length: Optional[int],
    exact: bool,
    max_expansions: int,
) -> Iterator[Tuple[int, np.ndarray, Tuple[np.ndarray, ...], np.ndarray]]:
    """``(offset, sources, claims, truncated)`` per batch of the SBPH or exact core.

    SBPH batches hold :func:`sbph_batch_size` sources, exact batches
    :data:`EXACT_BATCH_PATHS` ``// max_expansions`` (at least one, and no
    more than an SBPH batch, so the first-seen table is no larger than
    SBPH's claimed-state table).
    """
    if max_length is not None and max_length < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    bound = max_length if max_length is not None else csr.number_of_nodes() - 1
    sources = np.asarray(list(source_ids), dtype=np.int64)
    batch = sbph_batch_size(csr)
    if exact:
        if max_expansions <= 0:
            raise ValueError(f"max_expansions must be positive, got {max_expansions}")
        batch = min(batch, max(1, EXACT_BATCH_PATHS // max_expansions))
        index = _exact_search_index(csr)
    else:
        edge_keys, edge_signs = _sorted_edge_keys(csr)
    for offset in range(0, sources.size, batch):
        chunk = sources[offset : offset + batch]
        if exact:
            claims, truncated = _exact_batch_claims(
                csr, index, chunk, bound, max_expansions
            )
        else:
            claims = _sbph_batch_claims(csr, edge_keys, edge_signs, chunk, bound)
            truncated = np.zeros(chunk.size, dtype=bool)
        yield offset, chunk, claims, truncated


def balanced_depths(
    csr: CSRSignedGraph,
    source_ids: Sequence[int],
    max_length: Optional[int] = None,
    exact: bool = False,
    max_expansions: int = DEFAULT_MAX_EXPANSIONS,
) -> List[Tuple[np.ndarray, np.ndarray, bool]]:
    """The balanced-path searches from many dense sources, as dense depth rows.

    Returns one ``(positive_row, negative_row, truncated)`` triple per
    source: rows over dense ids, :data:`UNREACHABLE` where the search
    recorded no path of that sign.  No node objects are touched.
    ``exact`` selects the SBP enumeration
    (:func:`_exact_batch_claims`, capped at ``max_expansions`` per source)
    over the SBPH search (:func:`_sbph_batch_claims`, never truncated).
    Each node's depth and the flag equal
    :meth:`~repro.signed.paths.BalancedPathSearch.search_exact` /
    :meth:`~repro.signed.paths.BalancedPathSearch.search_heuristic`.
    Sources advance a batch at a time; a source's rows do not depend on its
    batch.  One ``int32`` block is filled straight from each batch's claims
    and each row is copied out at the narrowest type that holds it
    (:func:`narrow_row`; ``int8`` for depths below 128), so a cached row
    owns its bytes instead of pinning the block.
    """
    sources = list(source_ids)
    positive = np.full((len(sources), csr.number_of_nodes()), UNREACHABLE, dtype=np.int32)
    negative = np.full_like(positive, UNREACHABLE)
    flags: List[bool] = []
    for offset, batch, (rows, nodes, is_negative, depths), truncated in _balanced_batches(
        csr, sources, max_length, exact, max_expansions
    ):
        rows = rows + offset
        positive[offset + np.arange(batch.size), batch] = 0
        positive[rows[~is_negative], nodes[~is_negative]] = depths[~is_negative]
        negative[rows[is_negative], nodes[is_negative]] = depths[is_negative]
        flags.extend(truncated.tolist())
    return [
        (narrow_row(positive[row]), narrow_row(negative[row]), flag)
        for row, flag in enumerate(flags)
    ]


class CSRLengths:
    """Dict-like read view over a dense length array, keyed by node objects.

    Supports the mapping subset the distance oracle uses (``get``,
    ``__contains__``, ``__getitem__``, ``items``); unreachable nodes behave as
    missing keys.  The array may have any signed integer type — the cached
    rows come at their narrowest (:func:`narrow_row`) — and every read
    returns a Python int; :meth:`row_in` keeps the array's type.
    """

    __slots__ = ("_graph", "_lengths")

    def __init__(self, graph: CSRSignedGraph, lengths: np.ndarray) -> None:
        self._graph = graph
        self._lengths = lengths

    def get(self, node: Node, default=None):
        """Length to ``node``, or ``default`` when unreachable or unknown."""
        dense = self._graph._index.get(node)
        if dense is None:
            return default
        value = self._lengths.item(dense)
        return default if value == UNREACHABLE else value

    def __getitem__(self, node: Node) -> int:
        value = self.get(node)
        if value is None:
            raise KeyError(node)
        return value

    def __contains__(self, node: Node) -> bool:
        dense = self._graph._index.get(node)
        return dense is not None and self._lengths.item(dense) != UNREACHABLE

    def __len__(self) -> int:
        return int((self._lengths != UNREACHABLE).sum())

    def __iter__(self) -> Iterator[Node]:
        # Without this, Python's legacy iteration protocol would call
        # __getitem__(0), __getitem__(1), ... and raise KeyError — a trap for
        # callers that iterate the dict the small-graph code path returns.
        nodes = self._graph._nodes
        for dense in np.flatnonzero(self._lengths != UNREACHABLE):
            yield nodes[dense]

    def keys(self) -> Iterator[Node]:
        """Iterate over the reachable nodes (dict-style)."""
        return iter(self)

    def items(self):
        """Iterate over ``(node, length)`` pairs for reachable nodes."""
        nodes = self._graph._nodes
        for dense in np.flatnonzero(self._lengths != UNREACHABLE):
            yield nodes[dense], int(self._lengths[dense])

    def row_in(self, csr: CSRSignedGraph) -> np.ndarray:
        """The lengths as a row over ``csr``'s dense ids (:data:`UNREACHABLE`
        where none; see :func:`row_in`)."""
        return row_in(self._graph, self._lengths, csr, UNREACHABLE)


def row_in(graph: CSRSignedGraph, row: np.ndarray, csr: CSRSignedGraph, fill) -> np.ndarray:
    """``row``, one entry per dense id of ``graph``, over ``csr``'s dense ids.

    The array itself when the two snapshots share their dense ids.  A row
    built on a snapshot with another node set (a cached result that survived
    a node insertion or removal elsewhere) is remapped through ``graph``'s
    node list: nodes ``csr`` lacks are dropped, nodes ``graph`` lacks read
    ``fill``.
    """
    if graph.shares_index_with(csr):
        return row
    index = csr._index
    targets = np.fromiter(
        (index.get(node, -1) for node in graph._nodes), np.int64, len(graph._nodes)
    )
    kept = targets >= 0
    out = np.full(csr.number_of_nodes(), fill, dtype=row.dtype)
    out[targets[kept]] = row[kept]
    return out
