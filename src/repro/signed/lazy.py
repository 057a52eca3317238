"""A ``SignedGraph`` facade over CSR planes, materialised only on demand.

CSR-first ingestion (:mod:`repro.signed.ingest`, the loader snapshot cache)
produces a :class:`~repro.signed.csr.CSRSignedGraph` without ever building the
dict backend.  Every downstream constructor, however, is typed against
:class:`~repro.signed.graph.SignedGraph`.  :class:`CSRBackedSignedGraph`
bridges the two: it *is* a ``SignedGraph`` (relations, the engine and the
oracle accept it unchanged), but the adjacency dicts — the gigabytes at a
million nodes — are synthesised lazily, only if a caller actually exercises a
dict-only code path.

Everything the CSR kernels and the read-mostly query surface need is answered
straight from the planes: membership, node order, degrees, edge signs,
neighbour iteration (in CSR row order — exactly the dict insertion order, see
``ingest``), edge iteration, edge counts and ``csr_view()``.

**Mutations are dict-free too.**  ``add_node`` / ``add_edge`` / ``set_sign`` /
``remove_edge`` keep small *overlay rows* (plain dicts, seeded from the planes
on first touch) for the nodes they modify, append the event to the same
structured :class:`~repro.signed.delta.GraphDelta` the dict backend uses, and
bump :attr:`~repro.signed.graph.SignedGraph.generation` with the exact same
semantics (no-op writes never bump; ``add_edge`` adds its endpoints first).
``csr_view()`` folds the pending delta into fresh planes through
:meth:`CSRSignedGraph.apply_delta` — bit-identical, arrays and node order, to
the same churn applied to a dict graph — so the generational caches and the
engine memos work unchanged while :attr:`materialised` stays ``False``
through arbitrary churn.  Only the genuinely dict-shaped operations
(``remove_node``, ``subgraph``, ``copy`` of the dict backend via
``_adjacency``, equality) still materialise.

:func:`as_signed_graph` is the canonical adapter: it returns ``SignedGraph``
inputs unchanged and wraps each ``CSRSignedGraph`` in exactly one shared
facade (so identity checks like ``relation.graph is problem.graph`` keep
working when two components independently adapt the same snapshot).
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import EdgeNotFoundError, InvalidSignError, NodeNotFoundError
from repro.signed.csr import CSRSignedGraph, component_members
from repro.signed.delta import GraphDelta
from repro.signed.graph import (
    _AFFECTED_MEMO_BOUND,
    _VALID_SIGNS,
    POSITIVE,
    Node,
    Sign,
    SignedEdge,
    SignedGraph,
)

__all__ = ["CSRBackedSignedGraph", "as_signed_graph"]

#: Events left free in the delta log before a mutation forces an early
#: ``csr_view()`` collapse.  A single mutation records at most three events
#: (two node additions + one edge event), so eight is comfortably safe: the
#: dict-free delta can never overflow (overflow drops events, which would make
#: the planes unrecoverable without a dict to rebuild from).
_DELTA_HEADROOM = 8


class _PendingAdjacency:
    """The minimal ``_adjacency`` surface ``CSRSignedGraph.apply_delta`` reads.

    ``apply_delta`` consults its ``graph`` argument for three things only:
    iteration in node order (``list(adjacency)``, when the node set changed),
    ``len(adjacency[node])`` and ``adjacency[node].items()`` for the delta's
    touched nodes.  This adapter answers all three from the facade's overlay
    rows plus the previous snapshot — no dict backend required.
    """

    __slots__ = ("_facade",)

    def __init__(self, facade: "CSRBackedSignedGraph") -> None:
        self._facade = facade

    def __iter__(self) -> Iterator[Node]:
        facade = self._facade
        yield from facade._plane_view()._nodes
        yield from facade._pending_nodes

    def __getitem__(self, node: Node) -> Dict[Node, Sign]:
        facade = self._facade
        row = facade._overlay.get(node)
        if row is None:
            row = facade._row_from_planes(node)
        return row


class _DeltaSource:
    """Pairs a :class:`_PendingAdjacency` with the generation stamp
    ``apply_delta`` copies onto the patched snapshot."""

    __slots__ = ("_adjacency", "generation")

    def __init__(self, adjacency: _PendingAdjacency, generation: int) -> None:
        self._adjacency = adjacency
        self.generation = generation


class CSRBackedSignedGraph(SignedGraph):
    """A :class:`SignedGraph` whose dict backend is built lazily from CSR.

    Construction is O(1) in the number of edges: only the counters are
    derived from the planes.  The wrapped snapshot is served by
    :meth:`csr_view` verbatim (generation-stamped, so delta maintenance and
    the generational caches behave exactly as on a parsed graph), and
    mutations stay dict-free (see the module docstring).
    """

    #: The streaming churn sampler reads this to enumerate candidate edges
    #: from the CSR planes, which keeps the adjacency dicts unmaterialised.
    prefers_csr = True

    def __init__(self, csr: CSRSignedGraph) -> None:
        super().__init__()
        self._adj: Union[Dict[Node, Dict[Node, Sign]], None] = None
        self._csr = csr
        self._num_edges = csr.number_of_edges()
        self._num_positive = int(np.count_nonzero(csr.signs > 0)) // 2
        self._generation = csr.generation
        self._node_set_generation = csr.generation
        self._csr_cache = (csr.generation, csr)
        self._delta = GraphDelta()
        #: Current adjacency rows for nodes touched since the last snapshot,
        #: seeded from the planes on first touch.  Plain dicts mutated with
        #: the exact operations the dict backend would use, so row order (and
        #: hence the next snapshot's plane layout) is bit-identical.
        self._overlay: Dict[Node, Dict[Node, Sign]] = {}
        #: Nodes added since the last snapshot, in insertion order (their
        #: dense ids follow the snapshot's nodes, like the dict backend).
        self._pending_nodes: List[Node] = []
        self._pending_set = set()

    # ------------------------------------------------------- lazy dict backend

    @property
    def _adjacency(self) -> Dict[Node, Dict[Node, Sign]]:
        adj = self._adj
        if adj is None:
            adj = self._materialise()
        return adj

    @_adjacency.setter
    def _adjacency(self, value: Dict[Node, Dict[Node, Sign]]) -> None:
        self._adj = value

    @property
    def materialised(self) -> bool:
        """True once some caller has forced the dict backend into existence."""
        return self._adj is not None

    def _materialise(self) -> Dict[Node, Dict[Node, Sign]]:
        """Build the adjacency dicts from the CSR planes (row order = dict
        insertion order, the same contract as ``CSRSignedGraph.to_signed_graph``).

        Pending dict-free churn is folded into the planes first, so the dicts
        always describe the *current* graph."""
        csr = self.csr_view()
        nodes = csr._nodes
        indptr = csr.indptr.tolist()
        indices = csr.indices.tolist()
        signs = csr.signs.tolist()
        adj: Dict[Node, Dict[Node, Sign]] = {}
        for dense, node in enumerate(nodes):
            row: Dict[Node, Sign] = {}
            for position in range(indptr[dense], indptr[dense + 1]):
                row[nodes[indices[position]]] = signs[position]
            adj[node] = row
        self._adj = adj
        self._overlay.clear()
        self._pending_nodes.clear()
        self._pending_set.clear()
        return adj

    # --------------------------------------------------- dict-free churn state

    def _plane_view(self) -> CSRSignedGraph:
        """The snapshot the overlay rows and pending delta are relative to."""
        return self._csr_cache[1]

    def _row_from_planes(self, node: Node) -> Dict[Node, Sign]:
        """Reconstruct ``node``'s adjacency row (dict, CSR row order) from the
        current snapshot's planes."""
        csr = self._plane_view()
        dense = csr._index[node]
        nodes = csr._nodes
        start, stop = int(csr.indptr[dense]), int(csr.indptr[dense + 1])
        row_ids = csr.indices[start:stop].tolist()
        row_signs = csr.signs[start:stop].tolist()
        return {nodes[i]: s for i, s in zip(row_ids, row_signs)}

    def _ensure_row(self, node: Node) -> Dict[Node, Sign]:
        row = self._overlay.get(node)
        if row is None:
            row = self._row_from_planes(node)
            self._overlay[node] = row
        return row

    def _reserve_delta_headroom(self) -> None:
        """Collapse the pending delta into a snapshot before it can overflow.

        Overflow drops the logged events; the dict backend can rebuild from
        its dicts, but the dict-free facade cannot — so it snapshots early
        instead (``apply_delta`` is correct for deltas of any size)."""
        if len(self._delta) >= self._delta.max_events - _DELTA_HEADROOM:
            self.csr_view()

    # --------------------------------------------------------------- mutation

    def add_node(self, node: Node) -> None:
        if self._adj is not None:
            return SignedGraph.add_node(self, node)
        if node in self._pending_set or node in self._plane_view():
            return
        self._reserve_delta_headroom()
        self._overlay[node] = {}
        self._pending_nodes.append(node)
        self._pending_set.add(node)
        self._record_mutation(node)
        self._node_set_generation = self._generation
        self._delta.record_node_added(node)

    def add_edge(self, u: Node, v: Node, sign: Sign) -> None:
        if self._adj is not None:
            return SignedGraph.add_edge(self, u, v, sign)
        if sign not in _VALID_SIGNS:
            raise InvalidSignError(sign)
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        self._reserve_delta_headroom()
        self.add_node(u)
        self.add_node(v)
        row_u = self._ensure_row(u)
        existing = row_u.get(v)
        if existing is not None:
            if existing != sign:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) already exists with sign {existing}; "
                    "use set_sign() to change it"
                )
            return
        row_u[v] = sign
        self._ensure_row(v)[u] = sign
        self._num_edges += 1
        self._record_mutation(u, v)
        self._delta.record_edge_added(u, v, sign)
        if sign == POSITIVE:
            self._num_positive += 1

    def set_sign(self, u: Node, v: Node, sign: Sign) -> None:
        if self._adj is not None:
            return SignedGraph.set_sign(self, u, v, sign)
        if sign not in _VALID_SIGNS:
            raise InvalidSignError(sign)
        current = self.sign(u, v)
        if current == sign:
            return
        self._reserve_delta_headroom()
        self._ensure_row(u)[v] = sign
        self._ensure_row(v)[u] = sign
        self._record_mutation(u, v)
        self._delta.record_sign_changed(u, v, sign)
        if sign == POSITIVE:
            self._num_positive += 1
        else:
            self._num_positive -= 1

    def remove_edge(self, u: Node, v: Node) -> None:
        if self._adj is not None:
            return SignedGraph.remove_edge(self, u, v)
        sign = self.sign(u, v)
        self._reserve_delta_headroom()
        del self._ensure_row(u)[v]
        del self._ensure_row(v)[u]
        self._num_edges -= 1
        self._record_mutation(u, v)
        self._delta.record_edge_removed(u, v)
        if sign == POSITIVE:
            self._num_positive -= 1

    def remove_node(self, node: Node) -> None:
        # Node removal reshuffles every dense id; it is rare, dict-shaped
        # work — materialise (folding pending churn first) and let the dict
        # machinery handle it.
        if self._adj is None:
            if node not in self:
                raise NodeNotFoundError(node)
            self._materialise()
        return SignedGraph.remove_node(self, node)

    # ------------------------------------------------------------ CSR snapshot

    def csr_view(self) -> CSRSignedGraph:
        """The CSR snapshot of the current graph (cached per generation).

        Dict-free: pending churn is folded into the previous snapshot through
        :meth:`CSRSignedGraph.apply_delta`, driven by the overlay rows instead
        of adjacency dicts.  Bit-identical (arrays, node order, dtypes) to
        ``csr_view()`` on a dict graph that saw the same mutations."""
        if self._adj is not None:
            return SignedGraph.csr_view(self)
        cached_generation, view = self._csr_cache
        if cached_generation == self._generation:
            return view
        source = _DeltaSource(_PendingAdjacency(self), self._generation)
        patched = CSRSignedGraph.apply_delta(view, source, self._delta)
        self._csr_cache = (self._generation, patched)
        self._delta = GraphDelta(max_events=self._delta.max_events)
        self._overlay.clear()
        self._pending_nodes.clear()
        self._pending_set.clear()
        return patched

    def affected_nodes_since(self, generation: int):
        """Same contract as :meth:`SignedGraph.affected_nodes_since`, answered
        with a vectorised sweep over the planes instead of the dicts."""
        if self._adj is not None:
            return SignedGraph.affected_nodes_since(self, generation)
        if generation >= self._generation:
            return frozenset()
        if generation in self._affected_memo:
            return self._affected_memo[generation]
        seeds = [node for node, gen in self._touched.items() if gen > generation]
        num_nodes = len(self)
        result: Optional[frozenset]
        if 2 * len(seeds) >= num_nodes:
            result = None
        else:
            csr = self.csr_view()
            index = csr._index
            seed_ids = np.array(
                [index[s] for s in seeds if s in index], dtype=np.int64
            )
            reached = component_members(csr, seed_ids)
            affected_count = reached.size + (len(seeds) - seed_ids.size)
            if 2 * affected_count >= num_nodes:
                result = None
            else:
                nodes = csr._nodes
                affected = set(map(nodes.__getitem__, reached.tolist()))
                affected.update(seeds)
                result = frozenset(affected)
        if len(self._affected_memo) >= _AFFECTED_MEMO_BOUND:
            self._affected_memo.clear()
        self._affected_memo[generation] = result
        return result

    def copy(self) -> SignedGraph:
        """An independent graph with the same nodes and edges.

        Dict-free when this facade is: the copy is a fresh facade over the
        current snapshot (planes are immutable, so sharing them is safe)."""
        if self._adj is not None:
            return SignedGraph.copy(self)
        return CSRBackedSignedGraph(self.csr_view())

    # ------------------------------------------------- CSR-served query surface

    def __contains__(self, node: Node) -> bool:
        if self._adj is not None:
            return node in self._adj
        return node in self._pending_set or node in self._plane_view()

    def has_node(self, node: Node) -> bool:
        return self.__contains__(node)

    def __len__(self) -> int:
        if self._adj is not None:
            return len(self._adj)
        return self._plane_view().number_of_nodes() + len(self._pending_nodes)

    def number_of_nodes(self) -> int:
        return self.__len__()

    def __iter__(self) -> Iterator[Node]:
        if self._adj is not None:
            return iter(self._adj)
        if self._pending_nodes:
            return iter(self._plane_view()._nodes + self._pending_nodes)
        return iter(self._plane_view()._nodes)

    def nodes(self) -> List[Node]:
        if self._adj is not None:
            return list(self._adj)
        if self._pending_nodes:
            return self._plane_view()._nodes + self._pending_nodes
        return self._plane_view().nodes()

    def degree(self, node: Node) -> int:
        if self._adj is not None:
            return SignedGraph.degree(self, node)
        row = self._overlay.get(node)
        if row is not None:
            return len(row)
        csr = self._plane_view()
        dense = csr.index_of(node)
        return int(csr.indptr[dense + 1] - csr.indptr[dense])

    def has_edge(self, u: Node, v: Node) -> bool:
        if self._adj is not None:
            return SignedGraph.has_edge(self, u, v)
        row = self._overlay.get(u)
        if row is not None:
            return v in row
        csr = self._plane_view()
        if u not in csr or v not in csr:
            return False
        du, dv = csr._index[u], csr._index[v]
        plane_row = csr.indices[csr.indptr[du] : csr.indptr[du + 1]]
        return bool((plane_row == dv).any())

    def sign(self, u: Node, v: Node) -> Sign:
        if self._adj is not None:
            return SignedGraph.sign(self, u, v)
        if u not in self:
            raise NodeNotFoundError(u)
        if v not in self:
            raise NodeNotFoundError(v)
        row = self._overlay.get(u)
        if row is not None:
            try:
                return row[v]
            except KeyError:
                raise EdgeNotFoundError(u, v) from None
        csr = self._plane_view()
        du = csr._index[u]
        dv = csr._index.get(v)
        if dv is None:
            raise EdgeNotFoundError(u, v)
        start, stop = int(csr.indptr[du]), int(csr.indptr[du + 1])
        plane_row = csr.indices[start:stop]
        hit = np.flatnonzero(plane_row == dv)
        if hit.size == 0:
            raise EdgeNotFoundError(u, v)
        return int(csr.signs[start + int(hit[0])])

    def neighbors(self, node: Node) -> Iterator[Node]:
        if self._adj is not None:
            return SignedGraph.neighbors(self, node)
        row = self._overlay.get(node)
        if row is not None:
            return iter(list(row))
        csr = self._plane_view()
        dense = csr.index_of(node)
        nodes = csr._nodes
        plane_row = csr.indices[csr.indptr[dense] : csr.indptr[dense + 1]]
        return iter([nodes[i] for i in plane_row.tolist()])

    def signed_neighbors(self, node: Node) -> Iterator[Tuple[Node, Sign]]:
        if self._adj is not None:
            return SignedGraph.signed_neighbors(self, node)
        row = self._overlay.get(node)
        if row is not None:
            return iter(list(row.items()))
        csr = self._plane_view()
        dense = csr.index_of(node)
        nodes = csr._nodes
        start, stop = int(csr.indptr[dense]), int(csr.indptr[dense + 1])
        plane_row = csr.indices[start:stop].tolist()
        row_signs = csr.signs[start:stop].tolist()
        return iter([(nodes[i], s) for i, s in zip(plane_row, row_signs)])

    def edges(self) -> Iterator[SignedEdge]:
        """Iterate over every edge exactly once, dict-free.

        Emission order matches the dict backend's ``edges()`` exactly: an
        undirected edge surfaces at its first row-major appearance in the
        planes, which (CSR row order = dict insertion order) is the first
        time the dict scan would see the pair."""
        if self._adj is not None:
            return SignedGraph.edges(self)
        csr = self.csr_view()
        us, vs, ss = csr.edge_arrays()
        nodes = csr._nodes

        def _iterate() -> Iterator[SignedEdge]:
            for u, v, s in zip(us.tolist(), vs.tolist(), ss.tolist()):
                yield SignedEdge(nodes[u], nodes[v], s)

        return _iterate()

    def __repr__(self) -> str:
        if self._adj is not None:
            state = "materialised"
        elif self._delta:
            state = "csr-only, pending delta"
        else:
            state = "csr-only"
        return (
            f"CSRBackedSignedGraph(nodes={self.number_of_nodes()}, "
            f"edges={self.number_of_edges()}, {state})"
        )


#: One shared facade per CSR snapshot.  Keyed by ``id(csr)``: the facade holds
#: a strong reference to its snapshot, so as long as an entry's facade is
#: alive the id cannot be recycled; when the facade dies the entry goes with
#: it (weak values).  The ``_csr is csr`` re-check makes stale hits impossible
#: even under exotic GC timing.
_CANONICAL: "weakref.WeakValueDictionary[int, CSRBackedSignedGraph]" = (
    weakref.WeakValueDictionary()
)


def as_signed_graph(graph: Union[SignedGraph, CSRSignedGraph]) -> SignedGraph:
    """Adapt ``graph`` to the :class:`SignedGraph` interface.

    ``SignedGraph`` instances (including existing facades) pass through
    unchanged; a bare :class:`CSRSignedGraph` is wrapped in the process-wide
    canonical :class:`CSRBackedSignedGraph` for that snapshot.
    """
    if isinstance(graph, SignedGraph):
        return graph
    if isinstance(graph, CSRSignedGraph):
        key = id(graph)
        wrapper = _CANONICAL.get(key)
        if wrapper is not None and wrapper._csr is graph:
            return wrapper
        wrapper = CSRBackedSignedGraph(graph)
        _CANONICAL[key] = wrapper
        return wrapper
    raise TypeError(
        f"expected a SignedGraph or CSRSignedGraph, got {type(graph).__name__}"
    )
