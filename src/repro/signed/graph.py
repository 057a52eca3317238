"""The :class:`SignedGraph` data structure.

The paper works with an undirected *signed* graph ``G = (V, E)`` where every
edge carries a label in ``{+1, -1}`` ("friend" / "foe").  The class below
stores the graph as an adjacency dictionary ``{node: {neighbor: sign}}`` which
gives O(1) edge/sign lookups and cheap iteration over signed neighbourhoods —
the access pattern every algorithm in this library relies on.

Nodes can be any hashable object (the synthetic datasets use integers, the
SNAP loaders use the original string ids).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import (
    EdgeNotFoundError,
    InvalidSignError,
    NodeNotFoundError,
)
from repro.signed.delta import (
    DELTA_REBUILD_FRACTION,
    MIN_DELTA_EVENTS,
    GraphDelta,
    within_patch_budget,
)

Node = Hashable
Sign = int

#: Entries kept in the per-graph memo of ``affected_nodes_since`` results.
_AFFECTED_MEMO_BOUND = 8

#: Sign constant for a "friend" edge.
POSITIVE: Sign = 1
#: Sign constant for a "foe" edge.
NEGATIVE: Sign = -1

_VALID_SIGNS = (POSITIVE, NEGATIVE)


@dataclass(frozen=True)
class SignedEdge:
    """An undirected signed edge ``(u, v, sign)``.

    Two :class:`SignedEdge` instances compare equal iff they join the same pair
    of nodes (in either order) with the same sign.
    """

    u: Node
    v: Node
    sign: Sign

    def __post_init__(self) -> None:
        if self.sign not in _VALID_SIGNS:
            raise InvalidSignError(self.sign)

    def endpoints(self) -> Tuple[Node, Node]:
        """Return the two endpoints as a tuple ``(u, v)``."""
        return (self.u, self.v)

    def other(self, node: Node) -> Node:
        """Return the endpoint different from ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise NodeNotFoundError(node)

    def is_positive(self) -> bool:
        """True iff the edge is a friend edge."""
        return self.sign == POSITIVE

    def is_negative(self) -> bool:
        """True iff the edge is a foe edge."""
        return self.sign == NEGATIVE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedEdge):
            return NotImplemented
        same_pair = {self.u, self.v} == {other.u, other.v}
        return same_pair and self.sign == other.sign

    def __hash__(self) -> int:
        return hash((frozenset((self.u, self.v)), self.sign))


class SignedGraph:
    """An undirected graph whose edges are labelled ``+1`` (friend) or ``-1`` (foe).

    The class supports incremental construction (:meth:`add_node`,
    :meth:`add_edge`), bulk construction (:meth:`from_edges`), sign queries
    (:meth:`sign`), and iteration over nodes, edges and signed neighbourhoods.

    Example
    -------
    >>> graph = SignedGraph.from_edges([(0, 1, +1), (1, 2, -1)])
    >>> graph.sign(0, 1)
    1
    >>> sorted(graph.neighbors(1))
    [0, 2]
    >>> graph.number_of_edges()
    2
    """

    #: Whether the graph's home representation is its CSR snapshot.  Only the
    #: streaming churn sampler reads it, to enumerate candidate edges from
    #: the CSR planes instead of the adjacency dicts;
    #: :class:`repro.signed.lazy.CSRBackedSignedGraph` overrides it.
    prefers_csr = False

    def __init__(self) -> None:
        self._adjacency: Dict[Node, Dict[Node, Sign]] = {}
        self._num_edges = 0
        self._num_positive = 0
        #: Monotonically increasing snapshot stamp, bumped on every *effective*
        #: mutation (no-op writes never bump it).  The CSR view and every
        #: generation-keyed cache downstream key their validity on it.
        self._generation = 0
        self._csr_cache: Optional[Tuple[int, object]] = None
        #: The signed-BFS cache, SPO presence cache and ``(spa, spm, spo)``
        #: degree memo shared by the shortest-path relations on this graph;
        #: held here so they are freed with the graph (see
        #: repro.compatibility.shortest_path).  ``None`` until the first one.
        self._sp_caches: Optional[Tuple[object, object, object]] = None
        #: Structured mutation log since the last CSR snapshot; ``None`` until
        #: the first snapshot exists (nothing to patch before that).
        self._delta: Optional[GraphDelta] = None
        #: node -> generation at which it was last touched by a mutation.
        #: Feeds :meth:`affected_nodes_since` (targeted cache invalidation).
        self._touched: Dict[Node, int] = {}
        #: Generation of the last node addition/removal (node-set validity).
        self._node_set_generation = 0
        #: from-generation -> affected set (or None = everything), memoised for
        #: the *current* generation so the many generation-keyed caches that
        #: sync from the same point share one component sweep.
        self._affected_memo: Dict[int, Optional[FrozenSet[Node]]] = {}

    @property
    def generation(self) -> int:
        """The current mutation generation (monotonic; no-ops never bump it)."""
        return self._generation

    def _record_mutation(self, *nodes: Node) -> None:
        """Bump the generation and mark ``nodes`` as touched by it."""
        self._generation += 1
        for node in nodes:
            self._touched[node] = self._generation
        if self._affected_memo:
            self._affected_memo.clear()

    def node_set_changed_since(self, generation: int) -> bool:
        """True iff a node was added or removed after ``generation``.

        Consumers whose per-source results depend on the *whole node set*
        (e.g. the NNE relation's complement-style compatible sets) use this to
        fall back to wholesale invalidation when component-conservative
        invalidation would be unsound.
        """
        return self._node_set_generation > generation

    # ------------------------------------------------------------------ build

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node, Sign]],
        nodes: Optional[Iterable[Node]] = None,
    ) -> "SignedGraph":
        """Build a graph from ``(u, v, sign)`` triples (plus optional isolated nodes)."""
        graph = cls()
        if nodes is not None:
            for node in nodes:
                graph.add_node(node)
        for u, v, sign in edges:
            graph.add_edge(u, v, sign)
        return graph

    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph; adding an existing node is a no-op."""
        if node not in self._adjacency:
            self._adjacency[node] = {}
            self._record_mutation(node)
            self._node_set_generation = self._generation
            if self._delta is not None:
                self._delta.record_node_added(node)

    def add_edge(self, u: Node, v: Node, sign: Sign) -> None:
        """Add the undirected signed edge ``(u, v, sign)``.

        Endpoints are added automatically.  Re-adding an existing edge with the
        same sign is a no-op; re-adding it with the opposite sign raises
        :class:`ValueError` (a signed graph cannot hold parallel edges of
        conflicting sign — callers that need to *change* a sign should use
        :meth:`set_sign`).
        """
        if sign not in _VALID_SIGNS:
            raise InvalidSignError(sign)
        if u == v:
            raise ValueError(f"self-loops are not allowed (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        existing = self._adjacency[u].get(v)
        if existing is not None:
            if existing != sign:
                raise ValueError(
                    f"edge ({u!r}, {v!r}) already exists with sign {existing}; "
                    "use set_sign() to change it"
                )
            return
        self._adjacency[u][v] = sign
        self._adjacency[v][u] = sign
        self._num_edges += 1
        self._record_mutation(u, v)
        if self._delta is not None:
            self._delta.record_edge_added(u, v, sign)
        if sign == POSITIVE:
            self._num_positive += 1

    def set_sign(self, u: Node, v: Node, sign: Sign) -> None:
        """Change the sign of an existing edge ``(u, v)`` to ``sign``.

        Writing the sign the edge already has is a true no-op: the generation
        is not bumped, so the CSR view and every downstream cache stay valid.
        """
        if sign not in _VALID_SIGNS:
            raise InvalidSignError(sign)
        current = self.sign(u, v)
        if current == sign:
            return
        self._adjacency[u][v] = sign
        self._adjacency[v][u] = sign
        self._record_mutation(u, v)
        if self._delta is not None:
            self._delta.record_sign_changed(u, v, sign)
        if sign == POSITIVE:
            self._num_positive += 1
        else:
            self._num_positive -= 1

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge ``(u, v)``; raises :class:`EdgeNotFoundError` if absent."""
        sign = self.sign(u, v)
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._num_edges -= 1
        self._record_mutation(u, v)
        if self._delta is not None:
            self._delta.record_edge_removed(u, v)
        if sign == POSITIVE:
            self._num_positive -= 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        for neighbor in list(self._adjacency[node]):
            self.remove_edge(node, neighbor)
        del self._adjacency[node]
        self._record_mutation(node)
        self._node_set_generation = self._generation
        if self._delta is not None:
            self._delta.record_node_removed(node)

    # ------------------------------------------------------------------ query

    def __contains__(self, node: Node) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adjacency)

    def has_node(self, node: Node) -> bool:
        """True iff ``node`` is in the graph."""
        return node in self._adjacency

    def has_edge(self, u: Node, v: Node) -> bool:
        """True iff the undirected edge ``(u, v)`` is in the graph."""
        return u in self._adjacency and v in self._adjacency[u]

    def sign(self, u: Node, v: Node) -> Sign:
        """Return the sign of edge ``(u, v)``; raises if the edge is absent."""
        if u not in self._adjacency:
            raise NodeNotFoundError(u)
        if v not in self._adjacency:
            raise NodeNotFoundError(v)
        try:
            return self._adjacency[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def nodes(self) -> List[Node]:
        """Return a list of all nodes."""
        return list(self._adjacency)

    def edges(self) -> Iterator[SignedEdge]:
        """Iterate over every edge exactly once as a :class:`SignedEdge`."""
        seen = set()
        for u, neighborhood in self._adjacency.items():
            for v, sign in neighborhood.items():
                key = frozenset((u, v))
                if key in seen:
                    continue
                seen.add(key)
                yield SignedEdge(u, v, sign)

    def edge_triples(self) -> Iterator[Tuple[Node, Node, Sign]]:
        """Iterate over every edge exactly once as a ``(u, v, sign)`` tuple."""
        for edge in self.edges():
            yield (edge.u, edge.v, edge.sign)

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbours of ``node``."""
        try:
            return iter(self._adjacency[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def signed_neighbors(self, node: Node) -> Iterator[Tuple[Node, Sign]]:
        """Iterate over ``(neighbor, sign)`` pairs for ``node``."""
        try:
            return iter(self._adjacency[node].items())
        except KeyError:
            raise NodeNotFoundError(node) from None

    def positive_neighbors(self, node: Node) -> List[Node]:
        """Return the neighbours joined to ``node`` by a positive edge."""
        return [v for v, s in self.signed_neighbors(node) if s == POSITIVE]

    def negative_neighbors(self, node: Node) -> List[Node]:
        """Return the neighbours joined to ``node`` by a negative edge."""
        return [v for v, s in self.signed_neighbors(node) if s == NEGATIVE]

    def degree(self, node: Node) -> int:
        """Return the number of edges incident to ``node``."""
        if node not in self._adjacency:
            raise NodeNotFoundError(node)
        return len(self._adjacency[node])

    def number_of_nodes(self) -> int:
        """Return ``|V|``."""
        return len(self._adjacency)

    def number_of_edges(self) -> int:
        """Return ``|E|``."""
        return self._num_edges

    def number_of_positive_edges(self) -> int:
        """Return the number of friend edges."""
        return self._num_positive

    def number_of_negative_edges(self) -> int:
        """Return the number of foe edges."""
        return self._num_edges - self._num_positive

    # ------------------------------------------------------------- transforms

    def csr_view(self):
        """Return the indexed CSR snapshot of this graph (cached per generation).

        The view (:class:`~repro.signed.csr.CSRSignedGraph`) maps nodes to
        dense integer ids and stores adjacency as flat offset/neighbour/sign
        arrays — the backend the batched BFS algorithms run on.  Holding on to
        a stale view is safe (it is a snapshot); new queries through this
        method always reflect the current graph.

        Snapshots are **delta-maintained**: mutations since the last snapshot
        are kept in a structured :class:`~repro.signed.delta.GraphDelta`, and
        small batches (up to :data:`DELTA_REBUILD_FRACTION` of the edges)
        patch the previous snapshot's arrays
        (:meth:`~repro.signed.csr.CSRSignedGraph.apply_delta`) instead of
        rebuilding from scratch — bit-identical to a full rebuild, asserted by
        the dynamic-graph equivalence suite.  Each snapshot carries the
        :attr:`generation` it was taken at.
        """
        from repro.signed.csr import CSRSignedGraph

        cached = self._csr_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        old_view = cached[1] if cached is not None else None
        delta = self._delta
        view = None
        if (
            old_view is not None
            and delta is not None
            and delta
            and not delta.overflowed
            and within_patch_budget(len(delta), self._num_edges)
        ):
            view = CSRSignedGraph.apply_delta(old_view, self, delta)
        if view is None:
            view = CSRSignedGraph.from_signed_graph(self)
            if old_view is not None and old_view._nodes == view._nodes:
                # Same node set as the previous snapshot: share the node-list
                # and index *identity* so per-source results that survived
                # targeted cache invalidation stay dense-id compatible with
                # the new snapshot (see CSRSignedGraph.shares_index_with).
                view._nodes = old_view._nodes
                view._index = old_view._index
        self._csr_cache = (self._generation, view)
        self._delta = GraphDelta()
        return view

    def affected_nodes_since(self, generation: int) -> Optional[FrozenSet[Node]]:
        """Nodes whose per-source results may have changed since ``generation``.

        The set is conservative by connected component of the *current* graph:
        a BFS/search result rooted at ``s`` can only change when a mutation
        touches a node in ``s``'s component (edge removals keep every affected
        source connected to a touched endpoint; node removals keep them
        connected to a touched neighbour), so the union of components
        containing a touched node — plus touched nodes no longer present —
        covers every stale entry.  Returns ``None`` when most of the graph is
        affected (callers should drop everything), and the empty set when
        ``generation`` is current.  Results are memoised per ``generation``
        until the next mutation, so the many generation-keyed caches syncing
        from the same point share one sweep.
        """
        if generation >= self._generation:
            return frozenset()
        if generation in self._affected_memo:
            return self._affected_memo[generation]
        seeds = [node for node, gen in self._touched.items() if gen > generation]
        num_nodes = len(self._adjacency)
        result: Optional[FrozenSet[Node]]
        if 2 * len(seeds) >= num_nodes:
            result = None
        else:
            affected = set(seeds)
            stack = [seed for seed in seeds if seed in self._adjacency]
            adjacency = self._adjacency
            while stack:
                node = stack.pop()
                for neighbor in adjacency[node]:
                    if neighbor not in affected:
                        affected.add(neighbor)
                        stack.append(neighbor)
            result = None if 2 * len(affected) >= num_nodes else frozenset(affected)
        if len(self._affected_memo) >= _AFFECTED_MEMO_BOUND:
            self._affected_memo.clear()
        self._affected_memo[generation] = result
        return result

    def copy(self) -> "SignedGraph":
        """Return an independent copy of the graph."""
        clone = SignedGraph()
        clone._adjacency = {u: dict(nbrs) for u, nbrs in self._adjacency.items()}
        clone._num_edges = self._num_edges
        clone._num_positive = self._num_positive
        return clone

    def subgraph(self, nodes: Iterable[Node]) -> "SignedGraph":
        """Return the subgraph induced by ``nodes`` (missing nodes raise)."""
        node_set = set(nodes)
        missing = [n for n in node_set if n not in self._adjacency]
        if missing:
            raise NodeNotFoundError(missing[0])
        sub = SignedGraph()
        for node in node_set:
            sub.add_node(node)
        for node in node_set:
            for neighbor, sign in self._adjacency[node].items():
                if neighbor in node_set and not sub.has_edge(node, neighbor):
                    sub.add_edge(node, neighbor, sign)
        return sub

    def path_sign(self, path: List[Node]) -> Sign:
        """Return the sign of ``path`` — the product of its edge signs.

        ``path`` is a list of nodes; every consecutive pair must be an edge.
        A single-node path has sign ``+1`` (empty product).
        """
        sign = POSITIVE
        for u, v in zip(path, path[1:]):
            sign *= self.sign(u, v)
        return sign

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignedGraph):
            return NotImplemented
        return self._adjacency == other._adjacency

    def __repr__(self) -> str:
        return (
            f"SignedGraph(nodes={self.number_of_nodes()}, edges={self.number_of_edges()}, "
            f"negative={self.number_of_negative_edges()})"
        )
