"""Path algorithms on signed graphs, in plain Python.

This module states the path machinery the compatibility relations are built
on.  The relations run the CSR kernels of :mod:`repro.signed.csr`; these
functions are the readable statement of the same algorithms, the reference
the tests compare those kernels against, and — through :func:`signed_bfs`'s
Python-int counts — the fallback for a source whose path counts overflow
``int64``:

* :func:`signed_bfs` — **Algorithm 1** of the paper: a single BFS from a query
  node that counts, for every other node, the number of *positive* and
  *negative* shortest paths and the shortest-path length.
* :func:`shortest_path_lengths` — plain sign-agnostic BFS distances.
* :func:`shortest_signed_walk_lengths` — shortest positive / negative *walk*
  lengths via a two-layer ("signed double cover") BFS; the reference for the
  CSR walk kernel.
* :func:`all_shortest_paths` / :func:`enumerate_simple_paths` — explicit path
  enumeration, used by tests that cross-check the counting BFS.
* :class:`BalancedPathSearch` — exact and heuristic search for positive
  *structurally balanced* paths (the SBP / SBPH relations of the paper).

The exact balanced-path search exploits the fact that an induced subgraph of a
balanced graph is balanced: if the nodes visited so far induce an unbalanced
subgraph, no extension of the path can become balanced, so the prefix can be
pruned.  The search is still worst-case exponential (the paper proves the
prefix property fails for balanced paths, Figure 1(b)), which is why the
heuristic variant exists.  Its states are bitmasks over dense node ids (the
path's nodes and its Harary camps), so extending a path copies nothing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import NodeNotFoundError
from repro.signed.balance import path_is_balanced
from repro.signed.graph import NEGATIVE, POSITIVE, Node, Sign, SignedGraph

#: Sentinel length for unreachable nodes.
INFINITY = float("inf")

#: Default cap on the path extensions one exact balanced-path search performs
#: (:class:`BalancedPathSearch`, the SBP relation and its search kernels).
DEFAULT_MAX_EXPANSIONS = 2_000_000


@dataclass
class SignedBFSResult:
    """Output of :func:`signed_bfs` (Algorithm 1).

    Attributes
    ----------
    source:
        The query node the BFS started from.
    positive_counts / negative_counts:
        For every reachable node ``x``, the number of positive / negative
        shortest paths from the source to ``x``.
    lengths:
        Shortest-path length from the source to every reachable node.
    """

    source: Node
    positive_counts: Dict[Node, int]
    negative_counts: Dict[Node, int]
    lengths: Dict[Node, int]

    def length(self, node: Node) -> float:
        """Shortest-path length to ``node`` (``inf`` if unreachable)."""
        return self.lengths.get(node, INFINITY)

    def counts(self, node: Node) -> Tuple[int, int]:
        """Return ``(positive, negative)`` shortest-path counts for ``node``."""
        return (self.positive_counts.get(node, 0), self.negative_counts.get(node, 0))

    def reachable(self, node: Node) -> bool:
        """True iff ``node`` is reachable from the source."""
        return node in self.lengths


def signed_bfs(graph: SignedGraph, source: Node) -> SignedBFSResult:
    """Count positive and negative shortest paths from ``source`` (Algorithm 1).

    A standard BFS processes nodes level by level.  When node ``x`` is reached
    from node ``u`` along a shortest path (``L(x) == L(u) + 1``), the path
    counts of ``u`` are added to those of ``x``: through a positive edge the
    signs are preserved, through a negative edge they are swapped ("the enemy
    of my enemy is my friend").  Every edge is examined at most twice, so the
    complexity is O(|V| + |E|).
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    positive: Dict[Node, int] = {source: 1}
    negative: Dict[Node, int] = {source: 0}
    lengths: Dict[Node, int] = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for x, sign in graph.signed_neighbors(u):
            if x not in lengths:
                lengths[x] = lengths[u] + 1
                positive.setdefault(x, 0)
                negative.setdefault(x, 0)
                queue.append(x)
            if lengths[x] == lengths[u] + 1:
                if sign == POSITIVE:
                    positive[x] = positive.get(x, 0) + positive[u]
                    negative[x] = negative.get(x, 0) + negative[u]
                else:
                    negative[x] = negative.get(x, 0) + positive[u]
                    positive[x] = positive.get(x, 0) + negative[u]
    return SignedBFSResult(
        source=source, positive_counts=positive, negative_counts=negative, lengths=lengths
    )


def count_signed_shortest_paths(
    graph: SignedGraph, source: Node, target: Node
) -> Tuple[int, int, float]:
    """Return ``(positive, negative, length)`` shortest-path data for one pair.

    Convenience wrapper around :func:`signed_bfs` for single-pair queries; for
    many targets from the same source, call :func:`signed_bfs` once instead.
    """
    if target not in graph:
        raise NodeNotFoundError(target)
    result = signed_bfs(graph, source)
    pos, neg = result.counts(target)
    return pos, neg, result.length(target)


def shortest_path_lengths(graph: SignedGraph, source: Node) -> Dict[Node, int]:
    """Sign-agnostic BFS distances from ``source`` to every reachable node."""
    if source not in graph:
        raise NodeNotFoundError(source)
    lengths = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for x in graph.neighbors(u):
            if x not in lengths:
                lengths[x] = lengths[u] + 1
                queue.append(x)
    return lengths


def shortest_signed_walk_lengths(
    graph: SignedGraph, source: Node
) -> Tuple[Dict[Node, int], Dict[Node, int]]:
    """Shortest positive and negative *walk* lengths from ``source``.

    Uses a BFS on the signed double cover: each node ``v`` becomes two states
    ``(v, +1)`` and ``(v, -1)`` recording the parity of negative edges used so
    far.  A positive edge keeps the parity, a negative edge flips it.  The
    returned dictionaries map each node to the length of the shortest walk of
    positive (respectively negative) sign, omitting nodes with no such walk.

    Note that a shortest signed *walk* may revisit nodes, so these lengths are
    a lower bound on shortest signed simple-path lengths; for pairs connected
    by a positive shortest path the two coincide.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    distances: Dict[Tuple[Node, Sign], int] = {(source, POSITIVE): 0}
    queue = deque([(source, POSITIVE)])
    while queue:
        node, parity = queue.popleft()
        base = distances[(node, parity)]
        for neighbor, sign in graph.signed_neighbors(node):
            next_parity = parity * sign
            state = (neighbor, next_parity)
            if state not in distances:
                distances[state] = base + 1
                queue.append(state)
    positive_lengths = {
        node: dist for (node, parity), dist in distances.items() if parity == POSITIVE
    }
    negative_lengths = {
        node: dist for (node, parity), dist in distances.items() if parity == NEGATIVE
    }
    return positive_lengths, negative_lengths


def all_shortest_paths(graph: SignedGraph, source: Node, target: Node) -> List[List[Node]]:
    """Enumerate every shortest path between ``source`` and ``target``.

    Returns a list of node sequences (each starting at ``source`` and ending
    at ``target``); the empty list if ``target`` is unreachable.  Used by the
    tests to validate the counting BFS and by the exact SP relations on tiny
    graphs.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    if source == target:
        return [[source]]
    lengths = shortest_path_lengths(graph, source)
    if target not in lengths:
        return []
    # Predecessor DAG restricted to shortest paths.
    predecessors: Dict[Node, List[Node]] = {}
    for node, dist in lengths.items():
        for neighbor in graph.neighbors(node):
            if lengths.get(neighbor, INFINITY) == dist - 1:
                predecessors.setdefault(node, []).append(neighbor)
    paths: List[List[Node]] = []
    stack: List[Node] = [target]

    def backtrack(node: Node) -> None:
        if node == source:
            paths.append(list(reversed(stack)))
            return
        for pred in predecessors.get(node, []):
            stack.append(pred)
            backtrack(pred)
            stack.pop()

    backtrack(target)
    return paths


def enumerate_simple_paths(
    graph: SignedGraph,
    source: Node,
    target: Node,
    max_length: Optional[int] = None,
) -> Iterator[List[Node]]:
    """Yield every simple path from ``source`` to ``target`` up to ``max_length`` edges.

    Paths are produced in non-decreasing order of length.  ``max_length`` of
    ``None`` means no bound (use with care — the number of simple paths grows
    exponentially).
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    bound = max_length if max_length is not None else graph.number_of_nodes()
    if bound < 0:
        raise ValueError(f"max_length must be non-negative, got {max_length}")
    queue: deque = deque()
    queue.append([source])
    while queue:
        path = queue.popleft()
        last = path[-1]
        if last == target and len(path) > 1 or (last == target and source == target):
            yield path
            continue
        if len(path) - 1 >= bound:
            continue
        on_path = set(path)
        for neighbor in graph.neighbors(last):
            if neighbor in on_path:
                continue
            queue.append(path + [neighbor])


def _extend_camps(
    graph: SignedGraph,
    path: Sequence[Node],
    camps: Dict[Node, int],
    new_node: Node,
) -> Optional[Dict[Node, int]]:
    """Try to extend a balanced path by one node, keeping its two-colouring.

    ``camps`` is the unique (up to flip) Harary two-colouring of the subgraph
    induced by ``path`` — which is balanced and connected, so the colouring is
    well defined.  The extended node set is balanced iff every edge from
    ``new_node`` back into the path agrees on a single camp for ``new_node``.
    Returns the extended colouring, or ``None`` if the extension is unbalanced.

    This is an O(degree) incremental equivalent of re-running
    :func:`repro.signed.balance.induced_subgraph_is_balanced` on the extended
    node set.
    """
    required: Optional[int] = None
    on_path = camps
    for neighbor, sign in graph.signed_neighbors(new_node):
        camp = on_path.get(neighbor)
        if camp is None:
            continue
        expected = camp if sign == POSITIVE else 1 - camp
        if required is None:
            required = expected
        elif required != expected:
            return None
    if required is None:
        # No edge back into the path: cannot happen for path extensions (the
        # path edge itself links new_node to the last node), but keep the
        # function total for defensive callers.
        required = 0
    extended = dict(camps)
    extended[new_node] = required
    return extended


@dataclass
class BalancedPathResult:
    """Per-target outcome of a balanced-path search from a fixed source.

    ``positive_lengths`` / ``negative_lengths`` hold, for each reached node,
    the length of the shortest structurally balanced path of that sign found
    by the search.  For the exact search these are true minima (within the
    configured length cap); for the heuristic search they are upper bounds.
    The relations' results (from the ``csr_sbph`` kernel) hold read-only
    :class:`~repro.signed.csr.CSRLengths` views over the search's dense
    depth rows instead of dicts; read them by node.
    """

    source: Node
    positive_lengths: Dict[Node, int] = field(default_factory=dict)
    negative_lengths: Dict[Node, int] = field(default_factory=dict)
    exact: bool = True
    max_length: Optional[int] = None
    truncated: bool = False

    def has_positive_path(self, node: Node) -> bool:
        """True iff a positive structurally balanced path to ``node`` was found."""
        return node in self.positive_lengths

    def positive_length(self, node: Node) -> float:
        """Length of the best positive balanced path found (``inf`` if none)."""
        return self.positive_lengths.get(node, INFINITY)


class BalancedPathSearch:
    """Search for positive structurally balanced paths from a source node.

    Two modes are provided, matching the paper:

    * :meth:`search_exact` — exhaustive enumeration of structurally balanced
      simple paths (with pruning of unbalanced prefixes, which is sound
      because balance is hereditary under induced subgraphs).  Worst-case
      exponential; intended for small graphs, like the paper's use of SBP on
      Slashdot only.
    * :meth:`search_heuristic` — the SBPH heuristic: only paths that satisfy
      the *prefix property* are extended, i.e. for every (node, sign) state the
      search keeps a single representative shortest balanced path and extends
      only that one.  Linear in practice, but may miss balanced paths whose
      prefixes are not themselves the recorded representatives (Figure 1(b)).

    Parameters
    ----------
    graph:
        The signed graph to search.
    max_length:
        Maximum number of edges in a path; ``None`` uses ``|V| - 1``.
    max_expansions:
        Safety cap on the number of path extensions performed by the exact
        search; when hit, the result is flagged ``truncated=True``.
    """

    def __init__(
        self,
        graph: SignedGraph,
        max_length: Optional[int] = None,
        max_expansions: int = DEFAULT_MAX_EXPANSIONS,
    ) -> None:
        if max_length is not None and max_length < 0:
            raise ValueError(f"max_length must be non-negative, got {max_length}")
        if max_expansions <= 0:
            raise ValueError(f"max_expansions must be positive, got {max_expansions}")
        self._graph = graph
        self._max_length = max_length
        self._max_expansions = max_expansions
        self._bit_index: Optional[Tuple[int, tuple]] = None

    def _bitsets(self) -> tuple:
        """``(nodes, ids, neighbours, positive, negative)`` over dense ids.

        Dense ids follow ``graph.nodes()`` order; ``neighbours[i]`` lists the
        ids of ``signed_neighbors`` in adjacency order and ``positive[i]`` /
        ``negative[i]`` are the neighbour bitmasks of each sign.  Built once
        per graph generation.
        """
        graph = self._graph
        if self._bit_index is None or self._bit_index[0] != graph.generation:
            nodes = graph.nodes()
            ids = {node: dense for dense, node in enumerate(nodes)}
            neighbours, positive, negative = [], [], []
            for node in nodes:
                row, masks = [], {POSITIVE: 0, NEGATIVE: 0}
                for neighbor, sign in graph.signed_neighbors(node):
                    row.append(ids[neighbor])
                    masks[sign] |= 1 << ids[neighbor]
                neighbours.append(row)
                positive.append(masks[POSITIVE])
                negative.append(masks[NEGATIVE])
            self._bit_index = (graph.generation, (nodes, ids, neighbours, positive, negative))
        return self._bit_index[1]

    def search_exact(self, source: Node, target: Optional[Node] = None) -> BalancedPathResult:
        """Exhaustively search balanced paths from ``source``.

        When ``target`` is given the search stops as soon as a positive
        balanced path to ``target`` has been found (the BFS order guarantees it
        is a shortest one); otherwise the whole graph is explored.

        A queue entry is ``(last, length, on_path, camp_one)``: the path's
        nodes and the Harary camp opposite the source's are bitmasks over
        dense ids, so the incremental balance check of :func:`_extend_camps`
        is a handful of mask operations and no path is ever copied.  The
        relations run the same search over batches of sources
        (:func:`repro.signed.csr.balanced_depths` with ``exact=True``); this
        method is its reference.
        """
        graph = self._graph
        if source not in graph:
            raise NodeNotFoundError(source)
        bound = self._max_length if self._max_length is not None else graph.number_of_nodes() - 1
        result = BalancedPathResult(source=source, exact=True, max_length=bound)
        result.positive_lengths[source] = 0
        nodes, ids, neighbours, positive, negative = self._bitsets()
        start = ids[source]
        queue: deque = deque([(start, 0, 1 << start, 0)])
        expansions = 0
        while queue:
            last, length, on_path, camp_one = queue.popleft()
            if length >= bound:
                continue
            new_len = length + 1
            for dense in neighbours[last]:
                bit = 1 << dense
                if on_path & bit:
                    continue
                expansions += 1
                if expansions > self._max_expansions:
                    result.truncated = True
                    return result
                # Path neighbours that put the new node in camp one (friends
                # there, enemies in the source's camp) versus camp zero.
                friends = positive[dense] & on_path
                enemies = negative[dense] & on_path
                friends_one = friends & camp_one
                enemies_one = enemies & camp_one
                in_camp_one = friends_one | (enemies ^ enemies_one)
                if in_camp_one and (friends ^ friends_one) | enemies_one:
                    # Balance is hereditary: no extension of an unbalanced
                    # node set can become balanced, so prune.
                    continue
                # The path is positive iff the new node falls in the source's
                # camp (negative edges flip camps along the path).
                neighbor = nodes[dense]
                lengths = result.negative_lengths if in_camp_one else result.positive_lengths
                if neighbor not in lengths:
                    lengths[neighbor] = new_len
                    if target is not None and neighbor == target and not in_camp_one:
                        return result
                # Keep extending even on repeat visits: longer or equal-length
                # balanced paths through this node may reach other nodes that
                # the first path cannot (no prefix property).
                queue.append(
                    (dense, new_len, on_path | bit, camp_one | bit if in_camp_one else camp_one)
                )
        return result

    def search_heuristic(self, source: Node) -> BalancedPathResult:
        """SBPH: extend only one representative balanced path per (node, sign).

        A BFS over ``(node, sign)`` states stores the first (hence shortest)
        balanced path that reaches each state and extends only that stored
        path.  This enforces the prefix property the exact relation lacks and
        therefore under-approximates the exact SBP relation.
        """
        graph = self._graph
        if source not in graph:
            raise NodeNotFoundError(source)
        bound = self._max_length if self._max_length is not None else graph.number_of_nodes() - 1
        result = BalancedPathResult(source=source, exact=False, max_length=bound)
        result.positive_lengths[source] = 0
        representative: Dict[Tuple[Node, Sign], Tuple[List[Node], Dict[Node, int]]] = {
            (source, POSITIVE): ([source], {source: 0})
        }
        queue: deque = deque([(source, POSITIVE)])
        while queue:
            node, sign = queue.popleft()
            path, camps = representative[(node, sign)]
            if len(path) - 1 >= bound:
                continue
            for neighbor, edge_sign in graph.signed_neighbors(node):
                if neighbor in camps:
                    continue
                new_sign = sign * edge_sign
                state = (neighbor, new_sign)
                if state in representative:
                    continue
                extended = _extend_camps(graph, path, camps, neighbor)
                if extended is None:
                    continue
                representative[state] = (path + [neighbor], extended)
                lengths = (
                    result.positive_lengths if new_sign == POSITIVE else result.negative_lengths
                )
                lengths.setdefault(neighbor, len(path))
                queue.append(state)
        return result


def shortest_balanced_positive_path(
    graph: SignedGraph,
    source: Node,
    target: Node,
    max_length: Optional[int] = None,
) -> Optional[List[Node]]:
    """Return a shortest positive structurally balanced path, or ``None``.

    Performs a breadth-first search over balanced simple paths (pruning
    unbalanced prefixes) and returns the first positive path that reaches
    ``target``; BFS order guarantees minimality.  Intended for small graphs
    and for validating the :class:`BalancedPathSearch` results in tests.
    """
    if source not in graph:
        raise NodeNotFoundError(source)
    if target not in graph:
        raise NodeNotFoundError(target)
    if source == target:
        return [source]
    bound = max_length if max_length is not None else graph.number_of_nodes() - 1
    queue: deque = deque()
    queue.append(([source], {source: 0}))
    while queue:
        path, camps = queue.popleft()
        if len(path) - 1 >= bound:
            continue
        last = path[-1]
        for neighbor, _edge_sign in graph.signed_neighbors(last):
            if neighbor in camps:
                continue
            extended = _extend_camps(graph, path, camps, neighbor)
            if extended is None:
                continue
            new_path = path + [neighbor]
            if neighbor == target and extended[neighbor] == extended[source]:
                return new_path
            queue.append((new_path, extended))
    return None
