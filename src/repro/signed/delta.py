"""Structured mutation log for dynamic signed graphs.

:class:`GraphDelta` records the effective mutations applied to a
:class:`~repro.signed.graph.SignedGraph` since its last CSR snapshot, as typed
events (edge add / remove / re-sign, node add / remove).  The log is the input
to :meth:`~repro.signed.csr.CSRSignedGraph.apply_delta`, which patches the
snapshot's flat arrays in place of a full rebuild when the delta is small.

Only *effective* mutations are recorded — a ``set_sign`` writing the sign an
edge already has, or ``add_edge`` re-adding an identical edge, is a no-op at
the graph level and therefore never reaches the log (and never invalidates
the snapshot or any downstream cache).

The log is bounded: past :data:`DEFAULT_MAX_DELTA_EVENTS` events it flips to
``overflowed`` and drops its contents, signalling "too much churn — rebuild
from scratch".  This keeps a graph that is mutated heavily between snapshots
from accumulating an unbounded event list.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, List, Set, Tuple

Node = Hashable
Sign = int

#: Events a delta log holds before flipping to ``overflowed`` (full-rebuild
#: territory anyway: the apply threshold is a few percent of the edge count).
DEFAULT_MAX_DELTA_EVENTS = 65_536

#: Fraction of the edge count a change batch may reach before the CSR view
#: abandons in-place patching and rebuilds from scratch.
DELTA_REBUILD_FRACTION = 0.05

#: Floor on the patch budget, so tiny graphs still take the patch path for
#: small batches instead of always rebuilding.
MIN_DELTA_EVENTS = 32


def within_patch_budget(num_events: int, num_edges: int) -> bool:
    """True iff a batch of ``num_events`` mutations on a graph with
    ``num_edges`` edges is small enough to patch incrementally.

    ``SignedGraph.csr_view`` patches iff the churn since its snapshot stays
    within ``max(MIN_DELTA_EVENTS, DELTA_REBUILD_FRACTION * edges)``.
    """
    return num_events <= max(MIN_DELTA_EVENTS, int(DELTA_REBUILD_FRACTION * num_edges))


class GraphDelta:
    """Typed log of the mutations applied since the last CSR snapshot.

    Attributes
    ----------
    edges_added / edges_removed:
        ``(u, v, sign)`` / ``(u, v)`` events, in application order.
    signs_changed:
        ``(u, v, new_sign)`` events for in-place re-signs.
    nodes_added / nodes_removed:
        Node events, in application order.
    overflowed:
        True once the log exceeded ``max_events``; contents are dropped and
        consumers must fall back to a full rebuild.
    """

    __slots__ = (
        "edges_added",
        "edges_removed",
        "signs_changed",
        "nodes_added",
        "nodes_removed",
        "overflowed",
        "max_events",
    )

    def __init__(self, max_events: int = DEFAULT_MAX_DELTA_EVENTS) -> None:
        if max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.edges_added: List[Tuple[Node, Node, Sign]] = []
        self.edges_removed: List[Tuple[Node, Node]] = []
        self.signs_changed: List[Tuple[Node, Node, Sign]] = []
        self.nodes_added: List[Node] = []
        self.nodes_removed: List[Node] = []
        self.overflowed = False
        self.max_events = max_events

    # ---------------------------------------------------------------- record

    def record_edge_added(self, u: Node, v: Node, sign: Sign) -> None:
        """Log the addition of edge ``(u, v, sign)``."""
        if not self.overflowed:
            self.edges_added.append((u, v, sign))
            self._check_overflow()

    def record_edge_removed(self, u: Node, v: Node) -> None:
        """Log the removal of edge ``(u, v)``."""
        if not self.overflowed:
            self.edges_removed.append((u, v))
            self._check_overflow()

    def record_sign_changed(self, u: Node, v: Node, sign: Sign) -> None:
        """Log the in-place re-sign of edge ``(u, v)`` to ``sign``."""
        if not self.overflowed:
            self.signs_changed.append((u, v, sign))
            self._check_overflow()

    def record_node_added(self, node: Node) -> None:
        """Log the addition of ``node``."""
        if not self.overflowed:
            self.nodes_added.append(node)
            self._check_overflow()

    def record_node_removed(self, node: Node) -> None:
        """Log the removal of ``node``."""
        if not self.overflowed:
            self.nodes_removed.append(node)
            self._check_overflow()

    def _check_overflow(self) -> None:
        if len(self) > self.max_events:
            self.overflowed = True
            self.edges_added.clear()
            self.edges_removed.clear()
            self.signs_changed.clear()
            self.nodes_added.clear()
            self.nodes_removed.clear()

    # ----------------------------------------------------------------- query

    def __len__(self) -> int:
        """Total number of logged events."""
        return (
            len(self.edges_added)
            + len(self.edges_removed)
            + len(self.signs_changed)
            + len(self.nodes_added)
            + len(self.nodes_removed)
        )

    def __bool__(self) -> bool:
        return self.overflowed or len(self) > 0

    @property
    def num_edge_events(self) -> int:
        """Number of edge-level events (the size measure the apply threshold uses)."""
        return len(self.edges_added) + len(self.edges_removed) + len(self.signs_changed)

    @property
    def has_node_changes(self) -> bool:
        """True iff the node set (and hence the dense-id mapping) changed."""
        return bool(self.nodes_added or self.nodes_removed)

    def touched_nodes(self) -> FrozenSet[Node]:
        """Every node whose adjacency row (or existence) the delta affects."""
        touched: Set[Node] = set()
        for u, v, _sign in self.edges_added:
            touched.add(u)
            touched.add(v)
        for u, v in self.edges_removed:
            touched.add(u)
            touched.add(v)
        for u, v, _sign in self.signs_changed:
            touched.add(u)
            touched.add(v)
        touched.update(self.nodes_added)
        touched.update(self.nodes_removed)
        return frozenset(touched)

    def __repr__(self) -> str:
        if self.overflowed:
            return f"GraphDelta(overflowed, max_events={self.max_events})"
        return (
            f"GraphDelta(+e={len(self.edges_added)}, -e={len(self.edges_removed)}, "
            f"~e={len(self.signs_changed)}, +n={len(self.nodes_added)}, "
            f"-n={len(self.nodes_removed)})"
        )
