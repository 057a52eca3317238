"""Generation-keyed LRU caching for per-source results on dynamic graphs.

The compatibility layers cache one expensive result per *source node* (a
signed BFS, a balanced-path search, a distance map, a rule mask).  On a static
graph a plain :class:`~repro.utils.lru.LRUCache` suffices; on a mutating graph
every cached entry is implicitly keyed by the graph state it was computed
against.  :class:`GenerationalLRUCache` makes that key explicit: entries are
valid for ``(source, generation)`` where ``generation`` is the cache's sync
point with :attr:`repro.signed.graph.SignedGraph.generation`.

Rather than storing the generation in every key (which would leave stale
entries pinned until eviction), the cache *re-keys in bulk*: on the first
access after the graph's generation moved, it asks the graph which sources
may have stale results
(:meth:`~repro.signed.graph.SignedGraph.affected_nodes_since` — conservative
by connected component of the current graph), drops exactly those entries,
and promotes every survivor to the new generation.  A mutation in one
component therefore never throws away the cached work of another — the
targeted-invalidation half of the ROADMAP's dynamic-graph item.

The class subclasses :class:`LRUCache`, so byte-aware bounds, hit/miss
statistics and the batched read-through helper
(:func:`~repro.utils.lru.fetch_batched`) all work unchanged.
"""

from __future__ import annotations

from typing import Optional, TypeVar

from repro.utils.lru import LRUCache

K = TypeVar("K")
V = TypeVar("V")


class GenerationalLRUCache(LRUCache[K, V]):
    """An :class:`LRUCache` whose entries auto-expire with graph mutations.

    Parameters
    ----------
    graph:
        The :class:`~repro.signed.graph.SignedGraph` whose ``generation``
        stamps entry validity.  Keys must be source nodes of this graph (the
        per-source caches' natural keys) so that the graph's affected-node
        sets apply to them directly.
    maxsize / bytes_per_entry:
        Forwarded to :class:`LRUCache`.
    component_local:
        Whether a cached result depends only on its source's connected
        component (true for BFS-style results).  When false (e.g. the NNE
        relation's complement-style sets), any node addition or removal
        invalidates everything; edge-level mutations still invalidate by
        component, which remains a superset of the touched endpoints.
    """

    def __init__(
        self,
        graph,
        maxsize: int,
        bytes_per_entry: Optional[int] = None,
        component_local: bool = True,
    ) -> None:
        super().__init__(maxsize=maxsize, bytes_per_entry=bytes_per_entry)
        self._graph = graph
        self._generation = graph.generation
        self._component_local = component_local
        self._invalidations = 0

    @property
    def generation(self) -> int:
        """The graph generation the cached entries are valid for."""
        return self._generation

    @property
    def invalidations(self) -> int:
        """Entries dropped by generation sync (targeted invalidation)."""
        return self._invalidations

    def sync(self) -> None:
        """Re-key the cache to the graph's current generation.

        Entries whose source may be affected by the mutations since the last
        sync are dropped; all others are promoted to the new generation.
        Called automatically before every read and write, so explicit calls
        are only needed to make invalidation timing deterministic (tests,
        benchmarks).
        """
        generation = self._graph.generation
        if generation == self._generation:
            return
        if not self._component_local and self._graph.node_set_changed_since(
            self._generation
        ):
            affected = None
        else:
            affected = self._graph.affected_nodes_since(self._generation)
        self._generation = generation
        if affected is None:
            self._invalidations += len(self._data)
            self._data.clear()
        elif affected:
            for key in [key for key in self._data if key in affected]:
                if self.discard(key):
                    self._invalidations += 1

    def clear(self) -> None:
        """Drop every entry and fast-forward to the current generation."""
        super().clear()
        self._generation = self._graph.generation

    # Every access syncs first, so a mutated graph can never serve (or accept)
    # an entry under a stale generation.

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        self.sync()
        return super().get(key, default)

    def __setitem__(self, key: K, value: V) -> None:
        self.sync()
        super().__setitem__(key, value)

    def __contains__(self, key: K) -> bool:
        self.sync()
        return super().__contains__(key)

    def __len__(self) -> int:
        self.sync()
        return super().__len__()

    def __iter__(self):
        self.sync()
        return super().__iter__()

    def items(self):
        self.sync()
        return super().items()

    def __repr__(self) -> str:
        return (
            f"GenerationalLRUCache(len={len(self._data)}, maxsize={self.maxsize}, "
            f"generation={self._generation}, invalidations={self._invalidations})"
        )
