"""A minimal bounded LRU mapping used by the per-source caches.

The compatibility relations keep one expensive result per queried source node
(a signed BFS, a balanced-path search, a distance map).  Left unbounded, a full
:class:`~repro.compatibility.matrix.CompatibilityMatrix` on a large graph holds
``O(n)`` results of ``O(n)`` size each — an easy OOM.  :class:`LRUCache` gives
those caches a configurable ceiling while keeping the common small-graph
workloads (where every source fits) entirely unaffected.

Because every cached entry is O(n) in the graph size, a fixed *entry* bound is
only half the story: 4096 entries of a million-node graph is hundreds of
gigabytes.  :func:`scaled_cache_size` turns a byte budget into an entry bound
for a given per-entry size, and every per-source cache takes its bound from
it, so the bounds shrink automatically on huge graphs.
:attr:`LRUCache.approx_bytes` exposes the resulting byte estimate for
introspection and tests.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterator, Optional, Tuple, TypeVar

K = TypeVar("K")
V = TypeVar("V")

_MISSING = object()

#: Default memory budget (bytes) a single per-source cache may grow to under
#: :func:`scaled_cache_size`.  256 MiB per cache keeps a handful of caches
#: (BFS results, compatible sets, distance maps) within a few GiB total.
DEFAULT_CACHE_BUDGET_BYTES = 256 * 1024 * 1024

#: Rough per-node cost (bytes) of one cached per-source entry.  Dict-backed
#: results pay ~90 bytes per reachable node (dict slots + boxed ints), CSR
#: results ~20 (three numpy scalars); 64 is a deliberate middle ground — this
#: is an order-of-magnitude guard against OOM, not an accounting system.
APPROX_BYTES_PER_NODE = 64

#: Smallest entry bound ``scaled_cache_size`` will return: even on graphs so
#: large that a single entry busts the budget, a few entries must stay cached
#: or the per-pair query paths degrade to recomputing every source.
MIN_SCALED_CACHE_ENTRIES = 4


def fetch_batched(cache, keys, compute_missing):
    """Batched read-through against an :class:`LRUCache`.

    Probes ``cache`` for every key, computes the misses with **one**
    ``compute_missing(missing_keys) -> values`` call (deduplicated, input
    order preserved), writes them through, and returns the values aligned
    with ``keys``.  Results are held locally for the duration of the call, so
    a batch larger than the cache bound is still computed exactly once even
    though the write-through may evict earlier entries.

    This is the single implementation of the probe → dedup → batch-compute →
    write-through pattern shared by the relations' ``batch_bfs`` /
    ``batch_compatible_sets`` and the distance oracle's ``warm``.
    """
    found = {}
    for key in keys:
        value = cache.get(key)
        if value is not None:
            found[key] = value
    missing = [key for key in dict.fromkeys(keys) if key not in found]
    if missing:
        for key, value in zip(missing, compute_missing(missing)):
            found[key] = value
            cache[key] = value
    return [found[key] for key in keys]


def scaled_cache_size(
    ceiling: int,
    num_nodes: int,
    bytes_per_node: int = APPROX_BYTES_PER_NODE,
    budget_bytes: int = DEFAULT_CACHE_BUDGET_BYTES,
    minimum: int = MIN_SCALED_CACHE_ENTRIES,
) -> int:
    """Entry bound for a per-source cache whose entries are O(``num_nodes``).

    Returns ``budget_bytes // entry_bytes`` clamped below by ``minimum`` and
    above by ``ceiling``, where ``entry_bytes = num_nodes * bytes_per_node``.
    On small graphs this is simply ``ceiling`` (the historical defaults); on
    million-node graphs it shrinks so the cache cannot exceed the byte budget
    by more than ``minimum`` entries.
    """
    entry_bytes = max(1, num_nodes) * max(1, bytes_per_node)
    fitting = budget_bytes // entry_bytes
    return min(ceiling, max(minimum, fitting))


class LRUCache(Generic[K, V]):
    """A dict-like mapping that evicts its least-recently-used entry when full.

    Supports the small subset of the mapping protocol the relation caches use:
    ``get``, ``__setitem__``, ``__contains__``, ``__len__``, ``items``,
    ``clear``.  Reads (``get``) refresh recency; membership tests do not.

    Example
    -------
    >>> cache = LRUCache(maxsize=2)
    >>> cache["a"] = 1
    >>> cache["b"] = 2
    >>> _ = cache.get("a")   # refresh "a"
    >>> cache["c"] = 3       # evicts "b", the least recently used
    >>> sorted(cache)
    ['a', 'c']
    """

    def __init__(
        self,
        maxsize: Optional[int] = None,
        bytes_per_entry: Optional[int] = None,
    ) -> None:
        if maxsize is not None and maxsize <= 0:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        if bytes_per_entry is not None and bytes_per_entry < 0:
            raise ValueError(
                f"bytes_per_entry must be non-negative or None, got {bytes_per_entry}"
            )
        self._maxsize = maxsize
        self._bytes_per_entry = bytes_per_entry
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def maxsize(self) -> Optional[int]:
        """The capacity bound (``None`` means unbounded)."""
        return self._maxsize

    @property
    def bytes_per_entry(self) -> Optional[int]:
        """Estimated size of one entry (``None`` when the owner gave no hint)."""
        return self._bytes_per_entry

    @property
    def approx_bytes(self) -> Optional[int]:
        """Estimated memory held by the cache (``None`` without a size hint).

        The estimate is ``len(cache) * bytes_per_entry`` using the hint the
        owning relation supplied (typically ``num_nodes * bytes_per_node``);
        it tracks occupancy, not the true interned object sizes.
        """
        if self._bytes_per_entry is None:
            return None
        return len(self._data) * self._bytes_per_entry

    @property
    def hits(self) -> int:
        """Number of successful :meth:`get` lookups."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed :meth:`get` lookups."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries dropped to respect ``maxsize``."""
        return self._evictions

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value for ``key`` (refreshing recency) or ``default``."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self._misses += 1
            return default
        self._hits += 1
        self._data.move_to_end(key)
        return value  # type: ignore[return-value]

    def __setitem__(self, key: K, value: V) -> None:
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self._maxsize is not None and len(self._data) > self._maxsize:
            self._data.popitem(last=False)
            self._evictions += 1

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def items(self) -> Iterator[Tuple[K, V]]:
        """Iterate over ``(key, value)`` pairs, least recently used first."""
        return iter(self._data.items())

    def discard(self, key: K) -> bool:
        """Drop ``key`` if present; returns whether an entry was removed.

        Unlike evictions, discards are the owner's explicit invalidation
        (e.g. generation-based dropping of stale entries) and therefore do
        not count towards :attr:`evictions`.
        """
        return self._data.pop(key, _MISSING) is not _MISSING

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._data.clear()

    def __repr__(self) -> str:
        approx = self.approx_bytes
        bytes_part = f", approx_bytes={approx}" if approx is not None else ""
        return (
            f"LRUCache(len={len(self._data)}, maxsize={self._maxsize}, "
            f"hits={self._hits}, misses={self._misses}, evictions={self._evictions}"
            f"{bytes_part})"
        )
