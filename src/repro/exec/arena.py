"""The result arena: shared-memory shipping of set-valued kernel results.

The pool executor's scalar sweeps (compatibility degrees) already reduce
inside the workers, but the *set-valued* sweeps — ``csr_signed_bfs`` triples
behind ``batch_bfs``/``batch_compatible_sets``, the NNE/DPE distance
oracle's ``csr_path_lengths`` maps behind ``warm``, the SBP/SBPH depth rows
behind the balanced reverse sweeps — used to pickle O(n) arrays back to the
parent for every source.  At 50k nodes that is ~1 MB per source of
serialisation both sides of the pipe, and it was the parallel ceiling the
ROADMAP named.

This module is the codec layer that removes it:

* **One arena per dispatch.**  The parent allocates a single
  ``multiprocessing.shared_memory`` segment sized for the whole source batch
  (see :func:`arena_nbytes`; a batch over the pool's arena budget is split
  into consecutive sub-dispatches, each with its own arena), laid out as
  per-kernel *planes* — for
  ``csr_signed_bfs`` a ``(k, n)`` int32 lengths plane followed by two
  ``(k, n)`` int64 count planes, for ``csr_sbph`` two ``(k, n)`` int32
  depth planes, and so on.  Plane offsets are 8-byte aligned so every view
  is a properly aligned ndarray.
* **Chunk-strided writes.**  Each worker task knows its chunk's start
  position in the dispatch, attaches the segment by name, and writes its
  sources' rows straight through the write-into-buffer kernel variants
  (:func:`repro.signed.csr.signed_bfs_dense_batch_into` and friends) — the
  traversal's working arrays *are* the shipped result.  The task returns only
  a compact per-source token (``True``, or ``None`` marking an int64
  overflow; ``csr_signed_bfs`` marks presence rows with
  :data:`~repro.signed.csr.PRESENCE_ROW`; for ``csr_sbph`` the source's
  truncation flag), so
  worker→parent pickling is O(k), not O(k·n).
* **No-pickle reads.**  The parent maps the same segment once, builds the
  plane views, and decodes each source's result straight off them
  (:func:`decode_results`) — no pickle ever touches the dense data.
  Every result heads for a long-lived LRU cache (BFS triples, distance
  maps, balanced-path depth rows), so each is copied out row by row: a
  surviving cache entry owns exactly its own bytes instead of pinning the
  whole k-row segment.  The segment is unlinked as soon as the
  dispatch completes (no ``/dev/shm`` entry outlives it) and the mapping
  itself is closed by a ``weakref.finalize`` when the last decoded view
  dies.

The arena is the only way set-valued results leave a worker, and it is
*transport only*: tokens plus decoded rows reproduce exactly what the plain
kernel would have returned, so pool-vs-serial bit-identity is preserved by
construction.  Kernels without an entry here (every ``dict_*`` kernel,
scalar reductions, locally registered test kernels) return their results
through ``Pool.map``.

numpy is imported lazily throughout, keeping ``import repro.exec`` working on
numpy-free installs (where no CSR kernel — arena or not — ever runs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class _ResultPlane:
    """One dense result component: ``width`` items of ``dtype`` per source."""

    dtype: str
    width: int


@dataclass(frozen=True)
class ResultArena:
    """What a worker needs to write (and the parent to read) one dispatch's
    results through shared memory.

    The layout is fully determined by ``(kernel, num_sources, num_nodes)`` —
    both sides recompute it with :func:`_plane_layout` — so the descriptor
    stays a few dozen bytes however large the batch is.  ``name`` is the
    shared-memory segment the parent created (and owns: workers attach,
    write their chunk's rows, and close; only the parent ever unlinks).
    """

    name: str
    kernel: str
    num_sources: int
    num_nodes: int


def _plane_specs(kernel: str, num_nodes: int) -> Tuple[_ResultPlane, ...]:
    """The per-source result layout of ``kernel`` on an ``n``-node snapshot."""
    if kernel == "csr_signed_bfs":
        return (
            _ResultPlane("<i4", num_nodes),  # lengths
            _ResultPlane("<i8", num_nodes),  # positive counts
            _ResultPlane("<i8", num_nodes),  # negative counts
        )
    if kernel == "csr_path_lengths":
        return (_ResultPlane("<i4", num_nodes),)
    if kernel == "csr_sbph":
        return (
            _ResultPlane("<i4", num_nodes),  # positive depths (UNREACHABLE = absent)
            _ResultPlane("<i4", num_nodes),  # negative depths
        )
    raise KeyError(f"kernel {kernel!r} has no result-arena layout")


def supports(kernel: str) -> bool:
    """True iff ``kernel``'s results can ship through a result arena."""
    return kernel in _ARENA_KERNELS


_ARENA_KERNELS = frozenset(
    {
        "csr_signed_bfs",
        "csr_path_lengths",
        "csr_sbph",
    }
)


def _plane_layout(kernel: str, num_sources: int, num_nodes: int):
    """``[(spec, byte offset, byte length), ...]`` plus the total arena size.

    Offsets are rounded up to 8-byte boundaries so the int64 planes map to
    aligned views whatever the source count times the int32 plane width.
    """
    import numpy as np

    layout = []
    offset = 0
    for spec in _plane_specs(kernel, num_nodes):
        offset = (offset + 7) & ~7
        nbytes = np.dtype(spec.dtype).itemsize * spec.width * num_sources
        layout.append((spec, offset, nbytes))
        offset += nbytes
    return layout, offset


def arena_nbytes(kernel: str, num_sources: int, num_nodes: int) -> int:
    """Total segment size one dispatch of ``kernel`` needs, in bytes."""
    return _plane_layout(kernel, num_sources, num_nodes)[1]


def map_planes(arena: ResultArena, buffer):
    """``(planes, base)``: the ``(k, width)`` views over an attached segment.

    ``base`` is the single flat uint8 array every plane (and therefore every
    decoded row) is a view of — it is the one object that exports the shared
    memory's buffer, which is what lets the parent hang the segment's
    lifetime off it with a ``weakref.finalize``.
    """
    import numpy as np

    base = np.frombuffer(buffer, dtype=np.uint8)
    layout, _total = _plane_layout(arena.kernel, arena.num_sources, arena.num_nodes)
    planes = []
    for spec, offset, nbytes in layout:
        planes.append(
            base[offset : offset + nbytes]
            .view(spec.dtype)
            .reshape(arena.num_sources, spec.width)
        )
    return planes, base


# ------------------------------------------------------------------ worker side


def write_chunk(
    arena: ResultArena, planes: List, start: int, payload, sources: Sequence, params: dict
) -> List:
    """Run ``arena.kernel`` over ``sources``, writing rows ``start + i``.

    Returns the compact per-source token list the worker ships back instead
    of the dense results (``True`` per completed row; ``None`` marks an int64
    overflow whose row the parent must resolve on the dict backend;
    ``csr_signed_bfs`` marks presence rows with ``PRESENCE_ROW``;
    ``csr_sbph`` ships each source's truncation flag).
    """
    return _WRITERS[arena.kernel](planes, start, payload, sources, params)


def _write_signed_bfs(planes, start, csr, sources, params) -> List:
    from repro.signed.csr import signed_bfs_dense_batch_into

    stop = start + len(sources)
    return signed_bfs_dense_batch_into(
        csr,
        sources,
        planes[0][start:stop],
        planes[1][start:stop],
        planes[2][start:stop],
        skip_overflow=params.get("skip_overflow", True),
        presence=params.get("presence", False),
    )


def _write_path_lengths(planes, start, csr, sources, params) -> List:
    from repro.signed.csr import shortest_path_lengths_dense_batch_into

    stop = start + len(sources)
    return shortest_path_lengths_dense_batch_into(
        csr, sources, planes[0][start:stop]
    )


def _write_sbph(planes, start, csr, sources, params) -> List:
    # The serial kernel's own rows (UNREACHABLE where no path was found),
    # written in place; the token is the source's truncation flag.
    from repro.signed.csr import balanced_depths_into
    from repro.signed.paths import DEFAULT_MAX_EXPANSIONS

    stop = start + len(sources)
    return balanced_depths_into(
        csr,
        sources,
        planes[0][start:stop],
        planes[1][start:stop],
        max_length=params.get("max_length"),
        exact=params.get("exact", False),
        max_expansions=params.get("max_expansions", DEFAULT_MAX_EXPANSIONS),
    )


_WRITERS: Dict[str, Callable] = {
    "csr_signed_bfs": _write_signed_bfs,
    "csr_path_lengths": _write_path_lengths,
    "csr_sbph": _write_sbph,
}


# ------------------------------------------------------------------ parent side


def decode_results(
    arena: ResultArena, shm, tokens: Sequence, release: Optional[Callable] = None
) -> List:
    """Materialise the dispatch's result list from the mapped arena.

    Each slot reproduces exactly what the plain kernel would have returned
    for that source — BFS triples, distance maps and balanced-path depth
    rows come back as per-row copies (they outlive the dispatch in LRU
    caches).
    ``release(shm)`` is invoked automatically once the last
    decoded view is garbage-collected (the caller unlinks the name right
    after this returns, so nothing lingers in ``/dev/shm`` either way); the
    pool passes a closer that can defer past views dying inside reference
    cycles.
    """
    import weakref

    planes, base = map_planes(arena, shm.buf)
    decoder = _DECODERS[arena.kernel]
    results = [decoder(planes, position, token) for position, token in enumerate(tokens)]
    # `base` is the only exporter of the shared-memory buffer; every decoded
    # view keeps it alive through its .base chain, so the release fires
    # exactly when the last consumer (cache entry, result object) lets go.
    weakref.finalize(base, release if release is not None else _close_segment, shm)
    return results


def _close_segment(shm) -> None:
    try:  # pragma: no cover - exercised only at GC time
        shm.close()
    except Exception:
        pass


def _decode_signed_bfs(planes, position, token):
    # Rows are copied out of the mapped segment: batch_bfs results live in
    # long-lived LRU caches, and a view would pin the whole k-row segment
    # (and defeat the cache's per-entry byte accounting) for as long as any
    # single row survived.  One memcpy per row is noise next to the pickling
    # round-trip this path replaces.  The token tells counts rows from
    # presence rows, exactly as in the serial kernel.
    from repro.signed.csr import dense_row_result

    return dense_row_result(
        token, planes[0][position], planes[1][position], planes[2][position]
    )


def _decode_path_lengths(planes, position, token):
    # Copied for the same reason as the BFS triples: distance maps are cached
    # (DistanceOracle._bfs_cache) far beyond the dispatch's lifetime.
    return planes[0][position].copy()


def _decode_sbph(planes, position, token):
    # The serial kernel's (positive_row, negative_row, truncated) triple,
    # rows copied out for the same reason: balanced-path results are cached.
    return planes[0][position].copy(), planes[1][position].copy(), token


_DECODERS: Dict[str, Callable] = {
    "csr_signed_bfs": _decode_signed_bfs,
    "csr_path_lengths": _decode_path_lengths,
    "csr_sbph": _decode_sbph,
}
