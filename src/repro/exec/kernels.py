"""The named per-source kernels the executors run.

A *kernel* is a pure function ``kernel(payload, sources, params) -> list`` —
one result per source, no shared mutable state, no reliance on the process it
runs in.  That purity is the whole contract: the serial executor calls the
very same function in-process that the pool executor runs inside worker
processes, so pool results are bit-identical to serial results by
construction, not by luck.

Every kernel receives a :class:`~repro.signed.csr.CSRSignedGraph` and
**dense integer source ids**; it only touches the snapshot's flat arrays (via
the dense cores in :mod:`repro.signed.csr`), never the node list or index.
This is what allows the pool to publish a snapshot as a ``.store`` file that
workers memory-map with placeholder nodes — no node objects.  A source whose
path counts overflow ``int64`` comes back as ``None``; the caller answers it
in-process with :func:`repro.signed.paths.signed_bfs`.

Kernels are looked up by name so worker processes can resolve them after a
plain module import; extensions register theirs with :func:`register_kernel`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

#: Kernel registry: name -> ``kernel(payload, sources, params)``.
KERNELS: Dict[str, Callable] = {}


def register_kernel(name: str, function: Callable = None):
    """Register ``function`` (or decorate one) as the kernel called ``name``.

    Kernels must be importable module-level functions when used with a
    ``spawn``-based pool; under ``fork`` (the Linux default) the registry is
    inherited, so locally registered kernels work too.
    """
    if function is None:
        def decorator(fn: Callable) -> Callable:
            register_kernel(name, fn)
            return fn

        return decorator
    if name in KERNELS and KERNELS[name] is not function:
        raise ValueError(f"kernel {name!r} is already registered")
    KERNELS[name] = function
    return function


@register_kernel("csr_signed_bfs")
def csr_signed_bfs(csr, sources: Sequence[int], params: dict) -> List:
    """Algorithm 1 from many dense sources: ``(lengths, positive, negative)``
    array triples (``None`` marks an int64 overflow for the caller's
    arbitrary-precision fallback).

    ``params["presence"]`` lets words of at least
    :data:`~repro.signed.csr.PRESENCE_MIN_SOURCES` sources answer with
    :class:`~repro.signed.csr.PresenceRows` instead — lengths plus whether a
    positive / negative shortest path exists, no counts.
    """
    from repro.signed.csr import signed_bfs_dense_batch

    return signed_bfs_dense_batch(
        csr,
        sources,
        skip_overflow=params.get("skip_overflow", True),
        presence=params.get("presence", False),
    )


@register_kernel("csr_path_lengths")
def csr_path_lengths(csr, sources: Sequence[int], params: dict) -> List:
    """Sign-agnostic BFS distances from many dense sources (one array each)."""
    from repro.signed.csr import shortest_path_lengths_dense_batch

    return shortest_path_lengths_dense_batch(csr, sources)


@register_kernel("csr_sbph")
def csr_sbph(csr, sources: Sequence[int], params: dict) -> List:
    """Balanced-path search per dense source: ``(positive_row, negative_row,
    truncated)``, the rows ``int32`` depths over dense ids
    (``UNREACHABLE`` where no path was found).

    ``params``: ``exact`` selects the capped SBP enumeration over the SBPH
    search; ``max_length`` / ``max_expansions`` bound it as in
    :class:`~repro.signed.paths.BalancedPathSearch`, whose searches return
    the same depth per node and truncation flag.
    """
    from repro.signed.csr import balanced_depths
    from repro.signed.paths import DEFAULT_MAX_EXPANSIONS

    return balanced_depths(
        csr,
        sources,
        max_length=params.get("max_length"),
        exact=params.get("exact", False),
        max_expansions=params.get("max_expansions", DEFAULT_MAX_EXPANSIONS),
    )


@register_kernel("csr_compatible_degrees")
def csr_compatible_degrees(csr, sources: Sequence[int], params: dict) -> List:
    """SPA, SPM and SPO degrees per dense source, reduced inside the worker.

    Runs Algorithm 1 per source and applies all three SP* pair rules plus the
    reachability/self exclusions to that one traversal, shipping back **one
    ``(spa, spm, spo)`` triple of ints per source** instead of three O(n)
    count arrays — the transfer-thrifty path behind SPM's pooled degree
    sweeps, whose triples the SP* degree memo keeps for all three relations
    (SPA and SPO sweep presence planes in-process instead).
    ``None`` marks an int64 overflow (the caller counts that source from
    :func:`repro.signed.paths.signed_bfs`).  Each count equals the size of
    that relation's serial compatible set on the same arrays, minus the
    source itself.  Takes no params.
    """
    from repro.compatibility.shortest_path import dense_degree_triple
    from repro.signed.csr import signed_bfs_dense_batch

    triples = signed_bfs_dense_batch(csr, sources, skip_overflow=True)
    return [
        None if triple is None else dense_degree_triple(*triple, source)
        for source, triple in zip(sources, triples)
    ]

