"""Loaders for real dataset files (used when the SNAP downloads are available).

The paper builds its datasets from:

* the SNAP signed networks ``soc-sign-Slashdot*``, ``soc-sign-epinions`` and
  ``wiki-Elec`` (edge lists with a sign column), and
* per-user category information (Slashdot post categories, RED product
  categories) serving as skills.

This module reads those files from local disk — it never downloads anything —
and produces the same :class:`~repro.datasets.synthetic.SignedDataset` objects
as the synthetic generators, so everything downstream is agnostic to the data
source.  When no skill file is given, the paper's synthetic Zipf skill model
is applied (exactly what the paper itself does for Wikipedia).
"""

from __future__ import annotations

import hashlib
import logging
import os
from pathlib import Path
from typing import Dict, Optional, Union

from repro.datasets.synthetic import SignedDataset
from repro.exceptions import DatasetError
from repro.signed.components import largest_connected_component
from repro.signed.graph import SignedGraph
from repro.signed.io import read_edge_list
from repro.skills.generators import assign_skills_zipf
from repro.skills.io import read_assignment, read_user_skill_pairs
from repro.utils.rng import RandomState

PathLike = Union[str, Path]

#: Environment variable consulted when no explicit ``snapshot_cache_dir`` is
#: passed to :func:`load_snap_dataset`.  Unset (and no argument) means the
#: parse-once cache is disabled and every load parses the edge list.
SNAPSHOT_CACHE_ENV = "REPRO_SNAPSHOT_CACHE_DIR"

_logger = logging.getLogger(__name__)

#: Lifetime counters for the parse-once snapshot cache.  ``hits`` counts loads
#: served from a snapshot file, ``misses`` counts cold parses with no usable
#: entry (including cache-disabled loads), ``reparses`` counts the subset of
#: misses where an entry existed but was stale or corrupt and had to be
#: re-parsed and rewritten.
_CACHE_STATS: Dict[str, int] = {"hits": 0, "misses": 0, "reparses": 0}


def cache_stats() -> Dict[str, int]:
    """Return a copy of the snapshot-cache hit/miss/reparse counters."""
    return dict(_CACHE_STATS)


def reset_cache_stats() -> None:
    """Zero the snapshot-cache counters (test isolation helper)."""
    for key in _CACHE_STATS:
        _CACHE_STATS[key] = 0


def _snapshot_cache_dir(explicit: Optional[PathLike]) -> Optional[Path]:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(SNAPSHOT_CACHE_ENV)
    return Path(env) if env else None


#: Version stamp mixed into the cache key.  Bumped when the parse pipeline
#: changes the produced node/edge order (v2: CSR-first ingestion with the
#: row-preserving largest-component restriction), so stale entries from older
#: code miss instead of silently serving a different node order.
_PARSE_FORMAT_VERSION = 2


def _snapshot_cache_file(
    cache_dir: Path,
    edges_file: Path,
    restrict_to_lcc: bool,
    directed_to_undirected: str,
) -> Path:
    """Cache filename for one (source file, mtime, size, parse options) key.

    The key covers every input that affects the *parsed graph*: the resolved
    source path, its mtime and size (so edits invalidate the entry), the
    parse options and the parse-format version.  Skill parameters are
    deliberately excluded — skills are derived from the cached graph on every
    load, so one cache entry serves all skill configurations.
    """
    stat = edges_file.stat()
    payload = repr(
        (
            str(edges_file),
            stat.st_mtime_ns,
            stat.st_size,
            restrict_to_lcc,
            directed_to_undirected,
            _PARSE_FORMAT_VERSION,
        )
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
    return cache_dir / f"parse-{digest}.store"


def _dict_parse(
    edges_path: PathLike, restrict_to_lcc: bool, directed_to_undirected: str
) -> SignedGraph:
    """Reference dict-backend parse (also the error path: it raises the
    precise line-numbered :class:`DatasetError` for malformed files)."""
    graph = read_edge_list(edges_path, directed_to_undirected=directed_to_undirected)
    if graph.number_of_nodes() == 0:
        raise DatasetError(f"edge list {edges_path} produced an empty graph")
    if restrict_to_lcc:
        graph = largest_connected_component(graph)
    return graph


def _cold_parse(
    edges_path: PathLike,
    restrict_to_lcc: bool,
    directed_to_undirected: str,
    want_csr: bool,
):
    """Cold-parse an edge list, vectorised where the input allows it.

    Returns ``(graph, csr)`` where exactly one of the two is populated unless
    ``want_csr`` forces a CSR companion for a dict-parsed graph (cache writes
    and ``csr_only`` loads).  The vectorised parser covers every well-formed
    SNAP-style file; inputs it cannot prove bit-identical fall back to the
    dict parser, which also raises the reference errors.
    """
    from repro.signed.ingest import parse_edge_list_csr

    csr = parse_edge_list_csr(
        edges_path,
        directed_to_undirected=directed_to_undirected,
        restrict_to_lcc=restrict_to_lcc,
    )
    if csr is not None:
        if csr.number_of_nodes() == 0:
            raise DatasetError(f"edge list {edges_path} produced an empty graph")
        return None, csr
    graph = _dict_parse(edges_path, restrict_to_lcc, directed_to_undirected)
    if want_csr:
        from repro.signed.csr import CSRSignedGraph

        return graph, CSRSignedGraph.from_signed_graph(graph)
    return graph, None


def _deliver(graph, csr, csr_only: bool) -> SignedGraph:
    """Produce the caller-facing graph from a cold/cached parse result.

    ``csr_only`` wraps the CSR planes in the lazy facade (no dict rebuild);
    otherwise the dict graph is returned, synthesised from the planes when
    the parse itself was CSR-first (bit-identical by the ingest contract).
    """
    if csr_only:
        from repro.signed.lazy import as_signed_graph

        return as_signed_graph(csr)
    if graph is not None:
        return graph
    return csr.to_signed_graph()


def _parse_edge_list_cached(
    edges_path: PathLike,
    restrict_to_lcc: bool,
    directed_to_undirected: str,
    snapshot_cache_dir: Optional[PathLike],
    csr_only: bool = False,
):
    """Parse an edge list, going through the snapshot-store cache when enabled.

    Cold parses run the vectorised CSR-first reader
    (:mod:`repro.signed.ingest`); a cache hit
    memory-maps the stored planes.  With ``csr_only`` the result is the lazy
    :class:`~repro.signed.lazy.CSRBackedSignedGraph` facade — on a hit the
    dict graph is never rebuilt and the edge list is never re-read.  Without
    it the dict graph is synthesised in the exact node/edge order a direct
    parse produces, so everything keyed off node order (Zipf skill assignment
    in particular) stays bit-identical.  Corrupt or unreadable cache entries
    fall back to parsing and are rewritten.
    """
    cache_dir = _snapshot_cache_dir(snapshot_cache_dir)
    if cache_dir is None:
        _CACHE_STATS["misses"] += 1
        _logger.debug("snapshot cache disabled for %s; parsing", edges_path)
        graph, csr = _cold_parse(
            edges_path, restrict_to_lcc, directed_to_undirected, want_csr=csr_only
        )
        return _deliver(graph, csr, csr_only)

    from repro.signed.store import load_snapshot, save_snapshot

    edges_file = Path(edges_path).resolve()
    cache_file = _snapshot_cache_file(
        cache_dir, edges_file, restrict_to_lcc, directed_to_undirected
    )
    entry_existed = cache_file.exists()
    if entry_existed:
        try:
            csr = load_snapshot(cache_file, mmap=True)
            _CACHE_STATS["hits"] += 1
            _logger.debug("snapshot cache hit for %s (%s)", edges_file, cache_file)
            return _deliver(None, csr, csr_only)
        except (ValueError, OSError):
            _CACHE_STATS["reparses"] += 1
            _logger.debug(
                "snapshot cache entry unusable for %s (%s); reparsing",
                edges_file,
                cache_file,
            )
            # stale/corrupt entry: reparse and overwrite below
    _CACHE_STATS["misses"] += 1
    if not entry_existed:
        _logger.debug("snapshot cache miss for %s (%s)", edges_file, cache_file)
    graph, csr = _cold_parse(
        edges_path, restrict_to_lcc, directed_to_undirected, want_csr=True
    )
    cache_dir.mkdir(parents=True, exist_ok=True)
    try:
        save_snapshot(csr, cache_file)
    except OSError:
        pass  # a read-only or full cache directory must not fail the load
    return _deliver(graph, csr, csr_only)


def load_snap_dataset(
    name: str,
    edges_path: PathLike,
    skills_path: Optional[PathLike] = None,
    num_synthetic_skills: int = 500,
    skills_per_user: float = 4.0,
    restrict_to_lcc: bool = True,
    directed_to_undirected: str = "negative_wins",
    seed: RandomState = 0,
    snapshot_cache_dir: Optional[PathLike] = None,
    csr_only: bool = False,
) -> SignedDataset:
    """Load a signed network from a SNAP-style edge list plus optional skills.

    Parameters
    ----------
    name:
        Name recorded on the resulting dataset.
    edges_path:
        Signed edge-list file (``u v sign`` per line, ``#`` comments).
    skills_path:
        Optional skill file.  ``.json`` files are read as
        ``{user: [skills...]}`` dictionaries, anything else as ``user skill``
        pairs, one per line.  When omitted, Zipf-distributed synthetic skills
        are generated (the paper's Wikipedia treatment).
    num_synthetic_skills / skills_per_user:
        Parameters of the synthetic skill model when ``skills_path`` is None.
    restrict_to_lcc:
        Restrict the graph to its largest connected component (the paper
        assumes a connected graph).
    directed_to_undirected:
        Policy for reconciling reciprocal edges with conflicting signs; see
        :func:`repro.signed.io.parse_edge_list`.
    seed:
        Seed for the synthetic skill model.
    snapshot_cache_dir:
        Directory for the parse-once snapshot cache.  When set (or when the
        ``REPRO_SNAPSHOT_CACHE_DIR`` environment variable names a directory),
        the parsed graph is saved as a ``.store`` snapshot keyed by the source
        file's path, mtime, size and parse options; subsequent loads
        memory-map the snapshot instead of re-parsing.
    csr_only:
        Serve the graph as a lazy CSR-backed facade
        (:class:`~repro.signed.lazy.CSRBackedSignedGraph`) instead of
        rebuilding the dict backend: cache hits memory-map the stored planes
        with zero edge-list re-reads and O(1) per-edge work, and cold parses
        run the vectorised reader end to end.  The facade *is* a
        ``SignedGraph`` — every consumer accepts it — and materialises the
        dict backend lazily if a dict-only code path is exercised.
    """
    graph = _parse_edge_list_cached(
        edges_path,
        restrict_to_lcc,
        directed_to_undirected,
        snapshot_cache_dir,
        csr_only=csr_only,
    )

    if skills_path is not None:
        skills_file = Path(skills_path)
        if skills_file.suffix.lower() == ".json":
            skills = read_assignment(skills_file)
        else:
            skills = read_user_skill_pairs(skills_file)
        skills = skills.restricted_to(
            [user for user in skills.users() if user in graph]
        )
        for node in graph.nodes():
            if node not in skills:
                skills.add_user(node)
    else:
        skills = assign_skills_zipf(
            graph.nodes(),
            num_skills=num_synthetic_skills,
            skills_per_user=skills_per_user,
            seed=seed,
        )
    return SignedDataset(
        name=name,
        graph=graph,
        skills=skills,
        description=f"Loaded from {edges_path}"
        + (f" with skills from {skills_path}" if skills_path else " with synthetic skills"),
    )
