"""Benchmarks for the snapshot store and the word-parallel bitmap kernels.

The acceptance bars (ISSUE 6), all on the 50k-node synthetic signed network:

* **Cold start**: materialising a usable CSR snapshot from a ``.store`` file
  via ``numpy.memmap`` must be >= 5x faster than the cold path (parse the
  edge list, then index it).  Measured headroom is ~100x — the mapped load
  is page-cache metadata work, not parsing — so the bar is deliberately far
  below the observed number and guards the mechanism, not the margin.
* **Word-parallel kernels**: the packed-uint64 multi-source sweeps must beat
  the per-source reference — >= 1.5x for plain path lengths (measured
  2.06-2.09x), >= 1.05x for signed BFS with its count propagation (measured
  1.15-1.29x) — while returning bit-identical arrays.  The per-source
  reference is the direction-optimising kernel (2-core Xeon VM).

The CI ``benchmarks`` job runs this file and uploads ``bench-store.json``.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets import synthetic_signed_network
from repro.signed.csr import (
    CSRSignedGraph,
    _shortest_path_lengths_array,
    _signed_bfs_arrays,
    shortest_path_lengths_dense_batch,
    signed_bfs_dense_batch,
)
from repro.signed.io import read_edge_list
from repro.signed.store import load_snapshot, save_snapshot

np = pytest.importorskip("numpy")

#: Size of the benchmark graph (the paper's Epinions/Slashdot class).
NUM_NODES = 50_000

#: Sources per word-parallel sweep (four 64-bit words).
NUM_SOURCES = 256

#: Cold parse+index over mmap load (measured ~100x; the bar is the ISSUE's).
COLD_START_BAR = 5.0

#: Word-parallel over per-source, plain path lengths (measured 2.06-2.09x).
PATH_LENGTHS_BAR = 1.5

#: Word-parallel over per-source, signed BFS with counts (measured 1.15-1.29x).
SIGNED_BFS_BAR = 1.05

SEED = 42


@pytest.fixture(scope="module")
def big_graph():
    graph, _ = synthetic_signed_network(
        NUM_NODES, average_degree=6.0, negative_fraction=0.2, seed=SEED
    )
    return graph


@pytest.fixture(scope="module")
def big_csr(big_graph):
    return big_graph.csr_view()


@pytest.fixture(scope="module")
def edge_file(big_graph, tmp_path_factory):
    """The benchmark graph spelled as a SNAP-style edge list on disk."""
    path = tmp_path_factory.mktemp("store-bench") / "edges.txt"
    with open(path, "w") as handle:
        for edge in big_graph.edges():
            handle.write(f"{edge.u}\t{edge.v}\t{edge.sign}\n")
    return path


def _timed(function):
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def test_store_cold_start_beats_parse(edge_file, big_csr, tmp_path, benchmark):
    """mmap load >= 5x faster than parse+index, and bit-identical to it."""
    store_path = str(tmp_path / "bench.store")
    save_time, _ = _timed(lambda: save_snapshot(big_csr, store_path))

    def cold_parse():
        return CSRSignedGraph.from_signed_graph(read_edge_list(edge_file))

    parse_time, parsed = _timed(cold_parse)
    load_time, loaded = _timed(lambda: load_snapshot(store_path, mmap=True))
    speedup = parse_time / load_time
    benchmark.extra_info["parse_index_seconds"] = parse_time
    benchmark.extra_info["save_seconds"] = save_time
    benchmark.extra_info["mmap_load_seconds"] = load_time
    benchmark.extra_info["cold_start_speedup"] = speedup
    benchmark.pedantic(
        lambda: load_snapshot(store_path, mmap=True), rounds=3, iterations=1
    )
    print(
        f"\n[store] parse+index {parse_time:.3f}s, save {save_time:.3f}s, "
        f"mmap load {load_time * 1000:.2f}ms -> {speedup:.0f}x cold-start speedup"
    )
    # The mapped snapshot carries the same planes the edge list parses to
    # (node order differs between generators, so compare against its own
    # source of truth: the snapshot it was saved from).
    for name in ("indptr", "indices", "signs"):
        assert np.array_equal(
            np.asarray(getattr(loaded, name)), np.asarray(getattr(big_csr, name))
        )
    assert parsed.number_of_edges() == loaded.number_of_edges()
    assert speedup >= COLD_START_BAR, (
        f"store cold start only {speedup:.1f}x over parse "
        f"(bar {COLD_START_BAR}x)"
    )


def test_loader_cache_hit_skips_the_parse(edge_file, tmp_path, benchmark):
    """The parse-once cache must make the second load measurably cheaper and
    return a bit-identical dataset (node order included)."""
    from repro.datasets.loaders import load_snap_dataset

    cache = tmp_path / "cache"
    kwargs = dict(restrict_to_lcc=False, seed=7, snapshot_cache_dir=cache)
    cold_time, cold = _timed(lambda: load_snap_dataset("bench", edge_file, **kwargs))
    hit_time, hit = _timed(lambda: load_snap_dataset("bench", edge_file, **kwargs))
    benchmark.extra_info["loader_cold_seconds"] = cold_time
    benchmark.extra_info["loader_hit_seconds"] = hit_time
    benchmark.pedantic(
        lambda: load_snap_dataset("bench", edge_file, **kwargs),
        rounds=1,
        iterations=1,
    )
    print(
        f"\n[loader] cold {cold_time:.3f}s (parse + store save), "
        f"hit {hit_time:.3f}s ({cold_time / hit_time:.2f}x)"
    )
    assert list(hit.graph.nodes()) == list(cold.graph.nodes())
    assert hit.graph.number_of_edges() == cold.graph.number_of_edges()
    # Zipf skills are seeded from node order, so a hit reproduces them too.
    probe = cold.graph.nodes()[:50]
    assert all(hit.skills.skills_of(u) == cold.skills.skills_of(u) for u in probe)
    # The hit skips the parse; it still pays dict rebuild + skill synthesis,
    # so the bar is "cheaper", not a fixed multiple.
    assert hit_time < cold_time


def test_wordparallel_path_lengths_speedup(big_csr, benchmark):
    sources = list(range(NUM_SOURCES))

    def source_loop(ids):
        return [_shortest_path_lengths_array(big_csr, source) for source in ids]

    # Identity first, on one word's worth of sources, results then freed —
    # the timed runs must not execute under the memory pressure of a held
    # 256 x 50k result set (that skews whichever run goes second).
    fast = shortest_path_lengths_dense_batch(big_csr, sources[:64])
    for a, b in zip(fast, source_loop(sources[:64])):
        assert np.array_equal(a, b)
    del fast

    slow_time, _ = _timed(lambda: len(source_loop(sources)))
    fast_time, _ = _timed(
        lambda: len(shortest_path_lengths_dense_batch(big_csr, sources))
    )
    speedup = slow_time / fast_time
    benchmark.extra_info["per_source_seconds"] = slow_time
    benchmark.extra_info["wordparallel_seconds"] = fast_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(
        lambda: shortest_path_lengths_dense_batch(big_csr, sources[:64]),
        rounds=1,
        iterations=1,
    )
    print(
        f"\n[wordparallel] path lengths x{NUM_SOURCES}: per-source "
        f"{slow_time:.3f}s, word-parallel {fast_time:.3f}s -> {speedup:.2f}x"
    )
    assert speedup >= PATH_LENGTHS_BAR, (
        f"word-parallel path lengths only {speedup:.2f}x (bar {PATH_LENGTHS_BAR}x)"
    )


def test_wordparallel_signed_bfs_speedup(big_csr, benchmark):
    sources = list(range(NUM_SOURCES))

    def source_loop(ids):
        return [_signed_bfs_arrays(big_csr, source) for source in ids]

    # Identity on one word, freed before the timed runs (see above).
    fast = signed_bfs_dense_batch(big_csr, sources[:64])
    for f, s in zip(fast, source_loop(sources[:64])):
        for a, b in zip(f, s):
            assert np.array_equal(a, b)
    del fast

    slow_time, _ = _timed(lambda: len(source_loop(sources)))
    fast_time, _ = _timed(lambda: len(signed_bfs_dense_batch(big_csr, sources)))
    speedup = slow_time / fast_time
    benchmark.extra_info["per_source_seconds"] = slow_time
    benchmark.extra_info["wordparallel_seconds"] = fast_time
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(
        lambda: signed_bfs_dense_batch(big_csr, sources[:64]),
        rounds=1,
        iterations=1,
    )
    print(
        f"\n[wordparallel] signed BFS x{NUM_SOURCES}: per-source "
        f"{slow_time:.3f}s, word-parallel {fast_time:.3f}s -> {speedup:.2f}x"
    )
    assert speedup >= SIGNED_BFS_BAR, (
        f"word-parallel signed BFS only {speedup:.2f}x (bar {SIGNED_BFS_BAR}x)"
    )
