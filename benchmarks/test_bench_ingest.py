"""Benchmarks for the CSR-first ingestion path (ISSUE 8).

The acceptance bars, on a 200k-node / ~1M-edge synthetic edge list:

* **Parse speed**: the vectorised :func:`repro.signed.ingest.parse_edge_list_csr`
  must be >= 3x faster than the reference dict pipeline (read_edge_list +
  CSR indexing).  Measured headroom is ~10-20x; the bar guards the mechanism.
* **Peak memory**: parsing straight into CSR planes must stay <= 0.5x of the
  dict pipeline's peak RSS.  Each parse runs in a freshly forked child
  (:func:`repro.utils.timing.measure_peak_rss`), with the fork-time baseline
  subtracted, so the comparison isolates the parsers themselves.

Both parses also have to agree on the node and edge counts (the full
bit-identity contract is pinned by ``tests/test_ingest.py``; repeating it
here would just re-run the slow dict parse a third time).

Set ``REPRO_BENCH_INGEST_1M=1`` to also run the million-node ingest: 1M nodes
/ ~10M edges parsed CSR-only, with the wall-clock and peak RSS reported and a
16 GB budget asserted.  Also asserted: ``csr_only`` cache hits reparse
nothing.  The CI ``benchmarks`` job runs this file (without the 1M opt-in)
and uploads ``bench-ingest.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datasets import synthetic_csr_network
from repro.signed.csr import CSRSignedGraph
from repro.signed.io import read_edge_list
from repro.signed.ingest import parse_edge_list_csr
from repro.utils.timing import measure_peak_rss

np = pytest.importorskip("numpy")

#: Size of the gated benchmark graph (nodes; ~NUM_NODES*5 undirected edges).
NUM_NODES = 200_000

AVERAGE_DEGREE = 10.0

#: Vectorised parse over dict parse, wall clock (measured ~10-20x).
PARSE_SPEEDUP_BAR = 3.0

#: Vectorised parse peak RSS over dict parse peak RSS (measured ~0.1-0.3x).
PEAK_RSS_BAR = 0.5

#: Nodes in the opt-in run, and its memory budget.
MILLION = 1_000_000
MILLION_BUDGET_BYTES = 16 * 1024**3

SEED = 42


def _write_edge_file(path, num_nodes):
    """A SNAP-style ``u v sign`` file for a synthetic CSR graph, streamed out
    without ever holding the text in memory."""
    csr, _ = synthetic_csr_network(
        num_nodes, average_degree=AVERAGE_DEGREE, seed=SEED
    )
    degrees = np.diff(csr.indptr).astype(np.int64)
    src = np.repeat(np.arange(num_nodes, dtype=np.int64), degrees)
    once = src < csr.indices  # each undirected edge once
    u = src[once].tolist()
    v = csr.indices[once].tolist()
    s = csr.signs[once].tolist()
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(f"{a} {b} {c}\n" for a, b, c in zip(u, v, s))
    return len(u)


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("ingest-bench") / "edges.txt"
    num_edges = _write_edge_file(path, NUM_NODES)
    return str(path), num_edges


def _csr_parse(path):
    csr = parse_edge_list_csr(path)
    assert csr is not None
    return csr.number_of_nodes(), csr.number_of_edges()


def _dict_parse(path):
    graph = read_edge_list(path)
    csr = CSRSignedGraph.from_signed_graph(graph)
    return csr.number_of_nodes(), csr.number_of_edges()


def test_csr_parse_beats_dict_parse(edge_file, benchmark):
    """Vectorised parse >= 3x faster and <= 0.5x peak RSS vs the dict path."""
    path, num_edges = edge_file
    # Each parse runs in a forked child so its ru_maxrss high-water mark is
    # its own; the fork-time baseline (this process' RSS) is subtracted.
    _, baseline, _ = measure_peak_rss(int)
    csr_counts, csr_peak, csr_seconds = measure_peak_rss(_csr_parse, path)
    dict_counts, dict_peak, dict_seconds = measure_peak_rss(_dict_parse, path)

    csr_net = max(1, csr_peak - baseline)
    dict_net = max(1, dict_peak - baseline)
    speedup = dict_seconds / csr_seconds
    rss_ratio = csr_net / dict_net

    benchmark.extra_info["num_edges"] = num_edges
    benchmark.extra_info["csr_parse_seconds"] = csr_seconds
    benchmark.extra_info["dict_parse_seconds"] = dict_seconds
    benchmark.extra_info["parse_speedup"] = speedup
    benchmark.extra_info["csr_peak_rss_bytes"] = csr_net
    benchmark.extra_info["dict_peak_rss_bytes"] = dict_net
    benchmark.extra_info["peak_rss_ratio"] = rss_ratio
    benchmark.pedantic(lambda: _csr_parse(path), rounds=3, iterations=1)
    print(
        f"\n[ingest] {NUM_NODES} nodes / {num_edges} edges: "
        f"csr {csr_seconds:.2f}s / {csr_net / 2**20:.0f} MiB, "
        f"dict {dict_seconds:.2f}s / {dict_net / 2**20:.0f} MiB "
        f"-> {speedup:.1f}x faster, {rss_ratio:.2f}x the memory"
    )

    assert csr_counts == dict_counts  # same node and edge totals
    assert speedup >= PARSE_SPEEDUP_BAR, (
        f"vectorised parse only {speedup:.2f}x over the dict parser "
        f"(bar {PARSE_SPEEDUP_BAR}x)"
    )
    assert rss_ratio <= PEAK_RSS_BAR, (
        f"vectorised parse used {rss_ratio:.2f}x the dict parser's peak RSS "
        f"(bar {PEAK_RSS_BAR}x)"
    )


def test_loader_csr_only_hit_is_mmap_cheap(edge_file, tmp_path, benchmark):
    """A ``csr_only`` cache hit must skip the parse entirely (mmap load)."""
    from repro.datasets import cache_stats, reset_cache_stats
    from repro.datasets.loaders import load_snap_dataset

    path, _ = edge_file
    cache = tmp_path / "cache"
    cache.mkdir()
    kwargs = dict(
        restrict_to_lcc=False, seed=7, snapshot_cache_dir=cache, csr_only=True
    )
    reset_cache_stats()
    start = time.perf_counter()
    cold = load_snap_dataset("bench", path, **kwargs)
    cold_seconds = time.perf_counter() - start
    start = time.perf_counter()
    hit = load_snap_dataset("bench", path, **kwargs)
    hit_seconds = time.perf_counter() - start

    benchmark.extra_info["csr_only_cold_seconds"] = cold_seconds
    benchmark.extra_info["csr_only_hit_seconds"] = hit_seconds
    benchmark.pedantic(
        lambda: load_snap_dataset("bench", path, **kwargs), rounds=3, iterations=1
    )
    print(
        f"\n[loader] csr_only cold {cold_seconds:.2f}s, hit {hit_seconds:.3f}s "
        f"({cold_seconds / hit_seconds:.0f}x)"
    )
    # The gate is structural (no re-parse, no dict graph): both loads pay the
    # same Zipf skill derivation, so wall-clock deltas are contention noise.
    assert cache_stats()["reparses"] == 0
    assert not cold.graph.materialised and not hit.graph.materialised
    assert hit.graph.number_of_edges() == cold.graph.number_of_edges()


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_INGEST_1M") != "1",
    reason="set REPRO_BENCH_INGEST_1M=1 for the million-node ingest run",
)
def test_million_node_ingest_fits_the_budget(tmp_path_factory, benchmark):
    """Opt-in: 1M nodes / ~10M edges, CSR-only, within the 16 GB budget."""
    path = tmp_path_factory.mktemp("ingest-1m") / "edges.txt"
    write_start = time.perf_counter()
    num_edges = _write_edge_file(path, MILLION)
    write_seconds = time.perf_counter() - write_start

    _, baseline, _ = measure_peak_rss(int)
    counts, peak, seconds = measure_peak_rss(_csr_parse, str(path))
    net = max(1, peak - baseline)
    benchmark.extra_info["million_edges"] = num_edges
    benchmark.extra_info["million_parse_seconds"] = seconds
    benchmark.extra_info["million_peak_rss_bytes"] = net
    benchmark.pedantic(int, rounds=1, iterations=1)
    print(
        f"\n[ingest-1M] wrote {num_edges} edges in {write_seconds:.1f}s; "
        f"csr parse {seconds:.1f}s, peak {net / 2**30:.2f} GiB"
    )
    assert counts[0] == MILLION
    assert net <= MILLION_BUDGET_BYTES
