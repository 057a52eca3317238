"""Performance benchmarks for the indexed CSR kernels (P2).

The acceptance bar for the CSR kernels is a >= 5x speedup of the Table-2 pair
statistics on a SNAP-scale synthetic graph over the pure-Python
:mod:`repro.signed.paths` loop (one ``signed_bfs`` per sampled source plus
SPO's pair rule), with identical counts.  The graph here (50k nodes) is the
size class of the paper's Epinions/Slashdot datasets; the dict BFS pays
Python-interpreter cost per visited edge while the CSR kernels run a handful
of vectorised array operations per BFS level.

The per-source signed BFS is direction-optimising: a level whose frontier
holds more adjacency entries than the undiscovered nodes pulls instead of
pushing.  Its bar is >= 1.3x over a push-only copy of the kernel kept in
this file, over 256 sources of the same graph, with bit-identical arrays
(measured 1.74x on a 2-core Xeon VM: 2.70 s push-only, 1.55 s
direction-optimising).

The one-time CSR index build is excluded from the timed region: the index is
cached on the graph (``csr_view``) and amortised over every subsequent query,
exactly as in the experiment harness.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.compatibility import make_relation, pair_statistics
from repro.datasets import synthetic_signed_network
from repro.signed import signed_bfs, signed_bfs_csr
from repro.signed.csr import (
    UNREACHABLE,
    _concatenated_neighbor_ranges,
    _next_frontier,
    _signed_bfs_arrays,
)
from repro.utils.rng import ensure_rng

#: Direction-optimising over push-only per-source signed BFS.
PULL_SPEEDUP_BAR = 1.3

#: Sources of the push/pull comparison (four 64-source words' worth).
NUM_PULL_SOURCES = 256

#: Number of sampled sources for the statistics comparison (kept small so the
#: dict reference side stays a few seconds; the measured ratio is insensitive
#: to this because both sides scale linearly in it).
NUM_SOURCES = 12


@pytest.fixture(scope="module")
def large_graph():
    graph, _ = synthetic_signed_network(
        50_000, average_degree=6.0, negative_fraction=0.2, seed=42
    )
    assert graph.number_of_nodes() >= 50_000
    return graph


@pytest.mark.benchmark(group="perf-csr-bfs")
def test_perf_signed_bfs_csr_single_source(benchmark, large_graph):
    """Algorithm 1 on the CSR backend from one source of the 50k-node graph."""
    csr = large_graph.csr_view()
    source = large_graph.nodes()[0]
    result = benchmark.pedantic(
        signed_bfs_csr, args=(csr, source), rounds=3, iterations=1
    )
    assert result.counts(source) == (1, 0)


def _best_of(repeats: int, function):
    """Fastest of ``repeats`` timed runs (min is robust to CI load spikes)."""
    best_elapsed, best_result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, best_result = elapsed, result
    return best_elapsed, best_result


def dict_spo_statistics(graph, num_sources, seed):
    """``(compatible, evaluated)`` pairs of the SPO sampled estimate, as the
    pure-Python loop: one :func:`repro.signed.paths.signed_bfs` per sampled
    source (sampled as ``pair_statistics`` samples) and SPO's pair rule —
    some shortest path is positive — per reached node."""
    nodes = graph.nodes()
    sources = ensure_rng(seed).sample(nodes, min(num_sources, len(nodes)))
    compatible = 0
    for source in sources:
        result = signed_bfs(graph, source)
        for node in result.lengths:
            if node != source and result.counts(node)[0] > 0:
                compatible += 1
    return compatible, len(sources) * (len(nodes) - 1)


def test_csr_pair_statistics_speedup_at_least_5x(large_graph):
    """`pair_statistics` on CSR is >= 5x the dict signed BFS loop, same counts."""
    nodes = large_graph.number_of_nodes()
    large_graph.csr_view()  # build the cached index outside the timed region

    def cold_statistics():
        relation = make_relation("SPO", large_graph)
        # The SP* caches belong to the graph and outlive the relation: empty
        # them, or every run after the first reads the previous run's answers.
        relation.clear_cache()
        return pair_statistics(relation, num_sampled_sources=NUM_SOURCES, seed=7)

    dict_elapsed, dict_stats = _best_of(
        2, lambda: dict_spo_statistics(large_graph, NUM_SOURCES, seed=7)
    )
    csr_elapsed, csr_stats = _best_of(3, cold_statistics)

    # Identical estimates: same sampled sources (same seed), same counts.
    assert csr_stats.compatible_pairs == dict_stats[0]
    assert csr_stats.evaluated_pairs == dict_stats[1] == NUM_SOURCES * (nodes - 1)

    speedup = dict_elapsed / csr_elapsed
    print(
        f"\npair_statistics on {nodes} nodes / {NUM_SOURCES} sources: "
        f"dict {dict_elapsed:.2f}s, csr {csr_elapsed:.2f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"CSR speedup {speedup:.1f}x below the 5x acceptance bar "
        f"(dict {dict_elapsed:.3f}s vs csr {csr_elapsed:.3f}s)"
    )


def test_csr_and_dict_bfs_agree_on_large_graph(large_graph):
    """Spot equivalence on the benchmark graph itself (guards the speedup test)."""
    source = large_graph.nodes()[123]
    expected = signed_bfs(large_graph, source)
    actual = signed_bfs_csr(large_graph.csr_view(), source).to_signed_bfs_result()
    assert actual.lengths == expected.lengths
    assert actual.positive_counts == expected.positive_counts
    assert actual.negative_counts == expected.negative_counts


def _push_only_signed_bfs(csr, source_id):
    """Algorithm 1 with every level pushed: the kernel before pull levels.

    Kept as the baseline of the direction-optimising speedup bar; its
    arrays must equal the library kernel's bit for bit.
    """
    num_nodes = csr.number_of_nodes()
    degrees = csr.degrees()
    count_guard = (2**63 - 1) // max(1, int(degrees.max()) if num_nodes else 0)
    lengths = np.full(num_nodes, UNREACHABLE, dtype=np.int32)
    positive = np.zeros(num_nodes, dtype=np.int64)
    negative = np.zeros(num_nodes, dtype=np.int64)
    lengths[source_id] = 0
    positive[source_id] = 1
    frontier = np.array([source_id], dtype=np.int64)
    depth = 0
    while frontier.size:
        targets, edge_signs, origins, _counts = _concatenated_neighbor_ranges(csr, frontier)
        if targets.size == 0:
            break
        undiscovered = lengths[targets] == UNREACHABLE
        lengths[targets[undiscovered]] = depth + 1
        targets = targets[undiscovered]
        if targets.size:
            edge_signs = edge_signs[undiscovered]
            origins = origins[undiscovered]
            positive_edges = edge_signs > 0
            pos_contrib = np.where(positive_edges, positive[origins], negative[origins])
            neg_contrib = np.where(positive_edges, negative[origins], positive[origins])
            np.add.at(positive, targets, pos_contrib)
            np.add.at(negative, targets, neg_contrib)
            if (
                int(positive[targets].max()) > count_guard
                or int(negative[targets].max()) > count_guard
            ):
                raise OverflowError(f"counts exceed {count_guard} at depth {depth + 1}")
        frontier = _next_frontier(targets, lengths, depth + 1)
        depth += 1
    return lengths, positive, negative


def test_direction_optimising_signed_bfs_speedup(large_graph):
    """Per-source signed BFS >= 1.3x the push-only kernel, same arrays."""
    csr = large_graph.csr_view()
    sources = range(NUM_PULL_SOURCES)
    for source in sources[:: NUM_PULL_SOURCES // 8]:
        for got, want in zip(
            _signed_bfs_arrays(csr, source), _push_only_signed_bfs(csr, source)
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    push_elapsed, _ = _best_of(
        2, lambda: [_push_only_signed_bfs(csr, source)[0][0] for source in sources]
    )
    pull_elapsed, _ = _best_of(
        2, lambda: [_signed_bfs_arrays(csr, source)[0][0] for source in sources]
    )
    speedup = push_elapsed / pull_elapsed
    print(
        f"\nper-source signed BFS x{NUM_PULL_SOURCES} on "
        f"{csr.number_of_nodes()} nodes: push-only {push_elapsed:.2f}s, "
        f"direction-optimising {pull_elapsed:.2f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= PULL_SPEEDUP_BAR, (
        f"direction-optimising signed BFS only {speedup:.2f}x over push-only "
        f"(bar {PULL_SPEEDUP_BAR}x)"
    )
