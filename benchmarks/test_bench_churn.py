"""Benchmarks for CSR-native streaming churn (ISSUE 9).

The acceptance bars:

* **Dict-free churn rounds**: on a 200k-node / ~1M-edge graph, one churn
  round applied to the :class:`~repro.signed.lazy.CSRBackedSignedGraph`
  facade (mutations land in overlay rows + the delta log, the next
  ``csr_view()`` folds them vectorised) must be >= 3x faster than the
  dict-materialising baseline — rebuilding the adjacency dicts from the
  planes and churning those, which is what every streaming round paid before
  the facade learned to mutate dict-free.  Both paths must produce
  bit-identical CSR planes.

* **Connected-graph label refresh**: with <= 0.5% of edges churned by sign
  flips (the canonical signed-network streaming event — distances cannot
  move), ``refresh_label_index`` must be >= 5x faster than a full
  ``build_label_index`` rebuild on a *connected* graph, where the
  component-local patch path can never help (the affected sweep always
  covers everything).  The refresh must return "patched" and stay
  bit-identical to the rebuild.  Topology churn on an expander legitimately
  rebuilds — the resweep's bounded bail-out keeps that detour cheap, which
  the benchmark reports and bounds at <= 2x a rebuild.

Measured: ~30x for the churn round, >1000x for the flip-only refresh (the
re-stamp path).  The CI ``benchmarks`` job runs this file and uploads
``bench-churn.json``.
"""

from __future__ import annotations

import random
import time

import pytest

np = pytest.importorskip("numpy")

from repro.datasets import synthetic_csr_network
from repro.experiments.streaming import apply_edge_churn
from repro.signed import as_signed_graph
from repro.signed.labels import build_label_index, labels_equal, refresh_label_index

#: Churn-round benchmark graph (nodes; ~NUM_NODES*5 undirected edges).
NUM_NODES = 200_000
AVERAGE_DEGREE = 10.0

#: Events per churn round (~0.2% of the edges).
CHURN_EVENTS = 2_000

#: CSR-native round over dict-materialising round, wall clock.
CHURN_SPEEDUP_BAR = 3.0

#: Label-refresh benchmark graph: connected, small enough for a CI rebuild.
LABEL_NODES = 3_000
LABEL_DEGREE = 6.0

#: Flip-only churn fraction for the refresh gate.
FLIP_FRACTION = 0.005

#: refresh_label_index over build_label_index on flip-only churn.
REFRESH_SPEEDUP_BAR = 5.0

#: Refresh overhead bound when topology churn forces a rebuild anyway: the
#: bounded resweep must bail fast, not burn a second build's worth of work.
BAILOUT_OVERHEAD_BAR = 2.0

SEED = 42


def _native_round(csr):
    """One dict-free churn round: facade mutation + vectorised collapse."""
    facade = as_signed_graph(csr)
    counts = apply_edge_churn(facade, CHURN_EVENTS, random.Random(SEED + 1))
    view = facade.csr_view()
    assert not facade.materialised
    return counts, view


def _dict_round(csr):
    """The pre-facade baseline: materialise dicts, churn them, re-index."""
    graph = csr.to_signed_graph()
    counts = apply_edge_churn(graph, CHURN_EVENTS, random.Random(SEED + 1))
    return counts, graph.csr_view()


def test_csr_native_churn_beats_dict_materialising(benchmark):
    """A facade churn round >= 3x over the dict-materialising baseline."""
    csr, _ = synthetic_csr_network(
        NUM_NODES, average_degree=AVERAGE_DEGREE, seed=SEED
    )

    start = time.perf_counter()
    native_counts, native_view = _native_round(csr)
    native_seconds = time.perf_counter() - start

    start = time.perf_counter()
    dict_counts, dict_view = _dict_round(csr)
    dict_seconds = time.perf_counter() - start

    speedup = dict_seconds / native_seconds
    benchmark.extra_info["num_edges"] = csr.number_of_edges()
    benchmark.extra_info["churn_events"] = CHURN_EVENTS
    benchmark.extra_info["native_round_seconds"] = native_seconds
    benchmark.extra_info["dict_round_seconds"] = dict_seconds
    benchmark.extra_info["churn_speedup"] = speedup
    benchmark.pedantic(lambda: _native_round(csr), rounds=3, iterations=1)
    print(
        f"\n[churn] {NUM_NODES} nodes / {csr.number_of_edges()} edges, "
        f"{CHURN_EVENTS} events: native {native_seconds:.2f}s, "
        f"dict {dict_seconds:.2f}s -> {speedup:.1f}x"
    )

    # Same events, bit-identical planes — speed without drift.
    assert native_counts == dict_counts
    assert native_view._nodes == dict_view._nodes
    assert np.array_equal(native_view.indptr, dict_view.indptr)
    assert np.array_equal(native_view.indices, dict_view.indices)
    assert np.array_equal(native_view.signs, dict_view.signs)
    assert speedup >= CHURN_SPEEDUP_BAR, (
        f"CSR-native churn only {speedup:.2f}x over the dict-materialising "
        f"round (bar {CHURN_SPEEDUP_BAR}x)"
    )


def _flip_edges(graph, csr, count, rng):
    """Flip ``count`` random edge signs in place (no topology events)."""
    src = np.repeat(
        np.arange(csr.number_of_nodes(), dtype=np.int64), np.diff(csr.indptr)
    )
    once = np.flatnonzero(src < csr.indices)
    picks = rng.choice(once.size, size=count, replace=False)
    nodes = csr._nodes
    for entry in once[picks].tolist():
        u = nodes[int(src[entry])]
        v = nodes[int(csr.indices[entry])]
        graph.set_sign(u, v, -graph.sign(u, v))
    return count


def test_connected_refresh_beats_rebuild_on_flip_churn(benchmark):
    """Flip-only refresh >= 5x over rebuild; topology bail-out stays cheap."""
    base, _ = synthetic_csr_network(
        LABEL_NODES, average_degree=LABEL_DEGREE, seed=SEED
    )
    graph = base.to_signed_graph()
    csr = graph.csr_view()
    num_edges = csr.number_of_edges()
    flips = max(1, int(num_edges * FLIP_FRACTION))

    start = time.perf_counter()
    index = build_label_index(csr, mode="exact")
    build_seconds = time.perf_counter() - start

    rng = np.random.default_rng(SEED)
    _flip_edges(graph, csr, flips, rng)
    assert graph.affected_nodes_since(index.generation) is None  # connected

    start = time.perf_counter()
    refreshed, how = refresh_label_index(index, graph)
    refresh_seconds = time.perf_counter() - start

    start = time.perf_counter()
    rebuilt = build_label_index(graph.csr_view(), mode="exact")
    rebuild_seconds = time.perf_counter() - start

    speedup = rebuild_seconds / max(refresh_seconds, 1e-9)
    benchmark.extra_info["label_nodes"] = LABEL_NODES
    benchmark.extra_info["num_edges"] = num_edges
    benchmark.extra_info["flips"] = flips
    benchmark.extra_info["build_seconds"] = build_seconds
    benchmark.extra_info["refresh_seconds"] = refresh_seconds
    benchmark.extra_info["rebuild_seconds"] = rebuild_seconds
    benchmark.extra_info["refresh_speedup"] = speedup
    print(
        f"\n[refresh] {LABEL_NODES} nodes / {num_edges} edges, {flips} flips "
        f"({100 * flips / num_edges:.2f}%): refresh {refresh_seconds * 1000:.2f}ms "
        f"({how}), rebuild {rebuild_seconds:.2f}s -> {speedup:.0f}x"
    )

    assert how == "patched"
    assert labels_equal(refreshed, rebuilt)
    assert speedup >= REFRESH_SPEEDUP_BAR, (
        f"connected-graph refresh only {speedup:.2f}x over rebuild "
        f"(bar {REFRESH_SPEEDUP_BAR}x)"
    )

    # Topology churn on an expander rebuilds — but the bounded resweep must
    # recognise that quickly instead of sweeping to exhaustion first.
    nodes = graph.nodes()
    removed = 0
    for offset in range(LABEL_NODES):
        u = nodes[int(rng.integers(LABEL_NODES))]
        neighbours = list(graph.neighbors(u))
        if neighbours and graph.degree(u) > 1:
            graph.remove_edge(u, neighbours[0])
            removed += 1
        if removed >= 3:
            break

    start = time.perf_counter()
    refreshed2, how2 = refresh_label_index(refreshed, graph)
    refresh2_seconds = time.perf_counter() - start
    overhead = refresh2_seconds / max(rebuild_seconds, 1e-9)
    benchmark.extra_info["bailout_refresh_seconds"] = refresh2_seconds
    benchmark.extra_info["bailout_overhead"] = overhead
    benchmark.pedantic(
        lambda: refresh_label_index(index, graph)[1], rounds=1, iterations=1
    )
    print(
        f"[refresh] {removed} removals: refresh {refresh2_seconds:.2f}s "
        f"({how2}) vs rebuild {rebuild_seconds:.2f}s -> {overhead:.2f}x overhead"
    )
    assert labels_equal(refreshed2, build_label_index(graph.csr_view(), mode="exact"))
    assert overhead <= BAILOUT_OVERHEAD_BAR, (
        f"refresh fallback cost {overhead:.2f}x a full rebuild "
        f"(bar {BAILOUT_OVERHEAD_BAR}x)"
    )
