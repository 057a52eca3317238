"""Performance benchmarks for the dynamic-graph subsystem.

Two acceptance bars (ISSUE 3), measured on a Table-2-scale 50k-node synthetic
signed network:

* **delta-apply >= 5x**: patching the CSR snapshot with a <= 1% edge batch
  (:meth:`CSRSignedGraph.apply_delta`) must beat a full
  :meth:`CSRSignedGraph.from_signed_graph` rebuild by at least 5x, while
  producing bit-identical arrays;
* **generation memo >= 10x**: a repeat ``compatible_from_many`` against the
  same team (served by the relation's generation-keyed per-source rows, the
  pair rule read at the candidates) must be at least 10x faster than the
  cold call.

Both also get pytest-benchmark entries so the CI artifact
(``bench-dynamic.json``) tracks them release over release.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.compatibility import CompatibilityEngine, make_relation
from repro.datasets import synthetic_signed_network
from repro.signed.csr import CSRSignedGraph

#: Size of the benchmark graph (the paper's Epinions/Slashdot class).
NUM_NODES = 50_000

#: Edge events in the churn batch — about 0.4% of the graph's ~150k edges,
#: well inside the <= 1% bar and the 5% delta-apply threshold.
CHURN_EVENTS = 600


@pytest.fixture(scope="module")
def churned_graph():
    """A 50k-node graph, its pre-churn snapshot, and the pending delta."""
    graph, _ = synthetic_signed_network(
        NUM_NODES, average_degree=6.0, negative_fraction=0.2, seed=42
    )
    base = graph.csr_view()
    rng = random.Random(7)
    nodes = graph.nodes()
    edges = list(graph.edge_triples())
    for u, v, sign in rng.sample(edges, (2 * CHURN_EVENTS) // 3):
        if graph.has_edge(u, v):
            if rng.random() < 0.5:
                graph.set_sign(u, v, -sign)
            else:
                graph.remove_edge(u, v)
    added = 0
    while added < CHURN_EVENTS // 3:
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice([1, -1]))
            added += 1
    delta = graph._delta
    assert delta is not None and not delta.overflowed
    assert delta.num_edge_events <= 0.01 * graph.number_of_edges()
    return graph, base, delta


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


def test_delta_apply_speedup_at_least_5x(churned_graph):
    """apply_delta on a <= 1% batch >= 5x over a full rebuild, bit-identical."""
    graph, base, delta = churned_graph

    delta_elapsed, patched = _best_of(
        3, lambda: CSRSignedGraph.apply_delta(base, graph, delta)
    )
    rebuild_elapsed, rebuilt = _best_of(
        3, lambda: CSRSignedGraph.from_signed_graph(graph)
    )

    assert patched._nodes == rebuilt._nodes
    assert np.array_equal(patched.indptr, rebuilt.indptr)
    assert np.array_equal(patched.indices, rebuilt.indices)
    assert np.array_equal(patched.signs, rebuilt.signs)

    speedup = rebuild_elapsed / delta_elapsed
    print(
        f"\ndelta maintenance on {graph.number_of_nodes()} nodes "
        f"({delta.num_edge_events} edge events, {graph.number_of_edges()} edges): "
        f"rebuild {rebuild_elapsed * 1000:.1f} ms, apply_delta "
        f"{delta_elapsed * 1000:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0, (
        f"delta-apply speedup {speedup:.1f}x below the 5x acceptance bar "
        f"(rebuild {rebuild_elapsed:.3f}s vs apply {delta_elapsed:.3f}s)"
    )


def test_generation_memoised_team_filter_at_least_10x(churned_graph):
    """Repeat compatible_from_many (the team's generation-keyed rows cached)
    >= 10x over the cold call."""
    graph, _base, _delta = churned_graph
    graph.csr_view()  # settle the churn delta outside the timed region
    relation = make_relation("SPO", graph)
    engine = CompatibilityEngine(relation)
    nodes = graph.nodes()
    team = nodes[:5]
    pool = nodes[100:2100]

    start = time.perf_counter()
    cold = engine.compatible_from_many(pool, team)
    cold_elapsed = time.perf_counter() - start
    warm_elapsed, warm = _best_of(3, lambda: engine.compatible_from_many(pool, team))

    assert warm == cold
    speedup = cold_elapsed / warm_elapsed
    print(
        f"\nmemoised team filter on {graph.number_of_nodes()} nodes "
        f"({len(pool)} candidates, team of {len(team)}): cold "
        f"{cold_elapsed * 1000:.1f} ms, warm {warm_elapsed * 1000:.2f} ms, "
        f"speedup {speedup:.0f}x"
    )
    assert speedup >= 10.0, (
        f"memoisation speedup {speedup:.0f}x below the 10x acceptance bar "
        f"(cold {cold_elapsed:.4f}s vs warm {warm_elapsed:.4f}s)"
    )


@pytest.mark.benchmark(group="perf-dynamic")
def test_perf_apply_delta_50k(benchmark, churned_graph):
    """Timed entry: apply_delta of a ~0.4% churn batch on the 50k graph."""
    graph, base, delta = churned_graph
    patched = benchmark.pedantic(
        CSRSignedGraph.apply_delta, args=(base, graph, delta), rounds=3, iterations=1
    )
    assert patched.number_of_nodes() == graph.number_of_nodes()


@pytest.mark.benchmark(group="perf-dynamic")
def test_perf_full_rebuild_50k(benchmark, churned_graph):
    """Timed entry: the full snapshot rebuild the delta path replaces."""
    graph, _base, _delta = churned_graph
    rebuilt = benchmark.pedantic(
        CSRSignedGraph.from_signed_graph, args=(graph,), rounds=3, iterations=1
    )
    assert rebuilt.number_of_nodes() == graph.number_of_nodes()
