"""Benchmarks for set-valued pool results returned through ``Pool.map``.

On a 50k-node synthetic signed network, pooled set-valued sweeps
(``batch_bfs`` — the transport-heaviest kernel, ~1 MB of result arrays per
source — and the oracle's distance maps) return each worker chunk's dense
rows pickled through ``Pool.map`` and must be **bit-identical** to serial
runs.  A pooled ``batch_compatible_sets`` sweep is that same ``batch_bfs``
return followed by the pair-rule masks in the parent.  The identity check
runs everywhere (2 workers, real cross-process dispatch); the timed sweeps
are tracked by the CI ``benchmarks`` job in ``bench-shipping.json``.
"""

from __future__ import annotations

import pytest

from repro.compatibility import DistanceOracle, make_relation
from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy, shutdown_pools

#: Size of the benchmark graph (the paper's Epinions/Slashdot class).
NUM_NODES = 50_000

#: Sources per set-valued sweep (a Table-2-scale sample).
NUM_SOURCES = 64

SEED = 4321


@pytest.fixture(scope="module")
def big_graph():
    """A 50k-node signed network with its CSR snapshot prebuilt."""
    graph, _ = synthetic_signed_network(
        NUM_NODES, average_degree=6.0, negative_fraction=0.2, seed=42
    )
    graph.csr_view()  # build the shared index outside every timed region
    yield graph
    shutdown_pools()


def _policy(workers: int) -> ExecutionPolicy:
    return ExecutionPolicy(workers=workers)


def _cold_batch_bfs(graph, workers: int):
    """A fresh relation's cold ``batch_bfs`` sweep.  SP* relations on one
    graph share their signed-BFS cache, so it is cleared first: otherwise
    every sweep after the first reads the previous one's results."""
    relation = make_relation("SPO", graph, policy=_policy(workers))
    relation.clear_cache()
    return relation.batch_bfs(graph.nodes()[:NUM_SOURCES])


def _as_comparable(results):
    """BFS results as comparable tuples (arrays -> bytes), order preserved."""
    comparable = []
    for result in results:
        comparable.append(
            (
                result.source,
                result.lengths_array.tobytes(),
                result.positive_array.tobytes(),
                result.negative_array.tobytes(),
            )
        )
    return comparable


def test_pooled_sweeps_bit_identical(big_graph):
    """Pooled sweeps returned through ``Pool.map`` and serial sweeps agree
    bit for bit.

    Covers ``batch_bfs`` triples, the ``batch_compatible_sets`` built on
    them and the oracle's ``warm`` maps.
    """
    serial = _as_comparable(_cold_batch_bfs(big_graph, 0))
    pooled = _as_comparable(_cold_batch_bfs(big_graph, 2))
    assert pooled == serial

    sample = big_graph.nodes()[:24]
    team = big_graph.nodes()[100:104]
    candidates = big_graph.nodes()[200:260]
    answers = []
    for workers in (0, 2):
        relation = make_relation("SPO", big_graph, policy=_policy(workers))
        relation.clear_cache()  # the pooled side must not read serial rows
        answers.append(
            (
                relation.batch_compatible_sets(sample),
                DistanceOracle(relation).batch_distance_to_set(candidates, team),
            )
        )
    assert answers[1] == answers[0]


@pytest.mark.benchmark(group="perf-shipping")
def test_perf_pooled_batch_bfs_50k(benchmark, big_graph):
    """Pooled cold batch_bfs sweep, rows returned through ``Pool.map``
    (tracked in bench-shipping.json)."""
    benchmark.pedantic(lambda: _cold_batch_bfs(big_graph, 2), rounds=3, iterations=1)


@pytest.mark.benchmark(group="perf-shipping")
def test_perf_pooled_compatible_sets_50k(benchmark, big_graph):
    """Pooled compatible-set sweep: ``batch_bfs`` rows returned through
    ``Pool.map``, then the pair-rule masks in the parent."""
    relation = make_relation("SPO", big_graph, policy=_policy(2))
    sources = big_graph.nodes()[:NUM_SOURCES]

    def sweep_cold():
        relation.clear_cache()
        relation.batch_compatible_sets(sources)

    benchmark.pedantic(sweep_cold, rounds=3, iterations=1)
