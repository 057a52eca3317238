"""Benchmarks for the execution-policy layer's process-pool executor.

The acceptance bar (ISSUE 4): on the Table-2 sampled pair statistics over a
50k-node synthetic signed network, a 4-worker :class:`ProcessPoolExecutor`
must be **>= 3x** faster wall-clock than the serial executor while returning
**bit-identical** statistics.  The identity half runs everywhere (with 2
workers, so it exercises real cross-process dispatch even on small CI boxes);
the speedup half needs real parallel hardware and skips below 4 CPUs — the CI
``benchmarks`` job's runner provides 4.

Timed entries for the pooled sweep are recorded via pytest-benchmark so the
``bench-parallel.json`` artifact tracks the dispatch overhead release over
release.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.compatibility import (
    CompatibilityEngine,
    make_relation,
    source_sampled_pair_statistics,
)
from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy, shutdown_pools

#: Size of the Table-2-style benchmark graph (the paper's Epinions/Slashdot class).
NUM_NODES = 50_000

#: Sources sampled by the Table-2 estimator (the default_config scale).
NUM_SOURCES = 150

#: Worker count the acceptance bar is defined at.
BAR_WORKERS = 4

#: The wall-clock bar: pooled sampled stats must beat serial by this factor.
SPEEDUP_BAR = 3.0

SEED = 1234


@pytest.fixture(scope="module")
def big_graph():
    """A 50k-node signed network with its CSR snapshot prebuilt."""
    graph, _ = synthetic_signed_network(
        NUM_NODES, average_degree=6.0, negative_fraction=0.2, seed=42
    )
    assert graph.number_of_nodes() >= NUM_NODES
    graph.csr_view()  # build the shared index outside every timed region
    yield graph
    shutdown_pools()


def _sampled_stats(graph, workers: int):
    """Fresh relation + engine under ``workers``, one Table-2 sampled sweep.

    SPM's: its degrees need Algorithm 1's counts, which the pool computes
    inside the workers.  SPA's and SPO's sweeps reduce presence planes
    in-process under every policy, so they never reach the pool.
    """
    policy = ExecutionPolicy(workers=workers)
    relation = make_relation("SPM", graph, policy=policy)
    engine = CompatibilityEngine(relation)
    return source_sampled_pair_statistics(
        relation, NUM_SOURCES, seed=SEED, engine=engine
    )


def _timed(function):
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


def test_pool_sampled_stats_bit_identical(big_graph):
    """2-worker pooled Table-2 sampled stats == serial, bit for bit.

    Runs everywhere (no CPU-count gate): even time-sliced on one core, the
    pool must merge chunked worker results into exactly the serial answer.
    """
    serial_stats = _sampled_stats(big_graph, workers=0)
    pooled_stats = _sampled_stats(big_graph, workers=2)
    assert pooled_stats == serial_stats


@pytest.mark.skipif(
    (os.cpu_count() or 1) < BAR_WORKERS,
    reason=f"the >= {SPEEDUP_BAR}x bar needs {BAR_WORKERS} real CPUs",
)
def test_pool_sampled_stats_speedup_at_least_3x(big_graph):
    """4-worker pooled sampled stats >= 3x serial at 50k nodes, same numbers."""
    serial_elapsed, serial_stats = _timed(lambda: _sampled_stats(big_graph, 0))
    # Warm the pool (process startup + first snapshot shipment) outside the
    # timed region, mirroring a long-lived serving process.
    _sampled_stats(big_graph, BAR_WORKERS)
    pooled_elapsed, pooled_stats = _timed(
        lambda: _sampled_stats(big_graph, BAR_WORKERS)
    )

    assert pooled_stats == serial_stats  # identical statistics, always

    speedup = serial_elapsed / pooled_elapsed
    print(
        f"\nTable-2 sampled stats on {big_graph.number_of_nodes()} nodes "
        f"({NUM_SOURCES} sources): serial {serial_elapsed:.2f}s, "
        f"{BAR_WORKERS} workers {pooled_elapsed:.2f}s, speedup {speedup:.1f}x"
    )
    assert speedup >= SPEEDUP_BAR, (
        f"pool speedup {speedup:.1f}x below the {SPEEDUP_BAR}x acceptance bar "
        f"(serial {serial_elapsed:.3f}s vs pooled {pooled_elapsed:.3f}s)"
    )


@pytest.mark.benchmark(group="perf-parallel")
def test_perf_pooled_warm_50k(benchmark, big_graph):
    """Pooled engine warm over 64 sources of the 50k graph (dispatch overhead).

    Tracks publish + chunk + IPC cost on top of the raw kernels; the cache is
    cleared every round so each measurement re-dispatches.
    """
    policy = ExecutionPolicy(workers=2)
    relation = make_relation("SPO", big_graph, policy=policy)
    engine = CompatibilityEngine(relation)
    sources = big_graph.nodes()[:64]

    def warm_cold():
        engine.clear_caches()
        engine.warm(sources)

    benchmark.pedantic(warm_cold, rounds=3, iterations=1)


@pytest.mark.benchmark(group="perf-parallel")
def test_perf_serial_warm_50k(benchmark, big_graph):
    """The serial counterpart of the pooled warm (same 64 sources)."""
    relation = make_relation("SPO", big_graph)
    engine = CompatibilityEngine(relation)
    sources = big_graph.nodes()[:64]

    def warm_cold():
        engine.clear_caches()
        engine.warm(sources)

    benchmark.pedantic(warm_cold, rounds=3, iterations=1)
