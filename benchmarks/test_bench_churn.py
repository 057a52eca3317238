"""Benchmarks for CSR-native streaming churn.

The acceptance bar: on a 200k-node / ~1M-edge graph, one churn round
applied to the :class:`~repro.signed.lazy.CSRBackedSignedGraph` facade
(mutations land in overlay rows + the delta log, the next ``csr_view()``
folds them vectorised) must be >= 3x faster than the dict-materialising
baseline — rebuilding the adjacency dicts from the planes and churning
those, which is what every streaming round paid before the facade learned
to mutate dict-free.  Both paths must produce bit-identical CSR planes.

Measured: ~30x.  The CI ``benchmarks`` job runs this file and uploads
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

#: Churn-round benchmark graph (nodes; ~NUM_NODES*5 undirected edges).
NUM_NODES = 200_000
AVERAGE_DEGREE = 10.0

#: Events per churn round (~0.2% of the edges).
CHURN_EVENTS = 2_000

#: CSR-native round over dict-materialising round, wall clock.
CHURN_SPEEDUP_BAR = 3.0

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
