"""Benchmarks for the distance-label index (:mod:`repro.signed.labels`).

The acceptance bars (ISSUE 7), all on the 50k-node synthetic signed network:

* **Sublinear serving**: once built, the indexed ``batch_distance_to_set``
  must be >= 5x faster than the cold batched-BFS path (the oracle's BFS
  cache cleared per query, as on a freshly loaded snapshot) for a
  256-candidate x 3-member query — measured ~25x, and the gap *grows* as the
  candidate set shrinks (~80x at 64 candidates) because the BFS path pays a
  fixed full-graph traversal per team member while the label path only
  touches the candidates' labels.  Build amortisation (queries until the
  build pays for itself) is reported alongside.
* **Exactness at scale**: hub-label answers are bit-identical to the BFS
  kernel across full 50k-target rows, and landmark sketches never undercut
  the true distance while every ``exact``-flagged entry matches it.
* **Pooled build**: landmark rows built through the process pool
  (``build_labels`` kernel, result arena) are bit-identical to the serial
  build (self-skips below 2 CPUs).

The exact 2-hop build at this scale is minutes of one-time work — that is
the trade the index makes, and exactly why it is delta-patched under churn
and persisted in the ``.store`` snapshot instead of rebuilt per process.
The CI ``benchmarks`` job runs this file and uploads ``bench-labels.json``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.compatibility import DistanceOracle, make_relation
from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy, executor_for, shutdown_pools

np = pytest.importorskip("numpy")

from repro.signed.csr import (  # noqa: E402  (needs numpy)
    UNREACHABLE,
    shortest_path_lengths_dense_batch,
)
from repro.signed.labels import (  # noqa: E402
    build_label_index,
    labels_equal,
)

#: Size of the benchmark graph (the paper's Epinions/Slashdot class).
NUM_NODES = 50_000

#: The gated query shape: candidates per sweep, members per team.
GATE_CANDIDATES = 256
TEAM_SIZE = 3

#: Indexed over cold batched-BFS at the gate shape (measured ~25x).
SPEEDUP_BAR = 5.0

#: Budget generous enough for exact labels at 50k nodes (~38 MB measured).
LABEL_BUDGET = 256 * 2**20

SEED = 42


@pytest.fixture(scope="module")
def big_graph():
    graph, _ = synthetic_signed_network(
        NUM_NODES, average_degree=6.0, negative_fraction=0.2, seed=SEED
    )
    yield graph
    shutdown_pools()


@pytest.fixture(scope="module")
def big_csr(big_graph):
    return big_graph.csr_view()


@pytest.fixture(scope="module")
def exact_index(big_csr):
    """The exact hub-label index, built once and shared (it is the expensive
    artefact every test here measures against)."""
    start = time.perf_counter()
    index = build_label_index(big_csr, mode="auto", budget_bytes=LABEL_BUDGET)
    build_seconds = time.perf_counter() - start
    assert index.mode == "exact", "50k nodes must resolve to exact labels"
    return index, build_seconds


def _timed(function, rounds=3):
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_indexed_batch_beats_cold_bfs(big_graph, exact_index, benchmark):
    """Indexed batch_distance_to_set >= 5x over the cold batched-BFS path."""
    index, build_seconds = exact_index
    nodes = big_graph.nodes()
    team = nodes[:TEAM_SIZE]

    plain = DistanceOracle(make_relation("NNE", big_graph))
    indexed = DistanceOracle(
        make_relation(
            "NNE",
            big_graph,
            policy=ExecutionPolicy(
                distance_index="labels", label_budget_bytes=LABEL_BUDGET
            ),
        )
    )
    indexed.attach_index(index)

    def cold_bfs(candidates):
        plain.clear_cache()  # every query pays the team's BFS maps
        return plain.batch_distance_to_set(candidates, team)

    curve = {}
    for num_candidates in (64, GATE_CANDIDATES, 1024):
        candidates = nodes[1000 : 1000 + num_candidates]
        cold_seconds, reference = _timed(lambda: cold_bfs(candidates))
        indexed_seconds, served = _timed(
            lambda: indexed.batch_distance_to_set(candidates, team)
        )
        assert served == reference  # bit-identical floats, inf included
        curve[num_candidates] = (cold_seconds, indexed_seconds)

    cold_seconds, indexed_seconds = curve[GATE_CANDIDATES]
    speedup = cold_seconds / indexed_seconds
    saved_per_query = cold_seconds - indexed_seconds
    amortisation = build_seconds / saved_per_query if saved_per_query > 0 else float("inf")

    benchmark.extra_info["build_seconds"] = build_seconds
    benchmark.extra_info["index_nbytes"] = index.nbytes
    benchmark.extra_info["index_entries"] = index.num_entries
    benchmark.extra_info["queries_to_amortise_build"] = amortisation
    for num_candidates, (cold, fast) in curve.items():
        benchmark.extra_info[f"cold_bfs_seconds_{num_candidates}"] = cold
        benchmark.extra_info[f"indexed_seconds_{num_candidates}"] = fast
        benchmark.extra_info[f"speedup_{num_candidates}"] = cold / fast
    gate_candidates = nodes[1000 : 1000 + GATE_CANDIDATES]
    benchmark.pedantic(
        lambda: indexed.batch_distance_to_set(gate_candidates, team),
        rounds=3,
        iterations=1,
    )
    print(
        f"\n[labels] build {build_seconds:.1f}s "
        f"({index.num_entries} entries, {index.nbytes / 2**20:.1f} MB); "
        f"{GATE_CANDIDATES}-candidate sweep: cold BFS {cold_seconds * 1000:.2f}ms, "
        f"indexed {indexed_seconds * 1000:.3f}ms -> {speedup:.1f}x "
        f"(amortised after ~{amortisation:.0f} queries)"
    )
    for num_candidates, (cold, fast) in sorted(curve.items()):
        print(
            f"[labels]   {num_candidates:5d} candidates: "
            f"{cold * 1000:8.2f}ms cold vs {fast * 1000:7.3f}ms indexed "
            f"({cold / fast:.1f}x)"
        )
    assert speedup >= SPEEDUP_BAR, (
        f"indexed batch_distance_to_set only {speedup:.1f}x over cold BFS "
        f"(bar {SPEEDUP_BAR}x)"
    )


def test_exact_labels_bit_identical_to_bfs_at_scale(big_csr, exact_index):
    """Full 50k-target rows from the hub labels == the BFS kernel's rows."""
    index, _build_seconds = exact_index
    rng = np.random.default_rng(SEED)
    sources = sorted(int(s) for s in rng.choice(NUM_NODES, size=8, replace=False))
    reference = shortest_path_lengths_dense_batch(big_csr, sources)
    targets = np.arange(NUM_NODES, dtype=np.int64)
    for row, source in enumerate(sources):
        assert np.array_equal(index.batch_query_from(source, targets), reference[row])


def test_landmark_bounds_sound_at_scale(big_csr, benchmark):
    """Landmark sketches: cheap to build, upper bounds everywhere, and every
    exact-flagged entry equals the true distance."""
    build_seconds, index = _timed(
        lambda: build_label_index(big_csr, mode="landmark"), rounds=1
    )
    rng = np.random.default_rng(SEED + 1)
    sources = [int(s) for s in rng.choice(NUM_NODES, size=4, replace=False)]
    reference = shortest_path_lengths_dense_batch(big_csr, sources)
    targets = np.arange(NUM_NODES, dtype=np.int64)
    exact_fraction = []
    for row, source in enumerate(sources):
        upper, exact = index.batch_bounds_from(source, targets)
        true = reference[row]
        reachable = true != UNREACHABLE
        assert (upper[reachable] >= true[reachable]).all()
        assert (upper[~reachable] == UNREACHABLE).all()
        assert np.array_equal(upper[exact], true[exact])
        exact_fraction.append(float(exact.mean()))
    benchmark.extra_info["landmark_build_seconds"] = build_seconds
    benchmark.extra_info["landmark_num_hubs"] = index.num_hubs
    benchmark.extra_info["landmark_exact_fraction"] = sum(exact_fraction) / len(
        exact_fraction
    )
    benchmark.pedantic(
        lambda: index.batch_bounds_from(sources[0], targets), rounds=3, iterations=1
    )
    print(
        f"\n[landmark] build {build_seconds:.2f}s ({index.num_hubs} hubs), "
        f"provably-exact coverage {100 * sum(exact_fraction) / len(exact_fraction):.1f}% "
        "of probed pairs"
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="pooled build_labels comparison needs 2 CPUs",
)
def test_pool_built_landmark_index_bit_identical(big_csr, benchmark):
    """Landmark rows via the build_labels pool kernel == the serial build."""
    serial_seconds, serial = _timed(
        lambda: build_label_index(big_csr, mode="landmark"), rounds=1
    )
    pooled_seconds, pooled = _timed(
        lambda: build_label_index(
            big_csr,
            mode="landmark",
            executor=executor_for(ExecutionPolicy(workers=2)),
        ),
        rounds=1,
    )
    benchmark.extra_info["serial_build_seconds"] = serial_seconds
    benchmark.extra_info["pooled_build_seconds"] = pooled_seconds
    benchmark.pedantic(lambda: labels_equal(serial, pooled), rounds=1, iterations=1)
    print(
        f"\n[landmark] serial build {serial_seconds:.2f}s, "
        f"2-worker pooled {pooled_seconds:.2f}s (bit-identical)"
    )
    assert labels_equal(serial, pooled)
