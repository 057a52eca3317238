"""Performance benchmarks for the batched CompatibilityEngine.

The acceptance bar for the engine is a >= 4x speedup of *batched per-skill
candidate evaluation* — "which holders of skill s are compatible with the
current team?", the inner question of Algorithm 2 — over the per-pair
``are_compatible`` loop through the relation API, on a Table-2-scale
workload (a ~50k-node synthetic signed network with a Zipf skill
assignment).  Both sides run the same CSR BFS backend; the measured
difference is one multi-source team BFS plus vectorised pair-rule masks
versus one Python-level pair check per (member, candidate).

The multi-source kernel and the SBPH (node, sign)-state search get their own
timed entries so the CI artifact tracks them release over release; the
multi-source batch must also beat the per-source loop it replaces by >= 1.5x
at 64 sources on a 2k-node graph (measured 1.78-1.95x on a 2-core Xeon VM
against the direction-optimising per-source kernel).
"""

from __future__ import annotations

import time

import pytest

from repro.compatibility import CompatibilityEngine, make_relation
from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy
from repro.signed.csr import multi_source_signed_bfs, signed_bfs_csr
from repro.signed.csr import balanced_heuristic_search_csr
from repro.signed.paths import BalancedPathSearch
from repro.skills.generators import assign_skills_zipf

#: Size of the Table-2-style benchmark graph (the paper's Epinions/Slashdot class).
NUM_NODES = 50_000

#: Team size and number of per-skill candidate evaluations in the timed loop.
TEAM_SIZE = 5
NUM_SKILLS_EVALUATED = 40

#: Multi-source batch over the per-source loop, 64 signed BFS sources on the
#: 2k-node graph (measured 1.78-1.95x).
MULTI_SOURCE_BAR = 1.5


@pytest.fixture(scope="module")
def workload():
    """A 50k-node signed network with a Zipf skill assignment and one team."""
    graph, _ = synthetic_signed_network(
        NUM_NODES, average_degree=6.0, negative_fraction=0.2, seed=42
    )
    assert graph.number_of_nodes() >= NUM_NODES
    skills = assign_skills_zipf(
        graph.nodes(), num_skills=120, skills_per_user=3.0, seed=43
    )
    graph.csr_view()  # build the shared index outside every timed region
    # A plausible in-progress team: the first seed plus its nearest positive
    # neighbours, mirroring what Algorithm 2 holds mid-run.
    seed_user = graph.nodes()[0]
    team = [seed_user]
    for neighbor in graph.positive_neighbors(seed_user):
        if len(team) >= TEAM_SIZE:
            break
        team.append(neighbor)
    evaluated = [
        skill
        for skill in sorted(skills.skills(), key=str)[:NUM_SKILLS_EVALUATED]
    ]
    pools = {skill: sorted(skills.users_with(skill), key=repr) for skill in evaluated}
    return graph, team, pools


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


def _evaluate_skills(graph, team, pools, per_pair: bool):
    """Fresh relation, then one candidate filter per skill — through the
    engine, or pair by pair through the relation API (the reference)."""
    relation = make_relation("SPO", graph, policy=ExecutionPolicy(backend="csr"))
    if per_pair:
        return [
            frozenset(
                candidate
                for candidate in pools[skill]
                if candidate not in team
                and all(relation.are_compatible(member, candidate) for member in team)
            )
            for skill in pools
        ]
    engine = CompatibilityEngine(relation)
    return [engine.compatible_from_many(pools[skill], team) for skill in pools]


def test_engine_candidate_evaluation_speedup_at_least_4x(workload):
    """Batched per-skill candidate evaluation >= 4x the per-pair loop, same sets."""
    graph, team, pools = workload

    legacy_elapsed, legacy_sets = _best_of(
        2, lambda: _evaluate_skills(graph, team, pools, per_pair=True)
    )
    engine_elapsed, engine_sets = _best_of(
        3, lambda: _evaluate_skills(graph, team, pools, per_pair=False)
    )

    assert engine_sets == legacy_sets  # identical candidate sets, skill by skill

    speedup = legacy_elapsed / engine_elapsed
    candidates = sum(len(pool) for pool in pools.values())
    print(
        f"\nper-skill candidate evaluation on {graph.number_of_nodes()} nodes "
        f"({len(pools)} skills, {candidates} candidates, team of {len(team)}): "
        f"per-pair {legacy_elapsed:.2f}s, engine {engine_elapsed:.2f}s, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= 4.0, (
        f"engine speedup {speedup:.1f}x below the 4x acceptance bar "
        f"(per-pair {legacy_elapsed:.3f}s vs engine {engine_elapsed:.3f}s)"
    )


@pytest.mark.benchmark(group="perf-engine-batch")
def test_perf_multi_source_signed_bfs_50k(benchmark, workload):
    """Batched multi-source Algorithm 1 over 32 sources of the 50k graph.

    32 sources fill half a 64-bit word, so the kernel runs them
    word-parallel: one adjacency gather per BFS level for all 32.
    """
    graph, _team, _pools = workload
    csr = graph.csr_view()
    sources = graph.nodes()[:32]
    results = benchmark.pedantic(
        multi_source_signed_bfs, args=(csr, sources), rounds=3, iterations=1
    )
    assert len(results) == len(sources)


@pytest.fixture(scope="module")
def small_graph():
    """A 2k-node graph, the size class of the paper's epinions dataset."""
    graph, _ = synthetic_signed_network(
        2_000, average_degree=6.0, negative_fraction=0.2, seed=7
    )
    graph.csr_view()
    return graph


@pytest.mark.benchmark(group="perf-multi-source")
def test_perf_multi_source_batch_vs_source_loop_small_graph(benchmark, small_graph):
    """Multi-source batch vs per-source loop, 64 sources, 2k-node graph.

    The batch must return the loop's arrays bit for bit and run >= 1.5x
    faster; the timed entry tracks the batch.
    """
    csr = small_graph.csr_view()
    sources = small_graph.nodes()[:64]
    loop_elapsed, loop_results = _best_of(
        3, lambda: [signed_bfs_csr(csr, source) for source in sources]
    )
    batch_elapsed, batch_results = _best_of(
        3, lambda: multi_source_signed_bfs(csr, sources)
    )
    for batched, single in zip(batch_results, loop_results):
        assert (batched.lengths_array == single.lengths_array).all()
        assert (batched.positive_array == single.positive_array).all()
        assert (batched.negative_array == single.negative_array).all()
    speedup = loop_elapsed / batch_elapsed
    benchmark.extra_info["source_loop_seconds"] = loop_elapsed
    benchmark.extra_info["batch_seconds"] = batch_elapsed
    benchmark.extra_info["speedup"] = speedup
    results = benchmark.pedantic(
        multi_source_signed_bfs, args=(csr, sources), rounds=3, iterations=1
    )
    assert len(results) == len(sources)
    print(
        f"\nmulti-source signed BFS x{len(sources)} on "
        f"{small_graph.number_of_nodes()} nodes: per-source loop "
        f"{loop_elapsed * 1000:.1f}ms, batch {batch_elapsed * 1000:.1f}ms, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= MULTI_SOURCE_BAR, (
        f"multi-source batch only {speedup:.2f}x over the per-source loop "
        f"(bar {MULTI_SOURCE_BAR}x)"
    )


@pytest.mark.benchmark(group="perf-sbph-csr")
def test_perf_sbph_search_csr_vs_dict(benchmark, workload):
    """SBPH (node, sign)-state CSR search from one source, checked against dict."""
    graph, _team, _pools = workload
    csr = graph.csr_view()
    source = graph.nodes()[0]
    result = benchmark.pedantic(
        balanced_heuristic_search_csr, args=(csr, source), rounds=3, iterations=1
    )
    expected = BalancedPathSearch(graph).search_heuristic(source)
    assert result.positive_lengths == expected.positive_lengths
    assert result.negative_lengths == expected.negative_lengths
