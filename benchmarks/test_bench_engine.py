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
against the direction-optimising per-source kernel), and the batched SBPH
search from every source of the fast-config epinions stand-in must beat a
per-source copy of the search it replaced, kept in this file, by >= 2x with
the same depth per node (measured 3.3-5.1x on the same VM: 1.09-1.54 s
per-source, 0.31-0.33 s batched).  The exact SBP enumeration from every
source of the fast-config slashdot stand-in, at Table 2's expansion cap,
must run >= 2.5x faster through the batched CSR core than through the dict
``search_exact``, with the same depth per node and truncation flags
(measured 4.7-5.9x on the same VM: 2.13-2.30 s dict, 0.39-0.45 s CSR).
SPO's 64-source presence word must run >= 3x faster than Algorithm 1's
word-parallel counts over the same 64 sources of the default 2308-node
epinions stand-in, with identical lengths and ``counts > 0`` (measured
4.9-6.3x on the same VM: 31-42 ms counts, 5.5-6.9 ms presence).  A 64-source
SPA degree sweep of the 50k-node graph, which runs one presence word, must
be >= 3x faster than counting the same sources one traversal at a time, with
identical degrees (measured 9.6-9.9x on the same VM: 0.40 s per source,
0.04 s presence).
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.compatibility import CompatibilityEngine, make_relation
from repro.datasets import load_dataset, synthetic_signed_network
from repro.exec.kernels import csr_compatible_degrees
from repro.experiments import fast_config
from repro.signed.csr import (
    UNREACHABLE,
    _concatenated_neighbor_ranges,
    balanced_depths,
    multi_source_signed_bfs,
    signed_bfs_csr,
    signed_bfs_dense_batch_into,
)
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

#: Batched all-sources SBPH over the per-source search on the fast-config
#: epinions stand-in (measured 3.3-5.1x).
SBPH_BATCH_BAR = 2.0

#: Batched all-sources exact SBP on CSR over the dict ``search_exact`` on the
#: fast-config slashdot stand-in (measured 4.7-5.9x).
SBP_CSR_BAR = 2.5

#: A 64-source presence word over the counting word on the default epinions
#: stand-in (measured 4.9-6.3x).
PRESENCE_WORD_BAR = 3.0

#: A 64-source SPA degree sweep (one presence word) over per-source counting
#: on the 50k-node graph (measured 9.6-9.9x).
SPA_SWEEP_BAR = 3.0


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
    relation = make_relation("SPO", graph)
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


@pytest.mark.benchmark(group="perf-presence")
def test_spa_degree_sweep_speedup_over_per_source_counting(benchmark, workload):
    """64 SPA degrees: the presence sweep >= 3x per-source counting, same degrees.

    The sweep is the relation's cold ``batch_compatibility_degrees``, which
    reduces one presence word in-process; the reference counts each source
    with Algorithm 1 through the ``csr_compatible_degrees`` kernel, as the
    pool's chunks of fewer than ``WORDPARALLEL_MIN_SOURCES`` sources did.
    """
    graph, _team, _pools = workload
    csr = graph.csr_view()
    sources = random.Random(11).sample(graph.nodes(), 64)
    relation = make_relation("SPA", graph)

    def sweep():
        relation.clear_cache()
        return relation.batch_compatibility_degrees(sources)

    def per_source():
        return [
            csr_compatible_degrees(csr, [csr.index_of(source)], {})[0][0]
            for source in sources
        ]

    counts_elapsed, counted = _best_of(3, per_source)
    sweep_elapsed, swept = _best_of(3, sweep)
    assert swept == counted
    speedup = counts_elapsed / sweep_elapsed
    benchmark.extra_info["per_source_seconds"] = counts_elapsed
    benchmark.extra_info["sweep_seconds"] = sweep_elapsed
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(sweep, rounds=3, iterations=1)
    print(
        f"\n64 SPA degrees on {csr.number_of_nodes()} nodes: per-source counting "
        f"{counts_elapsed * 1000:.0f}ms, presence sweep {sweep_elapsed * 1000:.0f}ms, "
        f"speedup {speedup:.1f}x"
    )
    assert speedup >= SPA_SWEEP_BAR, (
        f"SPA presence sweep only {speedup:.1f}x over per-source counting "
        f"(bar {SPA_SWEEP_BAR}x)"
    )


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


def _extend_camps_per_edge(adjacency, camps, new_node):
    """The per-candidate balance check of :func:`_per_source_sbph_depths`:
    one Python step per adjacency entry, one camps-dict copy per claim."""
    indptr, indices, signs = adjacency
    required = None
    for position in range(indptr[new_node], indptr[new_node + 1]):
        camp = camps.get(indices[position])
        if camp is None:
            continue
        expected = camp if signs[position] > 0 else 1 - camp
        if required is None:
            required = expected
        elif required != expected:
            return None
    extended = dict(camps)
    extended[new_node] = 0 if required is None else required
    return extended


def _dense_depth_map(row):
    """A dense depth row as ``{dense id: depth}`` over the nodes it reaches."""
    return {dense: depth for dense, depth in enumerate(row.tolist()) if depth != UNREACHABLE}


def _per_source_sbph_depths(csr, source_id):
    """SBPH from one dense source, the kernel before batching.

    Candidate generation and claimed-state filtering are vectorised per
    level, then every surviving candidate runs a Python balance check.
    Kept as the baseline of the batched-search speedup bar, without the
    vectorised check it ran for candidates of degree >= 512 (none on the
    benchmark graph).
    """
    num_nodes = csr.number_of_nodes()
    claimed = np.zeros(2 * num_nodes, dtype=bool)
    claimed[source_id] = True
    representative = {source_id: ([source_id], {source_id: 0})}
    positive_depths = {source_id: 0}
    negative_depths = {}
    frontier = [source_id]
    depth = 0
    adjacency = (csr.indptr.tolist(), csr.indices.tolist(), csr.signs.tolist())
    while frontier and depth < num_nodes - 1:
        states = np.asarray(frontier, dtype=np.int64)
        targets, edge_signs, _origins, counts = _concatenated_neighbor_ranges(
            csr, states % num_nodes
        )
        if targets.size == 0:
            break
        origin_parity = np.repeat(states // num_nodes, counts)
        next_parity = np.where(edge_signs > 0, origin_parity, 1 - origin_parity)
        target_states = targets.astype(np.int64) + next_parity * num_nodes
        open_positions = np.flatnonzero(~claimed[target_states])
        next_frontier = []
        for t_node, t_state, o_state in zip(
            targets[open_positions].tolist(),
            target_states[open_positions].tolist(),
            np.repeat(states, counts)[open_positions].tolist(),
        ):
            if claimed[t_state]:
                continue
            path, camps = representative[o_state]
            if t_node in camps:
                continue
            extended = _extend_camps_per_edge(adjacency, camps, t_node)
            if extended is None:
                continue
            claimed[t_state] = True
            representative[t_state] = (path + [t_node], extended)
            depths = positive_depths if t_state < num_nodes else negative_depths
            depths[t_node] = depth + 1
            next_frontier.append(t_state)
        frontier = next_frontier
        depth += 1
    return positive_depths, negative_depths


@pytest.mark.benchmark(group="perf-presence")
def test_presence_word_speedup_over_counts_word(benchmark):
    """64 SPO sources: presence >= 3x Algorithm 1's counts, same answers.

    Both run one word-parallel word over the default 2308-node epinions
    stand-in; the presence rows must equal the counts' lengths and
    ``counts > 0`` for both signs.
    """
    csr = load_dataset("epinions").graph.csr_view()
    num_nodes = csr.number_of_nodes()
    sources = np.random.default_rng(29).choice(num_nodes, 64, replace=False).tolist()

    def run(presence):
        planes = [np.empty((64, num_nodes), dtype=dtype) for dtype in (np.int32, np.int64, np.int64)]
        tokens = signed_bfs_dense_batch_into(csr, sources, *planes, presence=presence)
        return tokens, planes

    counts_elapsed, (counts_tokens, counts) = _best_of(5, lambda: run(False))
    presence_elapsed, (presence_tokens, presence) = _best_of(5, lambda: run(True))
    assert counts_tokens == [True] * 64
    assert presence_tokens == ["presence"] * 64
    assert np.array_equal(presence[0], counts[0])
    assert np.array_equal(presence[1], (counts[1] > 0).astype(np.int64))
    assert np.array_equal(presence[2], (counts[2] > 0).astype(np.int64))
    speedup = counts_elapsed / presence_elapsed
    benchmark.extra_info["counts_seconds"] = counts_elapsed
    benchmark.extra_info["presence_seconds"] = presence_elapsed
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(run, args=(True,), rounds=3, iterations=1)
    print(
        f"\n64-source word on {num_nodes} nodes: counts {counts_elapsed * 1000:.1f}ms, "
        f"presence {presence_elapsed * 1000:.1f}ms, speedup {speedup:.2f}x"
    )
    assert speedup >= PRESENCE_WORD_BAR, (
        f"presence word only {speedup:.2f}x over the counts word "
        f"(bar {PRESENCE_WORD_BAR}x)"
    )


@pytest.fixture(scope="module")
def fast_epinions():
    """The fast-config epinions stand-in (Table 2's SBPH sweep runs on it)."""
    [dataset_config] = [
        dataset for dataset in fast_config().datasets if dataset.name == "epinions"
    ]
    graph = load_dataset(
        dataset_config.name, seed=dataset_config.seed, scale=dataset_config.scale
    ).graph
    graph.csr_view()
    return graph


@pytest.mark.benchmark(group="perf-sbph-csr")
def test_batched_sbph_speedup_over_per_source_search(benchmark, fast_epinions):
    """All-sources SBPH >= 2x the per-source search, same depth per node.

    The batched core advances up to 64 sources one level at a time and
    checks every candidate's balance with array lookups; the baseline
    (:func:`_per_source_sbph_depths`) runs one Python check per candidate.
    Measured 3.3-5.1x on a 2-core Xeon VM (346 nodes, best of 2-3 runs:
    1.09-1.54 s per-source, 0.31-0.33 s batched).
    """
    csr = fast_epinions.csr_view()
    assert int(csr.degrees().max()) < 512
    sources = list(range(csr.number_of_nodes()))
    loop_elapsed, loop_results = _best_of(
        2, lambda: [_per_source_sbph_depths(csr, source) for source in sources]
    )
    batch_elapsed, batch_results = _best_of(3, lambda: balanced_depths(csr, sources))
    for (positive, negative, _truncated), (want_positive, want_negative) in zip(
        batch_results, loop_results
    ):
        assert _dense_depth_map(positive) == want_positive
        assert _dense_depth_map(negative) == want_negative
    speedup = loop_elapsed / batch_elapsed
    benchmark.extra_info["per_source_seconds"] = loop_elapsed
    benchmark.extra_info["batch_seconds"] = batch_elapsed
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(balanced_depths, args=(csr, sources), rounds=1, iterations=1)
    print(
        f"\nall-sources SBPH on {csr.number_of_nodes()} nodes: per-source "
        f"{loop_elapsed:.2f}s, batched {batch_elapsed:.2f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= SBPH_BATCH_BAR, (
        f"batched SBPH only {speedup:.2f}x over the per-source search "
        f"(bar {SBPH_BATCH_BAR}x)"
    )


@pytest.mark.benchmark(group="perf-sbp-csr")
def test_batched_exact_sbp_speedup_over_dict_search(benchmark):
    """All-sources exact SBP on CSR >= 2.5x the dict search, same results.

    Table 2's configuration: the fast-config slashdot stand-in, capped at
    its ``sbp_max_expansions``.  The batched core
    advances a batch of sources one path length at a time with word-wise
    mask tests; the dict search extends one path at a time in Python.
    """
    [dataset_config] = [
        dataset for dataset in fast_config().datasets if dataset.name == "slashdot"
    ]
    graph = load_dataset(
        dataset_config.name, seed=dataset_config.seed, scale=dataset_config.scale
    ).graph
    csr = graph.csr_view()
    cap = dataset_config.sbp_max_expansions
    search = BalancedPathSearch(graph, max_expansions=cap)
    dict_elapsed, dict_results = _best_of(
        2, lambda: [search.search_exact(node) for node in graph.nodes()]
    )
    csr_elapsed, csr_results = _best_of(
        3,
        lambda: balanced_depths(
            csr, range(csr.number_of_nodes()), exact=True, max_expansions=cap
        ),
    )
    nodes = csr._nodes
    for (positive, negative, truncated), want in zip(csr_results, dict_results):
        for row, want_lengths in (
            (positive, want.positive_lengths),
            (negative, want.negative_lengths),
        ):
            found = _dense_depth_map(row)
            assert {nodes[dense]: depth for dense, depth in found.items()} == want_lengths
        assert truncated == want.truncated
    speedup = dict_elapsed / csr_elapsed
    benchmark.extra_info["dict_seconds"] = dict_elapsed
    benchmark.extra_info["csr_seconds"] = csr_elapsed
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(
        balanced_depths,
        args=(csr, range(csr.number_of_nodes())),
        kwargs={"exact": True, "max_expansions": cap},
        rounds=1,
        iterations=1,
    )
    print(
        f"\nall-sources exact SBP on {csr.number_of_nodes()} nodes (cap {cap}): dict "
        f"{dict_elapsed:.2f}s, CSR {csr_elapsed:.2f}s, speedup {speedup:.2f}x"
    )
    assert speedup >= SBP_CSR_BAR, (
        f"batched exact SBP only {speedup:.2f}x over the dict search (bar {SBP_CSR_BAR}x)"
    )
