"""Tests for pairwise compatibility statistics, distances and skill compatibility."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import (
    CompatibilityMatrix,
    DistanceOracle,
    SkillCompatibilityIndex,
    average_compatible_distance,
    exact_pair_statistics,
    make_relation,
    pair_statistics,
    relation_overlap,
    sampled_pair_statistics,
    skill_pair_statistics,
    source_sampled_pair_statistics,
    task_has_compatible_skills,
)
from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy, reset_executors
from repro.signed.graph import NEGATIVE
from repro.signed.paths import INFINITY, shortest_path_lengths
from repro.skills import SkillAssignment

from reference import REFERENCE_RELATIONS, ReferenceRelation, reference_average_distance

RELATIONS = ("DPE", "NNE", "SPA", "SPM", "SPO", "SBPH", "SBP")


def per_pair_statistics(relation):
    """Reference: ``(compatible, evaluated)`` from one ``compatible_with`` per
    node and one membership test per unordered pair."""
    nodes = relation.graph.nodes()
    compatible = 0
    total = 0
    for index, u in enumerate(nodes):
        compatible_set = relation.compatible_with(u)
        for v in nodes[index + 1 :]:
            total += 1
            if v in compatible_set:
                compatible += 1
    return compatible, total


def per_pair_average_distance(relation, oracle):
    """Reference: ``(average, pairs)`` from one ``oracle.distance`` per
    compatible unordered pair."""
    nodes = relation.graph.nodes()
    total = 0.0
    count = 0
    for index, u in enumerate(nodes):
        compatible = relation.compatible_with(u)
        for v in nodes[index + 1 :]:
            if v not in compatible:
                continue
            distance = oracle.distance(u, v)
            if distance != INFINITY:
                total += distance
                count += 1
    return (total / count if count else 0.0), count


class TestPairStatistics:
    def test_exact_statistics_on_two_factions(self, two_factions):
        relation = make_relation("SPA", two_factions)
        stats = exact_pair_statistics(relation)
        assert stats.evaluated_pairs == 15
        # SPA on the balanced two-faction graph: exactly the intra-faction pairs.
        assert stats.compatible_pairs == 6
        assert stats.fraction == pytest.approx(6 / 15)
        assert stats.percentage == pytest.approx(40.0)
        assert not stats.sampled

    def test_nne_statistics(self, two_factions):
        stats = exact_pair_statistics(make_relation("NNE", two_factions))
        assert stats.compatible_pairs == 13  # all pairs except the two negative edges

    def test_matrix_matches_exact_statistics(self, two_factions):
        relation = make_relation("SPO", two_factions)
        matrix = CompatibilityMatrix(relation)
        assert matrix.statistics().compatible_pairs == exact_pair_statistics(relation).compatible_pairs
        assert matrix.are_compatible(0, 1)
        assert matrix.are_compatible(3, 3)
        assert 1 in matrix.compatible_with(0)

    def test_matrix_unknown_node_raises_node_not_found(self, two_factions):
        # The CompatibilityRelation contract raises NodeNotFoundError for
        # unknown nodes; the materialised matrix must do the same instead of
        # leaking a bare KeyError.
        from repro.exceptions import NodeNotFoundError

        matrix = CompatibilityMatrix(make_relation("SPO", two_factions))
        with pytest.raises(NodeNotFoundError):
            matrix.are_compatible(0, "ghost")
        with pytest.raises(NodeNotFoundError):
            matrix.are_compatible("ghost", 0)
        with pytest.raises(NodeNotFoundError):
            matrix.compatible_with("ghost")

    def test_exact_statistics_on_non_orderable_mixed_nodes(self):
        # Index-based pair enumeration must not rely on node comparability or
        # on repr uniqueness — mixed node types with colliding reprs work.
        from repro.signed import SignedGraph

        class Oddball:
            def __repr__(self) -> str:  # collides with the string node "odd"
                return "odd"

        odd = Oddball()
        graph = SignedGraph.from_edges([(0, "odd", +1), ("odd", odd, +1), (0, odd, +1)])
        relation = make_relation("SPO", graph)
        stats = exact_pair_statistics(relation)
        assert stats.evaluated_pairs == 3
        assert stats.compatible_pairs == 3
        matrix = CompatibilityMatrix(relation)
        assert len(matrix.compatible_pairs()) == 3

    def test_sampled_statistics_reasonable(self, small_random_graph):
        relation = make_relation("SPO", small_random_graph)
        exact = exact_pair_statistics(relation)
        sampled = sampled_pair_statistics(relation, 2000, seed=3)
        assert sampled.sampled
        assert abs(sampled.fraction - exact.fraction) < 0.15

    def test_source_sampled_statistics_reasonable(self, small_random_graph):
        relation = make_relation("SPO", small_random_graph)
        exact = exact_pair_statistics(relation)
        sampled = source_sampled_pair_statistics(relation, 10, seed=3)
        assert sampled.sampled
        assert abs(sampled.fraction - exact.fraction) < 0.2

    def test_source_sampled_all_sources_matches_exact(self, two_factions):
        relation = make_relation("SPA", two_factions)
        exact = exact_pair_statistics(relation)
        sampled = source_sampled_pair_statistics(relation, 100, seed=1)
        # Sampling every node counts each unordered pair twice; fractions agree.
        assert sampled.fraction == pytest.approx(exact.fraction)

    def test_pair_statistics_switches_mode(self, two_factions):
        relation = make_relation("SPA", two_factions)
        assert not pair_statistics(relation, max_exact_nodes=10).sampled
        assert pair_statistics(relation, max_exact_nodes=2, num_sampled_sources=3).sampled

    def test_invalid_sample_sizes(self, two_factions):
        relation = make_relation("SPA", two_factions)
        with pytest.raises(ValueError):
            sampled_pair_statistics(relation, 0)
        with pytest.raises(ValueError):
            source_sampled_pair_statistics(relation, 0)

    def test_empty_fraction_is_zero(self):
        from repro.compatibility.matrix import PairStatistics

        stats = PairStatistics("SPA", 0, 0, sampled=False)
        assert stats.fraction == 0.0


@pytest.fixture(scope="module")
def generated_60():
    graph, _ = synthetic_signed_network(
        60, average_degree=4.0, negative_fraction=0.25, seed=13
    )
    return graph


@pytest.fixture(scope="class")
def pools_down():
    yield
    reset_executors()


@pytest.mark.usefixtures("pools_down")
class TestOnePassStatistics:
    """The batched statistics equal the per-pair loops they replace."""

    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("name", RELATIONS)
    @pytest.mark.parametrize("graph_name", ["two_factions", "generated_60"])
    def test_matches_per_pair_reference(self, name, graph_name, workers, request):
        graph = request.getfixturevalue(graph_name)
        policy = ExecutionPolicy(workers=workers, min_parallel_sources=1)
        # The exhaustive SBP enumeration is exponential on the 60-node graph.
        self._check(graph, name, policy, {"max_expansions": 5_000} if name == "SBP" else {})

    @pytest.mark.parametrize("workers", [0, 2])
    def test_truncated_sbp_matches_per_pair_reference(self, generated_60, workers):
        policy = ExecutionPolicy(workers=workers, min_parallel_sources=1)
        relation = self._check(generated_60, "SBP", policy, {"max_expansions": 40})
        assert relation.truncated_sources()

    @staticmethod
    def _check(graph, name, policy, kwargs):
        relation = make_relation(name, graph, policy=policy, **kwargs)
        # On a copy: SP* relations on one graph share their BFS results.
        reference = make_relation(name, graph.copy(), **kwargs)
        stats = exact_pair_statistics(relation)
        assert (stats.compatible_pairs, stats.evaluated_pairs) == per_pair_statistics(
            reference
        )
        assert not stats.sampled
        assert average_compatible_distance(
            relation, oracle=DistanceOracle(relation)
        ) == per_pair_average_distance(reference, DistanceOracle(reference))
        return relation


class TestRelationOverlap:
    def test_overlap_of_relation_with_itself_is_one(self, two_factions):
        relation = make_relation("SPO", two_factions)
        assert relation_overlap(relation, relation) == 1.0

    def test_overlap_detects_differences(self, prefix_trap_graph):
        # The symmetrised SBPH relation still under-approximates SBP on graphs
        # where the heuristic misses a pair from both directions.
        sbp = make_relation("SBP", prefix_trap_graph)
        sbph = make_relation("SBPH", prefix_trap_graph)
        overlap = relation_overlap(sbp, sbph)
        assert 0.0 < overlap < 1.0

    def test_explicit_pair_list(self, prefix_trap_graph):
        sbp = make_relation("SBP", prefix_trap_graph)
        sbph = make_relation("SBPH", prefix_trap_graph)
        assert relation_overlap(sbp, sbph, pairs=[(2, 4)]) == 0.0
        assert relation_overlap(sbp, sbph, pairs=[(2, 8)]) == 1.0

    def test_mismatched_graphs_rejected(self, two_factions, figure_1a):
        with pytest.raises(ValueError):
            relation_overlap(make_relation("SPO", two_factions), make_relation("SPO", figure_1a))


class TestDistanceOracle:
    def test_sp_relation_uses_plain_shortest_paths(self, two_factions):
        oracle = DistanceOracle(make_relation("SPO", two_factions))
        assert oracle.distance(0, 1) == 1
        assert oracle.distance(1, 4) == 3
        assert oracle.distance(2, 2) == 0.0

    def test_balanced_relation_uses_balanced_paths(self, figure_1a):
        oracle = DistanceOracle(make_relation("SBP", figure_1a))
        # Plain shortest path u-v has length 2 but the balanced positive path has 4.
        assert oracle.distance("u", "v") == 4

    def test_nne_uses_sign_agnostic_distance(self, figure_1a):
        oracle = DistanceOracle(make_relation("NNE", figure_1a))
        assert oracle.distance("u", "v") == 2

    def test_unreachable_distance_is_infinite(self):
        from repro.signed import SignedGraph

        graph = SignedGraph.from_edges([(0, 1, +1)], nodes=["iso"])
        oracle = DistanceOracle(make_relation("SPO", graph))
        assert oracle.distance(0, "iso") == float("inf")

    def test_max_and_sum_pairwise(self, two_factions):
        oracle = DistanceOracle(make_relation("NNE", two_factions))
        assert oracle.max_pairwise_distance([0, 1, 2]) == 1
        assert oracle.sum_pairwise_distance([0, 1, 2]) == 3
        assert oracle.max_pairwise_distance([0]) == 0.0

    def test_distance_to_set(self, two_factions):
        oracle = DistanceOracle(make_relation("NNE", two_factions))
        assert oracle.distance_to_set(4, [0, 1]) == 3
        assert oracle.distance_to_set(4, []) == 0.0

    def test_average_compatible_distance_exact(self, two_factions):
        relation = make_relation("SPA", two_factions)
        average, pairs = average_compatible_distance(relation)
        assert pairs == 6
        assert average == pytest.approx(1.0)  # intra-faction pairs are all adjacent

    def test_average_compatible_distance_rejects_foreign_oracle(self, two_factions):
        relation = make_relation("SPO", two_factions)
        other = DistanceOracle(make_relation("NNE", two_factions))
        with pytest.raises(ValueError, match="oracle"):
            average_compatible_distance(relation, oracle=other)

    def test_average_compatible_distance_sampled(self, small_random_graph):
        relation = make_relation("SPO", small_random_graph)
        exact_avg, _ = average_compatible_distance(relation)
        sampled_avg, pairs = average_compatible_distance(
            relation, max_exact_nodes=2, num_sampled_sources=10, seed=5
        )
        assert pairs > 0
        assert abs(sampled_avg - exact_avg) < 1.0


class TestSkillCompatibility:
    @pytest.fixture
    def skills(self, two_factions):
        return SkillAssignment(
            {
                0: {"alpha"},
                1: {"beta"},
                2: {"gamma"},
                3: {"alpha"},
                4: {"beta"},
                5: {"gamma", "delta"},
            }
        )

    def test_pair_degree_counts_compatible_pairs(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        # alpha = {0, 3}, beta = {1, 4}: compatible pairs are (0,1) and (3,4).
        assert index.pair_degree("alpha", "beta") == 2
        assert index.skills_compatible("alpha", "beta")

    def test_self_compatibility_counts(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        # User 5 holds both gamma and delta: self-compatibility counts.
        assert index.pair_degree("gamma", "delta") >= 1

    def test_skills_compatible_stops_at_first_pair(self, two_factions, skills):
        relation = make_relation("SPA", two_factions)
        index = SkillCompatibilityIndex(relation, skills)
        calls = []
        original = relation.compatible_with

        def recording(user):
            calls.append(user)
            return original(user)

        relation.compatible_with = recording
        relation.batch_compatible_sets = None  # the existence check never counts
        # alpha = {0, 3}, beta = {1, 4}: the first alpha holder already has a
        # compatible beta holder, so one compatible set answers the query.
        assert index.skills_compatible("alpha", "beta")
        assert len(calls) == 1
        # Cached: asking again touches the relation no more.
        assert index.skills_compatible("beta", "alpha")
        assert len(calls) == 1

    def test_skills_compatible_reads_a_cached_count(self, two_factions, skills):
        relation = make_relation("SPA", two_factions)
        index = SkillCompatibilityIndex(relation, skills)
        assert index.pair_degree("alpha", "beta") == 2
        relation.compatible_with = None
        relation.batch_compatible_sets = None
        assert index.skills_compatible("alpha", "beta")

    def test_skill_degree_sums_pairs(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        expected = sum(
            index.pair_degree("alpha", other)
            for other in skills.skills()
            if other != "alpha"
        )
        assert index.skill_degree("alpha") == expected

    def test_rank_skills_by_degree_is_ascending(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        ranked = index.rank_skills_by_degree(["alpha", "beta", "gamma", "delta"])
        degrees = [
            index.skill_degree(skill, others=["alpha", "beta", "gamma", "delta"])
            for skill in ranked
        ]
        assert degrees == sorted(degrees)

    def test_skill_pair_statistics_exact(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        stats = skill_pair_statistics(index)
        assert stats.evaluated_skill_pairs == 6
        assert 0 < stats.compatible_skill_pairs <= 6
        assert not stats.sampled

    def test_skill_pair_statistics_sampled(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        stats = skill_pair_statistics(index, max_exact_skills=0, num_sampled_pairs=50, seed=2)
        assert stats.sampled
        assert stats.evaluated_skill_pairs == 50

    def test_task_has_compatible_skills(self, two_factions, skills):
        index = SkillCompatibilityIndex(make_relation("SPA", two_factions), skills)
        assert task_has_compatible_skills(index, ["alpha", "beta"])
        # gamma holders are 2 and 5 (different factions); alpha holders 0 and 3.
        # Under SPA (balanced graph = same faction), gamma-alpha is still
        # compatible via (0, 2); check a genuinely incompatible combination:
        assert index.pair_degree("alpha", "gamma") >= 1


# ---------------------------------------------------------------------------
# Dense-row statistics against the per-pair loops they replace
# ---------------------------------------------------------------------------

DIFFERENTIAL = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Every relation with its constructor kwargs; the second SBP cap is small
#: enough that some searches stop at it.
DIFFERENTIAL_RELATIONS = (
    ("SPA", {}),
    ("SPM", {}),
    ("SPO", {}),
    ("SBP", {"max_expansions": 2_000}),
    ("SBP", {"max_expansions": 6}),
    ("SBPH", {}),
    ("NNE", {}),
    ("DPE", {}),
)
BALANCED_RELATIONS = [spec for spec in DIFFERENTIAL_RELATIONS if spec[0].startswith("SB")]


def spec_id(spec):
    name, kwargs = spec
    return f"{name}{kwargs.get('max_expansions', '')}"


@st.composite
def shuffled_graphs(draw):
    """A small signed graph with several components and isolated nodes,
    plus a seed for shuffling its dense ids."""
    from repro.signed import SignedGraph

    num_nodes = draw(st.integers(min_value=2, max_value=13))
    order = draw(st.permutations(range(num_nodes)))
    pairs = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * num_nodes))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(chosen), max_size=len(chosen)))
    edges = [(u, v, sign) for (u, v), sign in zip(chosen, signs)]
    return SignedGraph.from_edges(edges, nodes=order), draw(st.integers(0, 2**16))


def reference_balanced_closure(relation, source):
    """Definition of the symmetric balanced set: either direction's search
    finds a positive path, and no negative edge joins the pair."""
    graph = relation.graph
    found = {source}
    for node in graph.nodes():
        if node == source:
            continue
        if graph.has_edge(source, node) and graph.sign(source, node) == NEGATIVE:
            continue
        if (
            node in relation._search_from(source).positive_lengths
            or source in relation._search_from(node).positive_lengths
        ):
            found.add(node)
    return frozenset(found)


class TestDenseRowStatistics:
    """``average_compatible_distance`` and the balanced closure on dense rows
    equal the per-pair loops, on snapshots whose dense ids are shuffled."""

    @DIFFERENTIAL
    @given(shuffled_graphs(), st.sampled_from(DIFFERENTIAL_RELATIONS), st.booleans())
    def test_average_distance_matches_per_pair_loop(
        self, install_shuffled_snapshot, drawn, relation_spec, sampled
    ):
        graph, seed = drawn
        install_shuffled_snapshot(graph, seed)
        name, kwargs = relation_spec
        relation = make_relation(name, graph, **kwargs)
        oracle = DistanceOracle(relation)
        branch = {"max_exact_nodes": 1, "num_sampled_sources": 5, "seed": seed} if sampled else {}
        reference = make_relation(name, graph, **kwargs)
        assert average_compatible_distance(
            relation, oracle=oracle, **branch
        ) == reference_average_distance(reference, DistanceOracle(reference).distance, **branch)

    @DIFFERENTIAL
    @given(shuffled_graphs(), st.sampled_from(("SPA", "SPM", "SPO", "NNE", "DPE")))
    def test_average_distance_matches_reference(self, install_shuffled_snapshot, drawn, name):
        # These relations do not depend on the order a search visits nodes,
        # so the shuffled snapshot must not change a single pair.  Distances
        # are shortest_path_lengths per pair; SP* partners come from
        # ReferenceRelation, NNE's and DPE's from their edge rules.
        graph, seed = drawn
        plain = graph.copy()
        if name in REFERENCE_RELATIONS:
            reference = ReferenceRelation(name, plain)
        else:
            reference = make_relation(name, plain)

        def bfs_distance(u, v):
            return float(shortest_path_lengths(plain, u).get(v, INFINITY))

        install_shuffled_snapshot(graph, seed)
        relation = make_relation(name, graph)
        for branch in ({}, {"max_exact_nodes": 1, "num_sampled_sources": 4, "seed": seed}):
            assert average_compatible_distance(relation, **branch) == (
                reference_average_distance(reference, bfs_distance, **branch)
            )

    @DIFFERENTIAL
    @given(shuffled_graphs(), st.sampled_from(BALANCED_RELATIONS))
    def test_balanced_batch_sets_match_per_source_sets(
        self, install_shuffled_snapshot, drawn, relation_spec
    ):
        graph, seed = drawn
        install_shuffled_snapshot(graph, seed)
        name, kwargs = relation_spec
        relation = make_relation(name, graph, **kwargs)
        per_source = make_relation(name, graph, **kwargs)
        nodes = graph.nodes()
        batched = relation.batch_compatible_sets(nodes)
        assert batched == [per_source.compatible_with(node) for node in nodes]
        assert batched == [reference_balanced_closure(relation, node) for node in nodes]

    @pytest.mark.parametrize("sampled", [False, True])
    @pytest.mark.parametrize("relation_spec", BALANCED_RELATIONS, ids=spec_id)
    @pytest.mark.parametrize("graph_name", ["figure_1b", "prefix_trap_graph", "generated_60"])
    def test_balanced_distance_on_direction_dependent_searches(
        self, graph_name, relation_spec, sampled, request, install_shuffled_snapshot
    ):
        # On these graphs a search from one end misses pairs the other end's
        # search finds (Figure 1(b)), so the reverse direction is needed.
        graph = request.getfixturevalue(graph_name).copy()
        install_shuffled_snapshot(graph, 7)
        name, kwargs = relation_spec
        relation = make_relation(name, graph, **kwargs)
        reference = make_relation(name, graph, **kwargs)
        branch = {"max_exact_nodes": 1, "num_sampled_sources": 6, "seed": 3} if sampled else {}
        assert average_compatible_distance(relation, **branch) == (
            reference_average_distance(reference, DistanceOracle(reference).distance, **branch)
        )

    def test_direct_negative_edges_stay_incompatible(self, two_factions):
        # Negative Edge Incompatibility holds by the mask alone, even when a
        # search reports a positive path to an enemy.
        from repro.signed.csr import UNREACHABLE

        relation = make_relation("SBPH", two_factions)
        enemies = {node: set(two_factions.negative_neighbors(node)) for node in two_factions}
        searches = relation.batch_search

        def claiming_enemies(sources):
            results = searches(sources)
            for result in results:
                # The CSR result's positive depth row, written in place.
                row = result.positive_lengths._lengths
                csr = result.positive_lengths._graph
                for enemy in map(csr.index_of, enemies[result.source]):
                    if row[enemy] == UNREACHABLE:
                        row[enemy] = 1
            return results

        relation.batch_search = claiming_enemies
        nodes = two_factions.nodes()
        assert any(enemies.values())
        for node, found in zip(nodes, relation.batch_compatible_sets(nodes)):
            assert not found & enemies[node]
        honest = make_relation("SBPH", two_factions.copy())
        assert average_compatible_distance(relation) == average_compatible_distance(honest)
