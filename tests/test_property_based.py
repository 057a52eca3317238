"""Property-based tests (hypothesis) on the core data structures and invariants.

Strategies generate small random signed graphs (and skill assignments) so the
invariants are checked on hundreds of structurally diverse inputs:

* SignedGraph bookkeeping (edge/sign counters, copies, subgraphs);
* Algorithm 1 (signed BFS) against brute-force path enumeration;
* structural-balance characterisations (two-colouring vs triangle parity);
* the required properties and containment chain of the compatibility relations,
  and NNE's arithmetic degrees against its materialised sets;
* the CSR relations against the pure-Python reference relations
  (``tests/reference.py``), before and after edge churn;
* team-formation outputs (coverage, compatibility, cost consistency).
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import DistanceOracle, make_relation
from repro.experiments import apply_edge_churn
from repro.signed import (
    NEGATIVE,
    POSITIVE,
    SignedGraph,
    all_shortest_paths,
    harary_bipartition,
    is_balanced,
    signed_bfs,
    signed_bfs_csr,
)
from repro.signed.balance import triangle_census
from repro.signed.components import largest_connected_component
from repro.signed.paths import INFINITY
from repro.skills import SkillAssignment, Task
from repro.teams import TeamFormationProblem, run_algorithm, team_covers_task, team_is_compatible

from reference import REFERENCE_RELATIONS, ReferenceRelation

# --------------------------------------------------------------------------- strategies


@st.composite
def signed_graphs(draw, min_nodes=2, max_nodes=9, connected=False):
    """Generate a small random signed graph (optionally its largest component)."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    nodes = list(range(num_nodes))
    possible_edges = list(itertools.combinations(nodes, 2))
    chosen = draw(
        st.lists(st.sampled_from(possible_edges), unique=True, max_size=len(possible_edges))
    ) if possible_edges else []
    signs = draw(
        st.lists(st.sampled_from([POSITIVE, NEGATIVE]), min_size=len(chosen), max_size=len(chosen))
    )
    graph = SignedGraph.from_edges(
        [(u, v, sign) for (u, v), sign in zip(chosen, signs)], nodes=nodes
    )
    if connected:
        graph = largest_connected_component(graph)
    return graph


@st.composite
def graphs_with_skills(draw):
    """A connected signed graph plus a random skill assignment over 3 skills."""
    graph = draw(signed_graphs(min_nodes=3, max_nodes=8, connected=True))
    skills = ["s1", "s2", "s3"]
    assignment = SkillAssignment()
    for node in graph.nodes():
        node_skills = draw(
            st.lists(st.sampled_from(skills), min_size=1, max_size=3, unique=True)
        )
        assignment.add_user(node, node_skills)
    return graph, assignment


SLOW_OK = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


# ----------------------------------------------------------------------- graph invariants


class TestGraphInvariants:
    @SLOW_OK
    @given(signed_graphs())
    def test_edge_counters_consistent(self, graph):
        edges = list(graph.edges())
        assert len(edges) == graph.number_of_edges()
        positives = sum(1 for edge in edges if edge.is_positive())
        assert positives == graph.number_of_positive_edges()
        assert graph.number_of_edges() - positives == graph.number_of_negative_edges()

    @SLOW_OK
    @given(signed_graphs())
    def test_copy_equals_original(self, graph):
        assert graph.copy() == graph

    @SLOW_OK
    @given(signed_graphs(min_nodes=3))
    def test_subgraph_edges_are_subset(self, graph):
        nodes = graph.nodes()[: max(1, len(graph.nodes()) // 2)]
        sub = graph.subgraph(nodes)
        for u, v, sign in sub.edge_triples():
            assert graph.sign(u, v) == sign
        assert set(sub.nodes()) == set(nodes)

    @SLOW_OK
    @given(signed_graphs())
    def test_degree_sum_is_twice_edges(self, graph):
        assert sum(graph.degree(node) for node in graph.nodes()) == 2 * graph.number_of_edges()


# ------------------------------------------------------------------- Algorithm 1 / paths


class TestSignedBFSProperties:
    @SLOW_OK
    @given(signed_graphs(min_nodes=3, max_nodes=8, connected=True))
    def test_counts_match_brute_force_enumeration(self, graph):
        nodes = graph.nodes()
        source = nodes[0]
        result = signed_bfs(graph, source)
        for target in nodes[1:]:
            paths = all_shortest_paths(graph, source, target)
            expected_positive = sum(1 for p in paths if graph.path_sign(p) == POSITIVE)
            expected_negative = len(paths) - expected_positive
            assert result.counts(target) == (expected_positive, expected_negative)
            if paths:
                assert result.length(target) == len(paths[0]) - 1

    @SLOW_OK
    @given(signed_graphs(min_nodes=2, max_nodes=9))
    def test_csr_backend_matches_dict_backend(self, graph):
        # The indexed CSR BFS must be bit-identical to the dict reference on
        # arbitrary random graphs, including disconnected ones.
        csr = graph.csr_view()
        for source in graph.nodes():
            expected = signed_bfs(graph, source)
            actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
            assert actual.lengths == expected.lengths
            assert actual.positive_counts == expected.positive_counts
            assert actual.negative_counts == expected.negative_counts

    @SLOW_OK
    @given(signed_graphs(min_nodes=3, max_nodes=8, connected=True))
    def test_total_counts_equal_number_of_shortest_paths(self, graph):
        nodes = graph.nodes()
        result = signed_bfs(graph, nodes[0])
        for target in nodes[1:]:
            positive, negative = result.counts(target)
            assert positive + negative == len(all_shortest_paths(graph, nodes[0], target))


# ------------------------------------------------------------------------ balance theory


class TestBalanceProperties:
    @SLOW_OK
    @given(signed_graphs())
    def test_two_colouring_matches_triangle_parity_for_complete_graphs(self, graph):
        # For any graph: if balanced, every triangle must have an even number
        # of negative edges (the converse only holds for complete graphs).
        if is_balanced(graph):
            census = triangle_census(graph)
            assert census["++-"] == 0 and census["---"] == 0

    @SLOW_OK
    @given(signed_graphs())
    def test_partition_witnesses_balance(self, graph):
        report = harary_bipartition(graph)
        if not report.balanced:
            return
        camp_a, camp_b = report.partition
        camp = {node: 0 for node in camp_a}
        camp.update({node: 1 for node in camp_b})
        for u, v, sign in graph.edge_triples():
            if sign == POSITIVE:
                assert camp[u] == camp[v]
            else:
                assert camp[u] != camp[v]

    @SLOW_OK
    @given(signed_graphs(min_nodes=3))
    def test_flipping_all_signs_of_balanced_graph_keeps_even_cycles(self, graph):
        # Balance is preserved by flipping the signs of all edges incident to
        # one node (a "switching"): a classic signed-graph invariant.
        if graph.number_of_nodes() == 0:
            return
        node = graph.nodes()[0]
        switched = graph.copy()
        for neighbor in list(switched.neighbors(node)):
            switched.set_sign(node, neighbor, -switched.sign(node, neighbor))
        assert is_balanced(switched) == is_balanced(graph)


# ------------------------------------------------------------------ compatibility chain


class TestCompatibilityProperties:
    @SLOW_OK
    @given(signed_graphs(min_nodes=3, max_nodes=7, connected=True))
    def test_required_properties_for_every_relation(self, graph):
        for name in ("DPE", "SPA", "SPM", "SPO", "SBPH", "SBP", "NNE"):
            relation = make_relation(name, graph)
            assert relation.satisfies_positive_edge_compatibility()
            assert relation.satisfies_negative_edge_incompatibility()

    @SLOW_OK
    @given(signed_graphs(min_nodes=3, max_nodes=7, connected=True))
    def test_containment_chain(self, graph):
        nodes = graph.nodes()
        pairs = {}
        for name in ("DPE", "SPA", "SPM", "SPO", "SBPH", "SBP", "NNE"):
            relation = make_relation(name, graph)
            pairs[name] = {
                (u, v)
                for i, u in enumerate(nodes)
                for v in nodes[i + 1 :]
                if relation.are_compatible(u, v)
            }
        assert pairs["DPE"] <= pairs["SPA"]
        assert pairs["SPA"] <= pairs["SPM"]
        assert pairs["SPM"] <= pairs["SPO"]
        assert pairs["SBPH"] <= pairs["SBP"]
        assert pairs["SBP"] <= pairs["NNE"]

    @SLOW_OK
    @given(signed_graphs(min_nodes=3, max_nodes=7, connected=True))
    def test_symmetry_of_sp_relations(self, graph):
        # SBPH included: its directional heuristic search is symmetrised by
        # the relation (the historic symmetry violation of the seed code).
        nodes = graph.nodes()
        for name in ("SPA", "SPM", "SPO", "SBP", "SBPH"):
            relation = make_relation(name, graph)
            for u, v in itertools.combinations(nodes, 2):
                assert relation.are_compatible(u, v) == relation.are_compatible(v, u)

    @SLOW_OK
    @given(
        signed_graphs(min_nodes=3, max_nodes=7, connected=True),
        st.randoms(use_true_random=False),
    )
    def test_symmetry_under_randomized_query_orders(self, graph, rng):
        # Query pairs in a random interleaving so the per-source caches are in
        # different states when each direction of a pair is evaluated — this
        # exercises the cache-dependent source selection in the SP relations
        # and the search-direction handling in SBP/SBPH.  Whatever the order,
        # both directions of every pair must agree.
        nodes = graph.nodes()
        ordered_pairs = [
            pair
            for u, v in itertools.combinations(nodes, 2)
            for pair in ((u, v), (v, u))
        ]
        for name in ("SPA", "SPM", "SPO", "SBP", "SBPH"):
            relation = make_relation(name, graph)
            shuffled = list(ordered_pairs)
            rng.shuffle(shuffled)
            answers = {pair: relation.are_compatible(*pair) for pair in shuffled}
            for u, v in itertools.combinations(nodes, 2):
                assert answers[(u, v)] == answers[(v, u)], (name, u, v)

    @SLOW_OK
    @given(
        signed_graphs(min_nodes=2, max_nodes=9),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_nne_degrees_are_set_sizes(self, graph, csr_only, rng):
        # NNE degrees are arithmetic (n - 1 - enemies); they must equal the
        # materialised sets' sizes on graphs with isolated nodes, on the
        # dict-free facade, and again after a round of edge churn.
        from repro.experiments.streaming import apply_edge_churn
        from repro.signed import CSRSignedGraph
        from repro.signed.lazy import CSRBackedSignedGraph

        if csr_only:
            graph = CSRBackedSignedGraph(CSRSignedGraph.from_signed_graph(graph))
        relation = make_relation("NNE", graph)
        for _ in range(2):
            nodes = graph.nodes()
            degrees = relation.batch_compatibility_degrees(nodes)
            assert degrees == [relation.compatibility_degree(u) for u in nodes]
            if csr_only:
                assert not graph.materialised
            assert degrees == [len(relation.compatible_with(u)) - 1 for u in nodes]
            apply_edge_churn(graph, 6, rng)

    @SLOW_OK
    @given(signed_graphs(min_nodes=3, max_nodes=7, connected=True))
    def test_balanced_relation_distance_consistency(self, graph):
        relation = make_relation("SBP", graph)
        oracle = DistanceOracle(relation)
        nodes = graph.nodes()
        for u, v in itertools.combinations(nodes, 2):
            distance = oracle.distance(u, v)
            if relation.are_compatible(u, v):
                # Compatible pairs have a finite positive-balanced-path distance
                # at least as long as the unsigned shortest path.
                assert distance < float("inf")
            else:
                assert distance == float("inf")


# ------------------------------------------------------------------------ differential


class TestCSRMatchesReference:
    """The CSR relations against the pure-Python definitions, node by node.

    For SPA, SPM, SPO, SBP and SBPH, every node's ``compatible_with`` and
    ``batch_compatible_sets`` entry, ``batch_compatibility_degrees`` and the
    :class:`DistanceOracle` rows equal :class:`ReferenceRelation` (built on
    ``signed_bfs``, ``shortest_path_lengths`` and ``BalancedPathSearch``) —
    on the fresh graph, and again after an ``apply_edge_churn`` batch, read
    through the same (warm) relations.  One relation answers the batched
    queries and another the per-node ones, so neither reads the other's
    compatible sets.
    """

    @pytest.mark.parametrize("name", REFERENCE_RELATIONS)
    @SLOW_OK
    @given(graph=signed_graphs(max_nodes=8), churn_seed=st.integers(0, 2**16))
    def test_relation_matches_reference(self, name, graph, churn_seed):
        # A small cap makes some exact SBP searches stop at it.
        kwargs = {"max_expansions": 2_000} if name == "SBP" else {}
        batched = make_relation(name, graph, **kwargs)
        single = make_relation(name, graph, **kwargs)
        oracle = DistanceOracle(batched)
        for phase in ("fresh", "churned"):
            if phase == "churned":
                apply_edge_churn(graph, 6, random.Random(churn_seed))
            reference = ReferenceRelation(name, graph.copy(), **kwargs)
            nodes = graph.nodes()
            expected = [reference.compatible_with(node) for node in nodes]
            assert [single.compatible_with(node) for node in nodes] == expected, phase
            assert batched.batch_compatible_sets(nodes) == expected, phase
            assert batched.batch_compatibility_degrees(nodes) == [
                len(found) - 1 for found in expected
            ], phase
            distances = {u: [reference.distance(u, v) for v in nodes] for u in nodes}
            for u, row in zip(nodes, oracle.warm(nodes)):  # SP* rows; none for SBP/SBPH
                assert [float(row.get(v, INFINITY)) for v in nodes] == distances[u], phase
            for u in nodes:
                assert [oracle.distance(u, v) for v in nodes] == distances[u], phase


# ------------------------------------------------------------------------ team formation


class TestTeamFormationProperties:
    @SLOW_OK
    @given(graphs_with_skills(), st.sampled_from(["LCMD", "RFMD", "RANDOM"]))
    def test_returned_teams_are_always_valid(self, graph_and_skills, algorithm):
        graph, assignment = graph_and_skills
        task = Task(["s1", "s2"])
        if not task.is_coverable(assignment):
            return
        relation = make_relation("SPO", graph)
        problem = TeamFormationProblem(graph, assignment, relation, task)
        result = run_algorithm(algorithm, problem, seed=0)
        if result.solved:
            assert team_covers_task(result.team, task, assignment)
            assert team_is_compatible(result.team, relation)
            assert result.cost == problem.oracle.max_pairwise_distance(result.team)
        else:
            assert result.cost == float("inf")
