"""Tests for the individual compatibility relations (DPE, NNE, SPA, SPM, SPO, SBP, SBPH)."""

from __future__ import annotations

import pytest

from repro.compatibility import (
    RELATION_CLASSES,
    RELATION_NAMES,
    AllShortestPathsCompatibility,
    DirectPositiveEdgeCompatibility,
    HeuristicBalancedPathCompatibility,
    MajorityShortestPathsCompatibility,
    NoNegativeEdgeCompatibility,
    OneShortestPathCompatibility,
    StructurallyBalancedPathCompatibility,
    make_relation,
)
from repro.exceptions import NodeNotFoundError, UnknownRelationError
from repro.signed import NEGATIVE, POSITIVE, SignedGraph


class TestRegistry:
    def test_all_names_construct(self, two_factions):
        for name in RELATION_NAMES:
            relation = make_relation(name, two_factions)
            assert relation.name == name

    def test_case_insensitive(self, two_factions):
        assert make_relation("spo", two_factions).name == "SPO"

    def test_unknown_name_raises(self, two_factions):
        with pytest.raises(UnknownRelationError):
            make_relation("XYZ", two_factions)

    def test_registry_classes_match_names(self):
        for name, cls in RELATION_CLASSES.items():
            assert cls.name == name


class TestRequiredProperties:
    """Every relation must satisfy reflexivity, symmetry and the two edge properties."""

    @pytest.mark.parametrize("name", RELATION_NAMES)
    def test_reflexive(self, two_factions, name):
        relation = make_relation(name, two_factions)
        assert all(relation.are_compatible(node, node) for node in two_factions.nodes())

    @pytest.mark.parametrize("name", RELATION_NAMES)
    def test_positive_edge_compatibility(self, figure_1a, name):
        relation = make_relation(name, figure_1a)
        assert relation.satisfies_positive_edge_compatibility()

    @pytest.mark.parametrize("name", RELATION_NAMES)
    def test_negative_edge_incompatibility(self, figure_1a, name):
        relation = make_relation(name, figure_1a)
        assert relation.satisfies_negative_edge_incompatibility()

    @pytest.mark.parametrize("name", RELATION_NAMES)
    def test_symmetry_on_small_graph(self, two_factions, name):
        relation = make_relation(name, two_factions)
        nodes = two_factions.nodes()
        for u in nodes:
            for v in nodes:
                assert relation.are_compatible(u, v) == relation.are_compatible(v, u)

    @pytest.mark.parametrize("name", RELATION_NAMES)
    def test_is_valid_relation(self, two_factions, name):
        assert make_relation(name, two_factions).is_valid_relation()

    def test_missing_node_raises(self, two_factions):
        relation = make_relation("SPO", two_factions)
        with pytest.raises(NodeNotFoundError):
            relation.are_compatible(0, "ghost")
        with pytest.raises(NodeNotFoundError):
            relation.compatible_with("ghost")


class TestDPE:
    def test_only_direct_positive_neighbors(self, two_factions):
        relation = DirectPositiveEdgeCompatibility(two_factions)
        assert relation.are_compatible(0, 1)
        assert not relation.are_compatible(0, 3)     # not adjacent
        assert not relation.are_compatible(2, 3)     # negative edge

    def test_compatible_with_contains_self(self, two_factions):
        relation = DirectPositiveEdgeCompatibility(two_factions)
        assert 0 in relation.compatible_with(0)

    def test_compatibility_degree(self, two_factions):
        relation = DirectPositiveEdgeCompatibility(two_factions)
        assert relation.compatibility_degree(0) == 2


class TestNNE:
    def test_everything_but_enemies(self, two_factions):
        relation = NoNegativeEdgeCompatibility(two_factions)
        assert relation.are_compatible(0, 4)      # different factions, no direct edge
        assert not relation.are_compatible(2, 3)  # direct negative edge
        assert relation.are_compatible(0, 1)

    def test_compatible_with_is_complement_of_enemies(self, two_factions):
        relation = NoNegativeEdgeCompatibility(two_factions)
        compatible = relation.compatible_with(0)
        assert compatible == frozenset({0, 1, 2, 3, 4})  # everyone except enemy 5


class TestShortestPathRelations:
    def test_two_parallel_paths_of_mixed_sign(self):
        # Two shortest paths 0-1-3 (positive) and 0-2-3 (negative).
        graph = SignedGraph.from_edges(
            [(0, 1, +1), (1, 3, +1), (0, 2, +1), (2, 3, -1)]
        )
        assert not AllShortestPathsCompatibility(graph).are_compatible(0, 3)
        assert MajorityShortestPathsCompatibility(graph).are_compatible(0, 3)
        assert OneShortestPathCompatibility(graph).are_compatible(0, 3)

    def test_majority_requires_at_least_as_many_positive(self):
        # One positive and two negative shortest paths between 0 and 4.
        graph = SignedGraph.from_edges(
            [
                (0, 1, +1), (1, 4, +1),
                (0, 2, -1), (2, 4, +1),
                (0, 3, +1), (3, 4, -1),
            ]
        )
        assert not MajorityShortestPathsCompatibility(graph).are_compatible(0, 4)
        assert OneShortestPathCompatibility(graph).are_compatible(0, 4)

    def test_unreachable_nodes_are_incompatible(self):
        graph = SignedGraph.from_edges([(0, 1, +1)], nodes=["iso"])
        for cls in (
            AllShortestPathsCompatibility,
            MajorityShortestPathsCompatibility,
            OneShortestPathCompatibility,
        ):
            assert not cls(graph).are_compatible(0, "iso")

    def test_figure_1a_pair_is_sp_incompatible(self, figure_1a):
        for cls in (
            AllShortestPathsCompatibility,
            MajorityShortestPathsCompatibility,
            OneShortestPathCompatibility,
        ):
            assert not cls(figure_1a).are_compatible("u", "v")

    def test_balanced_two_faction_graph_spa_matches_factions(self, two_factions):
        relation = AllShortestPathsCompatibility(two_factions)
        assert relation.are_compatible(0, 2)
        assert not relation.are_compatible(0, 3)

    def test_cache_cleared_after_graph_change(self, two_factions):
        relation = OneShortestPathCompatibility(two_factions)
        assert not relation.are_compatible(2, 3)
        two_factions.set_sign(2, 3, POSITIVE)
        relation.clear_cache()
        assert relation.are_compatible(2, 3)


class TestBalancedRelations:
    def test_figure_1a_sbp_compatible(self, figure_1a):
        assert StructurallyBalancedPathCompatibility(figure_1a).are_compatible("u", "v")
        assert HeuristicBalancedPathCompatibility(figure_1a).are_compatible("u", "v")

    def test_figure_1b_heuristic_is_direction_dependent(self, figure_1b):
        # The directional search misses u -> v (the prefix-property failure of
        # Figure 1(b)) but finds the reversed path v -> u; the symmetrised
        # SBPH relation therefore contains the pair in both query orders.
        from repro.signed.paths import BalancedPathSearch

        search = BalancedPathSearch(figure_1b)
        assert "v" not in search.search_heuristic("u").positive_lengths
        assert "u" in search.search_heuristic("v").positive_lengths
        heuristic = HeuristicBalancedPathCompatibility(figure_1b)
        assert heuristic.are_compatible("u", "v")
        assert heuristic.are_compatible("v", "u")

    def test_heuristic_misses_pair_from_both_directions(self, prefix_trap_graph):
        # Even after symmetrisation SBPH under-approximates SBP: on this graph
        # the heuristic misses the (2, 4) pair whichever endpoint it starts
        # from, while the exact search finds a positive balanced path.
        exact = StructurallyBalancedPathCompatibility(prefix_trap_graph)
        heuristic = HeuristicBalancedPathCompatibility(prefix_trap_graph)
        assert exact.are_compatible(2, 4)
        assert not heuristic.are_compatible(2, 4)
        assert not heuristic.are_compatible(4, 2)

    def test_sbph_symmetry_regression(self, figure_1b):
        # Regression for the SBPH symmetry violation: a fresh relation queried
        # (u, v) must agree with a fresh relation queried (v, u).  Before the
        # fix the answer depended on which endpoint was searched first.
        first = HeuristicBalancedPathCompatibility(figure_1b)
        second = HeuristicBalancedPathCompatibility(figure_1b)
        assert first.are_compatible("u", "v") == second.are_compatible("v", "u")
        # Both query orders agree on the same instance too, whatever the
        # internal cache state is.
        assert first.are_compatible("v", "u") == first.are_compatible("u", "v")

    def test_direct_enemies_never_compatible(self, figure_1a):
        relation = StructurallyBalancedPathCompatibility(figure_1a)
        assert not relation.are_compatible("u", "x1")

    def test_positive_balanced_distance(self, figure_1a):
        relation = StructurallyBalancedPathCompatibility(figure_1a)
        assert relation.positive_balanced_distance("u", "v") == 4
        assert relation.positive_balanced_distance("u", "u") == 0.0
        assert relation.positive_balanced_distance("u", "x1") == float("inf")

    def test_truncated_sources_reported(self, small_random_graph):
        relation = StructurallyBalancedPathCompatibility(
            small_random_graph, max_expansions=5
        )
        node = small_random_graph.nodes()[0]
        relation.compatible_with(node)
        assert node in relation.truncated_sources()

    def test_max_path_length_restricts_relation(self, figure_1b):
        bounded = StructurallyBalancedPathCompatibility(figure_1b, max_path_length=3)
        assert not bounded.are_compatible("u", "v")

    def test_truncated_sources_survive_cache_eviction(
        self, small_random_graph, cache_ceilings
    ):
        # The truncation report must not depend on the (bounded, evictable)
        # result cache: after a sweep larger than the cache, every truncated
        # source is still reported.
        cache_ceilings(result=2)
        relation = StructurallyBalancedPathCompatibility(small_random_graph, max_expansions=5)
        nodes = small_random_graph.nodes()[:6]
        for node in nodes:
            relation._search_from(node)
        assert set(nodes) <= relation.truncated_sources()
        relation.clear_cache()
        assert relation.truncated_sources() == set()


class TestContainmentChain:
    """Proposition 3.5 on concrete graphs: DPE ⊆ SPA ⊆ SPM ⊆ SPO and SBPH ⊆ SBP ⊆ NNE."""

    def _compatible_pairs(self, relation, graph):
        nodes = graph.nodes()
        return {
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if relation.are_compatible(u, v)
        }

    @pytest.mark.parametrize(
        "graph_fixture", ["two_factions", "figure_1a", "figure_1b", "small_random_graph"]
    )
    def test_chain(self, request, graph_fixture):
        graph = request.getfixturevalue(graph_fixture)
        pairs = {
            name: self._compatible_pairs(make_relation(name, graph), graph)
            for name in ("DPE", "SPA", "SPM", "SPO", "SBPH", "SBP", "NNE")
        }
        assert pairs["DPE"] <= pairs["SPA"]
        assert pairs["SPA"] <= pairs["SPM"]
        assert pairs["SPM"] <= pairs["SPO"]
        assert pairs["SBPH"] <= pairs["SBP"]
        assert pairs["SBP"] <= pairs["NNE"]
