"""Tests for the random signed-graph generators."""

from __future__ import annotations

import pytest

from repro.datasets import synthetic_signed_network
from repro.signed import NEGATIVE, POSITIVE, is_balanced, is_connected
from repro.signed.balance import balanced_triangle_fraction
from repro.signed.generators import (
    all_positive_graph,
    balanced_graph,
    connected_planted_factions_graph,
    flip_random_signs,
    planted_factions_graph,
    signed_barabasi_albert,
    signed_erdos_renyi,
    signed_watts_strogatz,
)


class TestPlantedFactions:
    def test_node_count_and_determinism(self):
        graph_a, factions_a = planted_factions_graph(60, seed=1)
        graph_b, factions_b = planted_factions_graph(60, seed=1)
        assert graph_a == graph_b
        assert factions_a == factions_b
        assert graph_a.number_of_nodes() == 60

    def test_different_seeds_differ(self):
        graph_a, _ = planted_factions_graph(60, seed=1)
        graph_b, _ = planted_factions_graph(60, seed=2)
        assert graph_a != graph_b

    def test_zero_noise_two_factions_is_balanced(self):
        graph, _ = balanced_graph(80, seed=5)
        assert is_balanced(graph)

    def test_zero_noise_signs_follow_factions(self):
        graph, factions = planted_factions_graph(60, sign_noise=0.0, seed=3)
        for u, v, sign in graph.edge_triples():
            expected = POSITIVE if factions[u] == factions[v] else NEGATIVE
            assert sign == expected

    def test_noise_creates_unbalanced_triangles(self):
        graph, _ = planted_factions_graph(
            120, average_degree=8.0, sign_noise=0.4, seed=7
        )
        assert balanced_triangle_fraction(graph) < 1.0

    def test_single_faction_all_positive(self):
        graph = all_positive_graph(50, seed=2)
        assert graph.number_of_negative_edges() == 0

    def test_faction_sizes_respected_roughly(self):
        _, factions = planted_factions_graph(
            400, num_factions=2, faction_sizes=[0.8, 0.2], seed=11
        )
        share = sum(1 for f in factions.values() if f == 0) / len(factions)
        assert 0.7 < share < 0.9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            planted_factions_graph(0)
        with pytest.raises(ValueError):
            planted_factions_graph(10, sign_noise=1.5)
        with pytest.raises(ValueError):
            planted_factions_graph(10, topology="ring")
        with pytest.raises(ValueError):
            planted_factions_graph(10, num_factions=2, faction_sizes=[1.0])
        with pytest.raises(ValueError):
            planted_factions_graph(10, num_factions=2, faction_sizes=[1.0, -1.0])

    @pytest.mark.parametrize("topology", ["scale_free", "small_world", "erdos_renyi"])
    def test_all_topologies_produce_graphs(self, topology):
        graph, _ = planted_factions_graph(50, topology=topology, seed=4)
        assert graph.number_of_nodes() == 50
        assert graph.number_of_edges() > 0

    @pytest.mark.parametrize("num_nodes", [4, 6, 8])
    def test_small_world_degree_past_the_node_count_is_complete(self, num_nodes):
        # round(average_degree) >= num_nodes: only the complete graph reaches
        # the requested degree, from either generator.
        complete = num_nodes * (num_nodes - 1) // 2
        graph, _ = planted_factions_graph(
            num_nodes, average_degree=float(num_nodes), topology="small_world", seed=4
        )
        assert graph.number_of_edges() == complete
        dataset_graph, _ = synthetic_signed_network(
            num_nodes,
            average_degree=float(num_nodes),
            negative_fraction=0.2,
            topology="small_world",
            seed=4,
        )
        assert dataset_graph.number_of_edges() == complete

    def test_connected_variant_is_connected(self):
        graph, factions = connected_planted_factions_graph(
            80, average_degree=2.0, topology="erdos_renyi", seed=9
        )
        assert is_connected(graph)
        assert set(factions) == set(graph.nodes())


class TestSimpleGenerators:
    def test_erdos_renyi_negative_fraction_close_to_target(self):
        graph = signed_erdos_renyi(300, 0.05, negative_fraction=0.3, seed=1)
        fraction = graph.number_of_negative_edges() / graph.number_of_edges()
        assert 0.2 < fraction < 0.4

    def test_barabasi_albert_edge_count(self):
        graph = signed_barabasi_albert(100, 3, seed=2)
        assert graph.number_of_edges() == (100 - 3) * 3

    def test_watts_strogatz_connected(self):
        graph = signed_watts_strogatz(60, 4, seed=3)
        assert is_connected(graph)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            signed_erdos_renyi(10, 1.5)


class TestPerturbation:
    def test_flip_random_signs_count(self, small_random_graph):
        flipped = flip_random_signs(small_random_graph, 0.5, seed=4)
        differing = sum(
            1
            for u, v, sign in small_random_graph.edge_triples()
            if flipped.sign(u, v) != sign
        )
        assert differing == round(0.5 * small_random_graph.number_of_edges())

    def test_flip_zero_fraction_is_identity(self, small_random_graph):
        assert flip_random_signs(small_random_graph, 0.0, seed=1) == small_random_graph

    def test_flip_original_untouched(self, small_random_graph):
        original_negative = small_random_graph.number_of_negative_edges()
        flip_random_signs(small_random_graph, 1.0, seed=1)
        assert small_random_graph.number_of_negative_edges() == original_negative

    def test_invalid_fraction_rejected(self, small_random_graph):
        with pytest.raises(ValueError):
            flip_random_signs(small_random_graph, 2.0)
