"""Tests for connected components and graph metrics."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.signed import (
    CSRSignedGraph,
    SignedGraph,
    average_degree,
    connected_components,
    degree_histogram,
    diameter,
    graph_statistics,
    is_connected,
    largest_connected_component,
    negative_edge_fraction,
    shortest_path_lengths,
    sign_distribution,
)
from repro.signed import ingest
from repro.signed.metrics import _csr_connected
from repro.utils.rng import ensure_rng

from test_reference_families import FAMILIES


class TestComponents:
    def test_single_component(self, two_factions):
        components = connected_components(two_factions)
        assert len(components) == 1
        assert components[0] == set(two_factions.nodes())

    def test_multiple_components_sorted_by_size(self):
        graph = SignedGraph.from_edges(
            [(0, 1, +1), (1, 2, +1), (10, 11, -1)], nodes=[99]
        )
        components = connected_components(graph)
        assert [len(c) for c in components] == [3, 2, 1]

    def test_empty_graph_has_no_components(self):
        assert connected_components(SignedGraph()) == []

    def test_largest_connected_component_subgraph(self):
        graph = SignedGraph.from_edges([(0, 1, +1), (1, 2, -1), (10, 11, +1)])
        lcc = largest_connected_component(graph)
        assert set(lcc.nodes()) == {0, 1, 2}
        assert lcc.number_of_edges() == 2

    def test_largest_component_of_empty_graph(self):
        assert largest_connected_component(SignedGraph()).number_of_nodes() == 0

    def test_is_connected(self, two_factions):
        assert is_connected(two_factions)
        assert not is_connected(SignedGraph())
        disconnected = SignedGraph.from_edges([(0, 1, +1)], nodes=[5])
        assert not is_connected(disconnected)


class TestMetrics:
    def test_negative_edge_fraction(self, two_factions):
        assert negative_edge_fraction(two_factions) == pytest.approx(2 / 8)

    def test_negative_fraction_empty_graph(self):
        assert negative_edge_fraction(SignedGraph()) == 0.0

    def test_average_degree(self, line_graph):
        assert average_degree(line_graph) == pytest.approx(2 * 3 / 4)

    def test_degree_histogram(self, line_graph):
        assert degree_histogram(line_graph) == {1: 2, 2: 2}

    def test_sign_distribution(self, two_factions):
        distribution = sign_distribution(two_factions)
        assert distribution[+1] == 6
        assert distribution[-1] == 2

    def test_diameter_of_line(self, line_graph):
        assert diameter(line_graph) == 3

    def test_diameter_disconnected_is_none(self):
        graph = SignedGraph.from_edges([(0, 1, +1)], nodes=[9])
        assert diameter(graph) is None

    def test_diameter_empty_is_none(self):
        assert diameter(SignedGraph()) is None

    def test_sampled_diameter_is_lower_bound(self, small_random_graph):
        exact = diameter(small_random_graph)
        sampled = diameter(small_random_graph, sample_sources=5, seed=1)
        assert sampled <= exact

    def test_sampled_diameter_invalid_sources(self, line_graph):
        with pytest.raises(ValueError):
            diameter(line_graph, sample_sources=0)

    def test_graph_statistics_fields(self, two_factions):
        stats = graph_statistics(two_factions)
        assert stats.num_nodes == 6
        assert stats.num_edges == 8
        assert stats.num_negative_edges == 2
        # e.g. dist(1, 4) = 3 via either cross-faction edge
        assert stats.diameter == 3
        assert stats.num_components == 1
        payload = stats.as_dict()
        assert payload["#users"] == 6
        assert payload["#neg edges"] == 2


# ---------------------------------------------------------------------------
# The CSR diameter against the dict BFS (repro.signed.paths)
# ---------------------------------------------------------------------------

@st.composite
def diameter_graphs(draw):
    """A small signed graph, connected or not (then often with isolated
    nodes), inserted in a random order, plus a seed."""
    num_nodes = draw(st.integers(min_value=1, max_value=40))
    order = draw(st.permutations(range(num_nodes)))
    pairs = []
    if draw(st.booleans()):  # a random spanning tree keeps it connected
        for position in range(1, num_nodes):
            pairs.append((order[draw(st.integers(0, position - 1))], order[position]))
    for _ in range(draw(st.integers(0, num_nodes))):
        u, v = draw(st.integers(0, num_nodes - 1)), draw(st.integers(0, num_nodes - 1))
        if u != v:
            pairs.append((u, v))
    signs = {frozenset(pair): draw(st.sampled_from([1, -1])) for pair in pairs}
    edges = [(*sorted(pair), sign) for pair, sign in signs.items()]
    return SignedGraph.from_edges(edges, nodes=order), draw(st.integers(0, 2**16))


def reference_diameter(graph, sources):
    """One dict BFS per source; ``None`` unless the graph is connected."""
    nodes = graph.nodes()
    if not nodes or len(shortest_path_lengths(graph, nodes[0])) != len(nodes):
        return None
    return max(max(shortest_path_lengths(graph, source).values()) for source in sources)


class TestDiameter:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(diameter_graphs())
    def test_matches_dict_bfs(self, install_shuffled_snapshot, drawn):
        graph, seed = drawn
        install_shuffled_snapshot(graph, seed)
        nodes = graph.nodes()
        expected = reference_diameter(graph, nodes)
        sample = 1 + seed % len(nodes)
        sampled = reference_diameter(graph, ensure_rng(seed).sample(nodes, sample))
        assert diameter(graph) == expected
        assert diameter(graph, sample_sources=sample, seed=seed) == sampled
        if expected is not None:
            assert sampled <= expected

    def test_more_than_one_word_of_sources(self):
        # 150 sources: two full 64-source words and a partial one.
        graph = SignedGraph.from_edges([(i, i + 1, 1 - 2 * (i % 3 == 0)) for i in range(149)])
        assert diameter(graph) == 149
        assert diameter(graph, sample_sources=70, seed=2) == reference_diameter(
            graph, ensure_rng(2).sample(graph.nodes(), 70)
        )


# ---------------------------------------------------------------------------
# Largest component and connectivity from one BFS off dense id 0
# ---------------------------------------------------------------------------


def assert_csr_equal(left, right):
    assert left._nodes == right._nodes
    assert left.indptr.tolist() == right.indptr.tolist()
    assert left.indices.tolist() == right.indices.tolist()
    assert left.signs.tolist() == right.signs.tolist()


# The 13 reference families (isolated nodes among them) and the empty graph.
SHORTCUT_FAMILIES = {**FAMILIES, "empty": SignedGraph}


@pytest.fixture
def label_calls(monkeypatch):
    """How often the restriction fell back to the component labels."""
    calls = []
    labels = ingest.component_labels

    def counting(indptr, indices):
        calls.append(indptr.size - 1)
        return labels(indptr, indices)

    monkeypatch.setattr(ingest, "component_labels", counting)
    return calls


class TestLargestComponentShortcut:
    @pytest.mark.parametrize("family", SHORTCUT_FAMILIES)
    def test_matches_dict_components(self, family):
        graph = SHORTCUT_FAMILIES[family]()
        assert _csr_connected(graph) == (len(connected_components(graph)) <= 1)
        assert_csr_equal(
            ingest.restrict_to_largest_component(graph.csr_view()),
            CSRSignedGraph.from_signed_graph(largest_connected_component(graph)),
        )

    def test_empty_graph_is_connected_but_has_no_diameter(self):
        assert _csr_connected(SignedGraph())
        assert diameter(SignedGraph()) is None

    @pytest.mark.parametrize(
        "edges, nodes, labelled",
        (
            # Node 0 in the majority: a 4-node path beside a 2-node pair.
            ([(0, 1, 1), (1, 2, -1), (2, 3, 1), (10, 11, 1)], None, False),
            # Node 0 in a minority: its pair comes first, the path later.
            ([(10, 11, 1), (0, 1, 1), (1, 2, -1), (2, 3, 1)], None, True),
            # Node 0 in exactly half the nodes: a tie, settled by the labels.
            ([(20, 21, -1), (21, 22, 1), (0, 1, 1), (1, 2, 1)], None, True),
            # Exactly half with isolated nodes: {5, 6} against 7 and 8.
            ([(5, 6, 1)], [5, 6, 7, 8], True),
            # Connected: the graph itself, no labels.
            ([(0, 1, 1), (1, 2, -1)], None, False),
        ),
        ids=("majority", "minority", "half", "half-isolated", "connected"),
    )
    def test_branches(self, label_calls, edges, nodes, labelled):
        graph = SignedGraph.from_edges(edges, nodes=nodes)
        csr = CSRSignedGraph.from_signed_graph(graph)
        restricted = ingest.restrict_to_largest_component(csr)
        assert bool(label_calls) == labelled
        assert_csr_equal(
            restricted,
            CSRSignedGraph.from_signed_graph(largest_connected_component(graph)),
        )
        if len(connected_components(graph)) == 1:
            assert restricted is csr
