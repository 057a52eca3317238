"""The CSR execution path against the pure-Python reference, one structural
corner case at a time.

Every SPA/SPM/SPO, SBP and SBPH query runs on the CSR kernels; the only other
statement of those relations is :class:`ReferenceRelation`
(``tests/reference.py``), built on ``signed_bfs``, ``shortest_path_lengths``
and ``BalancedPathSearch``.  The property-based tests compare the two on
random graphs; the families below are small deterministic graphs, each built
to exercise one feature of the kernels that random graphs reach only by
chance: nodes without edges, paths long enough to need many BFS levels, odd
and even signed cycles, dense cliques, a negative hub, several components,
shortest paths of both signs between the same pair, and the paper's
Figure 1 examples.

For each family and relation the whole read surface — per-node and batched
compatible sets, degrees, counts, the distance oracle (per pair, per row and
to a team), the engine's team filter and the average compatible distance —
must equal the reference, serially and on a 2-worker pool.  ``diameter`` is
checked against the sign-agnostic BFS on the same families.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.compatibility import (
    CompatibilityEngine,
    DistanceOracle,
    average_compatible_distance,
    make_relation,
)
from repro.datasets import figure_1a_graph, figure_1b_graph
from repro.exec import ExecutionPolicy, reset_executors
from repro.signed.generators import planted_factions_graph
from repro.signed.graph import SignedGraph
from repro.signed.metrics import diameter
from repro.signed.paths import shortest_path_lengths

from reference import REFERENCE_RELATIONS, ReferenceRelation, reference_average_distance


def isolated_nodes() -> SignedGraph:
    """Five nodes and no edge: every compatible set is the node alone."""
    graph = SignedGraph()
    for node in range(5):
        graph.add_node(node)
    return graph


def negative_pair() -> SignedGraph:
    """One negative edge beside an isolated node."""
    graph = SignedGraph.from_edges([("a", "b", -1)])
    graph.add_node("c")
    return graph


def alternating_path() -> SignedGraph:
    """A 12-node path whose signs alternate: diameter 11, one path per pair."""
    return SignedGraph.from_edges(
        [(i, i + 1, 1 if i % 2 == 0 else -1) for i in range(11)]
    )


def unbalanced_odd_cycle() -> SignedGraph:
    """A 7-cycle with one negative edge: every pair has paths of both signs
    around the two sides, of different lengths."""
    edges = [(i, (i + 1) % 7, 1) for i in range(7)]
    edges[3] = (3, 4, -1)
    return SignedGraph.from_edges(edges)


def balanced_even_cycle() -> SignedGraph:
    """An 8-cycle with two opposite negative edges (balanced); antipodal
    pairs have two shortest paths."""
    edges = [(i, (i + 1) % 8, 1) for i in range(8)]
    edges[0] = (0, 1, -1)
    edges[4] = (4, 5, -1)
    return SignedGraph.from_edges(edges)


def signed_clique() -> SignedGraph:
    """K7 with seeded random signs: every shortest path is one edge."""
    rng = random.Random(5)
    return SignedGraph.from_edges(
        [(u, v, rng.choice((1, -1))) for u, v in itertools.combinations(range(7), 2)]
    )


def negative_hub() -> SignedGraph:
    """A hub joined negatively to six leaves that form a positive ring."""
    edges = [("hub", leaf, -1) for leaf in range(6)]
    edges += [(leaf, (leaf + 1) % 6, 1) for leaf in range(6)]
    return SignedGraph.from_edges(edges)


def signed_grid() -> SignedGraph:
    """A 4x4 grid, some horizontal edges negative: many equal-length
    shortest paths of mixed signs."""
    edges = []
    for row, col in itertools.product(range(4), repeat=2):
        if col < 3:
            edges.append(((row, col), (row, col + 1), -1 if (row + col) % 3 == 0 else 1))
        if row < 3:
            edges.append(((row, col), (row + 1, col), 1))
    return SignedGraph.from_edges(edges)


def several_components() -> SignedGraph:
    """An unbalanced triangle, a negative pair, a positive path and an
    isolated node."""
    graph = SignedGraph.from_edges(
        [
            (0, 1, 1), (1, 2, 1), (0, 2, -1),
            (3, 4, -1),
            (5, 6, 1), (6, 7, 1),
        ]
    )
    graph.add_node(8)
    return graph


def mixed_sign_ladder() -> SignedGraph:
    """A 5-layer doubling ladder from ``"s"``; the edge from each layer's
    first node to the next layer's second node is negative.  The far nodes
    have shortest paths of both signs, in unequal numbers, so SPA, SPM and
    SPO all differ."""
    edges = []
    previous = ["s"]
    for layer in range(5):
        current = [(layer, 0), (layer, 1)]
        for node in current:
            for parent in previous:
                negative = node[1] == 1 and parent == previous[0]
                edges.append((parent, node, -1 if negative else 1))
        previous = current
    edges += [(node, "t", 1) for node in previous]
    return SignedGraph.from_edges(edges)


def planted_factions() -> SignedGraph:
    """A 24-node planted-faction graph with sign noise."""
    graph, _ = planted_factions_graph(24, average_degree=3.5, sign_noise=0.15, seed=7)
    return graph


FAMILIES = {
    "isolated_nodes": isolated_nodes,
    "negative_pair": negative_pair,
    "alternating_path": alternating_path,
    "unbalanced_odd_cycle": unbalanced_odd_cycle,
    "balanced_even_cycle": balanced_even_cycle,
    "signed_clique": signed_clique,
    "negative_hub": negative_hub,
    "signed_grid": signed_grid,
    "several_components": several_components,
    "mixed_sign_ladder": mixed_sign_ladder,
    "planted_factions": planted_factions,
    "figure_1a": figure_1a_graph,
    "figure_1b": figure_1b_graph,
}

#: Caps the exact SBP search on both sides; the planted-faction graph's
#: searches reach it, so the truncation flags are compared too.
SBP_MAX_EXPANSIONS = 20_000


@pytest.fixture(scope="module", autouse=True)
def fresh_executors():
    """Stop the pools this module starts."""
    reset_executors()
    yield
    reset_executors()


def relation_kwargs(name):
    return {"max_expansions": SBP_MAX_EXPANSIONS} if name == "SBP" else {}


def assert_matches_reference(graph, name, policy):
    """Every read of ``name`` under ``policy`` on ``graph`` equals the reference.

    One relation answers the per-node queries and another the batched ones,
    so neither reads compatible sets the other computed.
    """
    kwargs = relation_kwargs(name)
    reference = ReferenceRelation(name, graph.copy(), **kwargs)
    single = make_relation(name, graph, policy=policy, **kwargs)
    batched = make_relation(name, graph.copy(), policy=policy, **kwargs)
    oracle = DistanceOracle(batched)
    engine = CompatibilityEngine(batched, oracle=oracle)
    nodes = graph.nodes()
    everyone = set(nodes)

    expected = [reference.compatible_with(node) for node in nodes]
    assert [single.compatible_with(node) for node in nodes] == expected
    assert batched.batch_compatible_sets(nodes) == expected
    assert batched.batch_compatibility_degrees(nodes) == [len(found) - 1 for found in expected]
    assert batched.batch_count_compatible(nodes, nodes + ["absent"]) == [
        len(found & everyone) for found in expected
    ]
    if name == "SBP":
        truncated = {node for node in nodes if reference.truncated(node)}
        assert single.truncated_sources() == truncated
        assert batched.truncated_sources() == truncated

    distances = {u: [reference.distance(u, v) for v in nodes] for u in nodes}
    for u in nodes:
        assert [oracle.distance(u, v) for v in nodes] == distances[u], u

    team = nodes[:3]
    assert oracle.batch_distance_to_set(nodes, team) == [
        reference.distance_to_set(candidate, team) for candidate in nodes
    ]
    assert engine.compatible_from_many(nodes, team) == frozenset(
        candidate
        for candidate in nodes
        if candidate not in team
        and all(reference.are_compatible(member, candidate) for member in team)
    )
    assert average_compatible_distance(batched, oracle) == reference_average_distance(
        reference, reference.distance
    )


class TestFamiliesMatchReference:
    @pytest.mark.parametrize("name", REFERENCE_RELATIONS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_serial_queries_match_reference(self, family, name):
        assert_matches_reference(FAMILIES[family](), name, ExecutionPolicy())

    @pytest.mark.parametrize("name", REFERENCE_RELATIONS)
    def test_pooled_queries_match_reference(self, name):
        # Every family at once, as components of one graph, so one pool
        # dispatch carries sources from all of them.
        graph = SignedGraph()
        for family, build in FAMILIES.items():
            part = build()
            for node in part.nodes():
                graph.add_node((family, node))
            for u, v, sign in part.edge_triples():
                graph.add_edge((family, u), (family, v), sign)
        policy = ExecutionPolicy(workers=2, min_parallel_sources=1)
        assert_matches_reference(graph, name, policy)


class TestDiameterOnFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_diameter_matches_sign_agnostic_bfs(self, family):
        graph = FAMILIES[family]()
        rows = [shortest_path_lengths(graph, node) for node in graph.nodes()]
        if any(len(row) < graph.number_of_nodes() for row in rows):
            assert diameter(graph) is None
        else:
            assert diameter(graph) == max(max(row.values()) for row in rows)
