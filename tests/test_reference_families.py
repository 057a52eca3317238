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
must equal the reference, family by family and with every family a
component of one graph.  ``diameter`` is checked against the sign-agnostic
BFS on the same families.  The batched counts, the overflow ladder's dense
rows and the exact search's truncation flags are checked against the
reference too.

Below the relations, each dense kernel they call — Algorithm 1's count and
presence rows, the sign-agnostic distance rows, the SBPH and exact SBP depth
rows, and the component sweep — is checked row by row against its
pure-Python counterpart on every family.  And every relation, warmed on a
family and then queried after a new component leaves its cached results on
an older snapshot, still answers as the reference does.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import (
    CompatibilityEngine,
    DistanceOracle,
    average_compatible_distance,
    make_relation,
)
from repro.datasets import figure_1a_graph, figure_1b_graph, synthetic_signed_network
from repro.exceptions import NodeNotFoundError
from repro.signed.generators import planted_factions_graph
from repro.signed.graph import SignedGraph
from repro.signed.metrics import diameter
from repro.signed.csr import (
    PRESENCE_MIN_SOURCES,
    UNREACHABLE,
    PresenceRows,
    balanced_depths,
    component_members,
    shortest_path_lengths_dense_batch,
    signed_bfs_dense_batch,
)
from repro.signed.paths import (
    INFINITY,
    BalancedPathSearch,
    shortest_path_lengths,
    signed_bfs,
)

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


def relation_kwargs(name):
    return {"max_expansions": SBP_MAX_EXPANSIONS} if name == "SBP" else {}


def add_new_component(graph):
    """A negative pair and an isolated node, none of them in ``graph``."""
    graph.add_edge(("new", "x"), ("new", "y"), -1)
    graph.add_node(("new", "z"))


def assert_matches_reference(graph, name, warm=False):
    """Every read of ``name`` on ``graph`` equals the reference.

    One relation answers the per-node queries and another the batched ones,
    so neither reads compatible sets the other computed.  With ``warm``,
    both first answer every query on ``graph`` as it is; then a new
    component joins both graphs, so the reads below find cached results on
    an older snapshot.
    """
    kwargs = relation_kwargs(name)
    single = make_relation(name, graph, **kwargs)
    batched = make_relation(name, graph.copy(), **kwargs)
    oracle = DistanceOracle(batched)
    engine = CompatibilityEngine(batched, oracle=oracle)
    if warm:
        before = graph.nodes()
        for node in before:
            single.compatible_with(node)
        batched.batch_compatible_sets(before)
        for node in before:
            oracle.batch_distance_to_set(before, [node])
        add_new_component(graph)
        add_new_component(batched.graph)
    reference = ReferenceRelation(name, graph.copy(), **kwargs)
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
    # A candidate outside the graph is unreachable from the team.
    assert oracle.batch_distance_to_set(nodes + ["absent"], team) == [
        reference.distance_to_set(candidate, team) for candidate in nodes
    ] + [INFINITY]
    # A team member outside the graph raises under every relation.
    with pytest.raises(NodeNotFoundError):
        oracle.batch_distance_to_set(nodes, team + ["absent"])
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
        assert_matches_reference(FAMILIES[family](), name)

    @pytest.mark.parametrize("name", REFERENCE_RELATIONS)
    def test_families_as_components_of_one_graph_match_reference(self, name):
        # Every family at once, as components of one graph, so one batch
        # carries sources from all of them.
        graph = SignedGraph()
        for family, build in FAMILIES.items():
            part = build()
            for node in part.nodes():
                graph.add_node((family, node))
            for u, v, sign in part.edge_triples():
                graph.add_edge((family, u), (family, v), sign)
        assert_matches_reference(graph, name)

    @pytest.mark.parametrize("name", REFERENCE_RELATIONS)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_warm_relation_matches_reference_after_insertion(self, family, name):
        assert_matches_reference(FAMILIES[family](), name, warm=True)


def dense_sources(graph):
    """``(csr, nodes, dense ids)`` of every node of ``graph``."""
    csr = graph.csr_view()
    nodes = graph.nodes()
    return csr, nodes, [csr.index_of(node) for node in nodes]


def expected_row(csr, values, default):
    """``values`` (a node-keyed mapping) as a row over ``csr``'s dense ids."""
    return [values.get(node, default) for node in csr.nodes()]


class TestDenseKernelsOnFamilies:
    """Each dense kernel the relations call equals its pure-Python
    counterpart row by row: all of a family's sources in one batch (one
    word-parallel word once a family has enough nodes) and each source on
    its own."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_signed_bfs_count_rows_match_reference(self, family):
        graph = FAMILIES[family]()
        csr, nodes, ids = dense_sources(graph)
        batched = signed_bfs_dense_batch(csr, ids)
        alone = [signed_bfs_dense_batch(csr, [dense])[0] for dense in ids]
        for node, together, single in zip(nodes, batched, alone):
            reference = signed_bfs(graph, node)
            expected = (
                expected_row(csr, reference.lengths, UNREACHABLE),
                expected_row(csr, reference.positive_counts, 0),
                expected_row(csr, reference.negative_counts, 0),
            )
            for triple in (together, single):
                assert not isinstance(triple, PresenceRows)
                assert tuple(row.tolist() for row in triple) == expected, node

    @pytest.mark.parametrize("family", FAMILIES)
    def test_signed_bfs_presence_rows_match_reference(self, family):
        graph = FAMILIES[family]()
        csr, nodes, ids = dense_sources(graph)
        # Repeat small families' sources up to a presence word.
        repeats = -(-PRESENCE_MIN_SOURCES // len(ids))
        sources = (nodes * repeats)[: max(len(ids), PRESENCE_MIN_SOURCES)]
        rows = signed_bfs_dense_batch(
            csr, [csr.index_of(node) for node in sources], presence=True
        )
        for node, (lengths, positive, negative) in zip(sources, rows):
            reference = signed_bfs(graph, node)
            assert lengths.tolist() == expected_row(csr, reference.lengths, UNREACHABLE)
            assert positive.tolist() == [
                count > 0 for count in expected_row(csr, reference.positive_counts, 0)
            ], node
            assert negative.tolist() == [
                count > 0 for count in expected_row(csr, reference.negative_counts, 0)
            ], node
        assert all(isinstance(row, PresenceRows) for row in rows)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_path_length_rows_match_reference(self, family):
        graph = FAMILIES[family]()
        csr, nodes, ids = dense_sources(graph)
        batched = shortest_path_lengths_dense_batch(csr, ids)
        alone = [shortest_path_lengths_dense_batch(csr, [dense])[0] for dense in ids]
        for node, together, single in zip(nodes, batched, alone):
            expected = expected_row(csr, shortest_path_lengths(graph, node), UNREACHABLE)
            assert together.tolist() == expected, node
            assert single.tolist() == expected, node

    @pytest.mark.parametrize("exact", (False, True), ids=("SBPH", "SBP"))
    @pytest.mark.parametrize("family", FAMILIES)
    def test_balanced_depth_rows_match_reference(self, family, exact):
        graph = FAMILIES[family]()
        csr, nodes, ids = dense_sources(graph)
        search = BalancedPathSearch(graph, max_expansions=SBP_MAX_EXPANSIONS)
        rows = balanced_depths(csr, ids, exact=exact, max_expansions=SBP_MAX_EXPANSIONS)
        for node, (positive, negative, truncated) in zip(nodes, rows):
            reference = search.search_exact(node) if exact else search.search_heuristic(node)
            assert positive.tolist() == expected_row(
                csr, reference.positive_lengths, UNREACHABLE
            ), node
            assert negative.tolist() == expected_row(
                csr, reference.negative_lengths, UNREACHABLE
            ), node
            assert truncated == reference.truncated, node

    @pytest.mark.parametrize("family", FAMILIES)
    def test_component_members_match_reference(self, family):
        graph = FAMILIES[family]()
        csr, nodes, ids = dense_sources(graph)

        def reached(seeds):
            members = set().union(*(shortest_path_lengths(graph, node) for node in seeds))
            return sorted(csr.index_of(node) for node in members)

        assert component_members(csr, np.array([], dtype=np.int64)).tolist() == []
        for node, dense in zip(nodes, ids):
            seeds = np.array([dense], dtype=np.int64)
            assert component_members(csr, seeds).tolist() == reached([node]), node
        # Repeated seeds and seeds in several components.
        seeds = np.array([ids[-1], ids[0], ids[-1]], dtype=np.int64)
        assert component_members(csr, seeds).tolist() == reached([nodes[0], nodes[-1]])


class TestDiameterOnFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_diameter_matches_sign_agnostic_bfs(self, family):
        graph = FAMILIES[family]()
        rows = [shortest_path_lengths(graph, node) for node in graph.nodes()]
        if any(len(row) < graph.number_of_nodes() for row in rows):
            assert diameter(graph) is None
        else:
            assert diameter(graph) == max(max(row.values()) for row in rows)


@pytest.fixture(scope="module")
def synthetic_graph():
    graph, _ = synthetic_signed_network(
        250, average_degree=4.0, negative_fraction=0.25, seed=29
    )
    return graph


def build_stack(graph, name: str):
    """(relation, oracle, engine) of ``name`` on ``graph``."""
    kwargs = {"max_expansions": 2_000} if name in ("SBP", "SBPH") else {}
    relation = make_relation(name, graph, **kwargs)
    oracle = DistanceOracle(relation)
    return relation, oracle, CompatibilityEngine(relation, oracle=oracle)


class TestBalancedSweeps:
    def test_balanced_batch_distances_match_per_candidate_loop(self, synthetic_graph):
        _relation, oracle, _engine = build_stack(synthetic_graph, "SBPH")
        nodes = synthetic_graph.nodes()
        team = nodes[:3]
        candidates = nodes[10:60]
        batched = oracle.batch_distance_to_set(candidates, team)
        loop = [oracle.distance_to_set(candidate, team) for candidate in candidates]
        assert batched == loop

    def test_truncation_flags_match_reference(self, synthetic_graph):
        # A tiny expansion budget forces truncation everywhere but on a
        # three-node tail component; the batched search (the flags travel
        # with the depth rows) must record the same flagged sources as the
        # pure-Python exact search.  The closures search every member of the
        # sample's components.
        graph = synthetic_graph.copy()
        tail = [graph.number_of_nodes() + offset for offset in range(3)]
        graph.add_edge(tail[0], tail[1], +1)
        graph.add_edge(tail[1], tail[2], -1)
        reference = ReferenceRelation("SBP", graph.copy(), max_expansions=50)
        relation = make_relation("SBP", graph, max_expansions=50)
        sample = graph.nodes()[:6] + tail[:1]
        relation.batch_compatible_sets(sample)
        searched = set().union(*(shortest_path_lengths(graph, node) for node in sample))
        flagged = {node for node in searched if reference.truncated(node)}
        assert flagged and not flagged & set(tail)
        assert relation.truncated_sources() == flagged


#: Every relation ``make_relation`` builds.
COUNT_RELATIONS = ("DPE", "NNE", "SPA", "SPM", "SPO", "SBP", "SBPH")


@st.composite
def count_queries(draw):
    """A small signed graph (isolated nodes and several components likely)
    with sources and targets; the targets may be empty, repeat nodes, name
    nodes outside the graph and include a source."""
    size = draw(st.integers(2, 12))
    graph = SignedGraph()
    for node in range(size):
        graph.add_node(node)
    node = st.integers(0, size - 1)
    for u, v, sign in draw(
        st.lists(st.tuples(node, node, st.sampled_from((-1, 1))), max_size=3 * size)
    ):
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, sign)
    sources = draw(st.lists(node, min_size=1, max_size=6))
    targets = draw(st.lists(st.one_of(node, st.just("absent")), max_size=size + 2))
    if draw(st.booleans()):
        targets.append(sources[0])
    return graph, sources, targets


def expected_counts(relation, sources, targets):
    """The reference: each source's compatible set intersected with the targets."""
    target_set = set(targets)
    return [len(relation.compatible_with(source) & target_set) for source in sources]


class TestBatchCountCompatible:
    """``batch_count_compatible`` equals the set intersection it replaces for
    every relation.  The count runs before the reference on each fresh
    relation, so it never reads sets or BFS results the reference computed."""

    @pytest.mark.parametrize("name", COUNT_RELATIONS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query=count_queries())
    def test_counts_match_compatible_sets(self, name, query):
        graph, sources, targets = query
        relation = build_stack(graph, name)[0]
        counts = relation.batch_count_compatible(sources, targets)
        assert relation.batch_count_compatible(sources, []) == [0] * len(sources)
        assert counts == expected_counts(relation, sources, targets)

    @pytest.mark.parametrize("name", COUNT_RELATIONS)
    def test_int64_overflow_source(self, overflow_ladder, name):
        relation = build_stack(overflow_ladder, name)[0]
        sources = ["s", (30, 1), "t"]
        targets = ["s", "t", (60, 0), (1, 1), (30, 0), "absent"]
        counts = relation.batch_count_compatible(sources, targets)
        if name.startswith("SP"):
            # "s" overflowed int64 and was counted by signed_bfs, its
            # result laid onto dense rows of exact Python ints; the other
            # sources kept their int64 rows.  Every result is cached, so a
            # repeated count traverses nothing.
            from repro.signed.csr import CSRSignedBFSResult

            exact = relation._bfs_cache.get("s")
            assert isinstance(exact, CSRSignedBFSResult)
            assert exact.positive_array.dtype == object
            assert all(relation._bfs_cache.get(source) is not None for source in sources)
            assert counts[0] == 5
        assert counts == expected_counts(relation, sources, targets)

    @pytest.mark.parametrize("name", ("SPA", "SPM", "SPO"))
    def test_result_from_an_older_node_set(self, two_factions, name):
        relation = build_stack(two_factions, name)[0]
        relation.batch_bfs([0, 3])
        # A new component: the cached results survive, on a snapshot whose
        # dense ids no longer match the graph's.
        two_factions.add_edge("x", "y", 1)
        stale = relation._bfs_cache.get(0)
        assert stale is not None
        assert not stale.graph.shares_index_with(two_factions.csr_view())
        sources, targets = [0, 3, "x"], [0, 1, 4, 5, "x", "y"]
        counts = relation.batch_count_compatible(sources, targets)
        reference = build_stack(two_factions.copy(), name)[0]
        assert counts == expected_counts(reference, sources, targets)


class TestOverflowRows:
    """On the overflow ladder (``"t"`` has 2**61 shortest paths from ``"s"``)
    every SP* result a relation caches is a dense CSR result, and every
    batched reader answers as :class:`ReferenceRelation` does — before and
    after a node insertion leaves the cached results on an older snapshot."""

    @pytest.mark.parametrize("name", ("SPA", "SPM", "SPO"))
    def test_dense_rows_match_reference(self, overflow_ladder, name):
        from repro.signed.csr import CSRSignedBFSResult

        graph = overflow_ladder
        relation, oracle, engine = build_stack(graph, name)
        for phase in ("ladder", "after insertion"):
            if phase == "after insertion":
                # A new component: the cached results survive, on a snapshot
                # whose dense ids no longer match the graph's.
                graph.add_edge("x", "y", -1)
                graph.add_node("z")
            team = ["s", (30, 0)] if phase == "ladder" else ["s", (30, 0), "x"]
            candidates = graph.nodes()
            answers = {
                "team filter": engine.compatible_from_many(candidates, team),
                "distances": oracle.batch_distance_to_set(candidates + ["absent"], team),
                "average distance": average_compatible_distance(relation, oracle),
                "counts": relation.batch_count_compatible(candidates, candidates),
                "degrees": relation.batch_compatibility_degrees(candidates),
            }
            cached = list(relation._bfs_cache.items()) + list(
                relation._presence_cache.items()
            )
            assert "s" in relation._bfs_cache, phase
            assert all(isinstance(result, CSRSignedBFSResult) for _, result in cached)
            exact = relation._bfs_cache.get("s")
            assert exact.positive_array.dtype == object
            # After the insertion the readers remapped an older snapshot's rows.
            assert exact.graph.shares_index_with(graph.csr_view()) == (phase == "ladder")
            reference = ReferenceRelation(name, graph.copy())
            everyone = set(candidates)
            expected = {
                "team filter": frozenset(
                    candidate
                    for candidate in candidates
                    if candidate not in team
                    and all(reference.are_compatible(member, candidate) for member in team)
                ),
                "distances": [
                    reference.distance_to_set(candidate, team) for candidate in candidates
                ]
                + [INFINITY],  # "absent" is not in the graph
                "average distance": reference_average_distance(reference, reference.distance),
                "counts": [
                    len(reference.compatible_with(candidate) & everyone)
                    for candidate in candidates
                ],
                "degrees": [reference.compatibility_degree(candidate) for candidate in candidates],
            }
            assert answers == expected, phase
