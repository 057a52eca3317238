"""Dynamic-graph subsystem: delta-maintained CSR snapshots, generation-keyed
caches, targeted invalidation and the engine-level rule-mask memo.

The acceptance bar (enforced here, property-based and deterministic):

* after ANY interleaving of mutations, ``csr_view()`` arrays are bit-identical
  to ``CSRSignedGraph.from_signed_graph()`` on the same graph;
* relation / oracle / engine results under churn match a cold stack built on
  a fresh copy of the mutated graph, and the SP*/SBPH relations also match
  the pure-Python reference (``tests/reference.py``) — for all relations,
  including SBP and SBPH;
* no-op writes (same-sign ``set_sign``, identical ``add_edge`` re-adds) never
  bump the generation, never invalidate the CSR view or any cache;
* mutations in one connected component never drop cached results of another.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import CompatibilityEngine, DistanceOracle, make_relation
from repro.signed import SignedGraph
from repro.signed.csr import CSRSignedGraph
from repro.signed.delta import GraphDelta
from repro.signed.generators import planted_factions_graph
from repro.utils.generational import GenerationalLRUCache

from reference import ReferenceRelation, reference_average_distance

#: Marks a relation whose cold side is :class:`ReferenceRelation` instead of
#: a fresh library relation.
AGAINST_REFERENCE = {"reference": True}

RELATION_BACKENDS = [
    ("DPE", {}),
    ("NNE", {}),
    ("SPA", AGAINST_REFERENCE),
    ("SPA", {}),
    ("SPM", AGAINST_REFERENCE),
    ("SPM", {}),
    ("SPO", AGAINST_REFERENCE),
    ("SPO", {}),
    ("SBPH", AGAINST_REFERENCE),
    ("SBPH", {}),
    ("SBP", {"max_expansions": 50_000}),
]


def assert_views_identical(graph: SignedGraph, label: str = "") -> None:
    """``csr_view()`` must be bit-identical to a from-scratch snapshot."""
    view = graph.csr_view()
    fresh = CSRSignedGraph.from_signed_graph(graph)
    assert view._nodes == fresh._nodes, label
    assert view.indptr.dtype == fresh.indptr.dtype, label
    assert view.indices.dtype == fresh.indices.dtype, label
    assert view.signs.dtype == fresh.signs.dtype, label
    assert np.array_equal(view.indptr, fresh.indptr), label
    assert np.array_equal(view.indices, fresh.indices), label
    assert np.array_equal(view.signs, fresh.signs), label
    assert view.generation == graph.generation, label


def random_mutation(graph: SignedGraph, rng: random.Random, node_pool) -> None:
    """Apply one random mutation (edge add/remove/re-sign, node add/remove)."""
    roll = rng.random()
    edges = list(graph.edge_triples())
    if roll < 0.35:
        u, v = rng.sample(node_pool, 2)
        if graph.has_edge(u, v):
            graph.set_sign(u, v, rng.choice([1, -1]))
        else:
            graph.add_edge(u, v, rng.choice([1, -1]))
    elif roll < 0.55 and edges:
        u, v, _sign = rng.choice(edges)
        graph.remove_edge(u, v)
    elif roll < 0.75 and edges:
        u, v, sign = rng.choice(edges)
        graph.set_sign(u, v, -sign)
    elif roll < 0.9:
        graph.add_node(rng.choice(node_pool))
    elif len(graph) > 2:
        graph.remove_node(rng.choice(graph.nodes()))


class TestGenerationModel:
    def test_generation_starts_at_zero_and_is_monotonic(self):
        graph = SignedGraph()
        assert graph.generation == 0
        graph.add_edge(0, 1, 1)
        first = graph.generation
        graph.set_sign(0, 1, -1)
        assert graph.generation > first

    def test_noop_set_sign_does_not_bump_generation(self):
        graph = SignedGraph.from_edges([(0, 1, 1), (1, 2, -1)])
        view = graph.csr_view()
        generation = graph.generation
        graph.set_sign(0, 1, 1)  # same sign: a true no-op
        graph.set_sign(1, 2, -1)
        assert graph.generation == generation
        assert graph.csr_view() is view

    def test_noop_add_edge_does_not_bump_generation(self):
        graph = SignedGraph.from_edges([(0, 1, 1)])
        view = graph.csr_view()
        generation = graph.generation
        graph.add_edge(0, 1, 1)  # identical re-add: a no-op
        graph.add_edge(1, 0, 1)  # reversed orientation, same undirected edge
        graph.add_node(0)  # existing node
        assert graph.generation == generation
        assert graph.csr_view() is view

    def test_noop_writes_do_not_invalidate_relation_caches(self):
        graph = SignedGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 3, -1)])
        relation = make_relation("SPO", graph)
        relation.compatible_with(0)
        hits_before = relation._compatible_cache.hits
        graph.set_sign(0, 1, 1)
        graph.add_edge(1, 2, 1)
        relation.compatible_with(0)
        assert relation._compatible_cache.hits == hits_before + 1
        assert relation._compatible_cache.invalidations == 0

    def test_node_set_changed_since(self):
        graph = SignedGraph.from_edges([(0, 1, 1)])
        generation = graph.generation
        graph.set_sign(0, 1, -1)
        assert not graph.node_set_changed_since(generation)
        graph.add_node(99)
        assert graph.node_set_changed_since(generation)


class TestDeltaLog:
    def test_records_and_overflow(self):
        delta = GraphDelta(max_events=3)
        delta.record_edge_added(0, 1, 1)
        delta.record_sign_changed(0, 1, -1)
        assert len(delta) == 2 and not delta.overflowed
        delta.record_edge_removed(0, 1)
        delta.record_node_added(9)
        assert delta.overflowed
        assert len(delta) == 0  # contents dropped on overflow
        assert bool(delta)

    def test_touched_nodes(self):
        delta = GraphDelta()
        delta.record_edge_added(0, 1, 1)
        delta.record_node_removed(5)
        assert delta.touched_nodes() == frozenset({0, 1, 5})
        assert delta.num_edge_events == 1
        assert delta.has_node_changes


class TestDeltaApplyEquivalence:
    def test_sign_only_delta_shares_index(self):
        graph, _ = planted_factions_graph(40, average_degree=4.0, sign_noise=0.1, seed=3)
        before = graph.csr_view()
        edges = list(graph.edge_triples())[:3]
        for u, v, sign in edges:
            graph.set_sign(u, v, -sign)
        assert_views_identical(graph, "sign-only delta")
        after = graph.csr_view()
        assert after is not before
        assert after.shares_index_with(before)

    def test_edge_add_remove_delta(self):
        graph, _ = planted_factions_graph(40, average_degree=4.0, sign_noise=0.1, seed=4)
        graph.csr_view()
        edges = list(graph.edge_triples())
        graph.remove_edge(edges[0][0], edges[0][1])
        nodes = graph.nodes()
        added = 0
        for u in nodes:
            for v in nodes:
                if u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v, 1)
                    added += 1
                    break
            if added >= 2:
                break
        assert_views_identical(graph, "edge add/remove delta")

    def test_node_addition_and_removal_delta(self):
        graph, _ = planted_factions_graph(40, average_degree=4.0, sign_noise=0.1, seed=5)
        graph.csr_view()
        graph.add_edge("new-a", "new-b", -1)
        assert_views_identical(graph, "node addition")
        graph.csr_view()
        victim = graph.nodes()[0]
        graph.remove_node(victim)
        assert_views_identical(graph, "node removal")
        graph.csr_view()
        graph.add_node(victim)  # re-add at the end of the order
        assert_views_identical(graph, "node re-add")

    def test_large_delta_falls_back_to_rebuild(self):
        graph, _ = planted_factions_graph(30, average_degree=3.0, sign_noise=0.1, seed=6)
        graph.csr_view()
        nodes = graph.nodes()
        for u in nodes:
            for v in nodes:
                if u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v, 1)
        # Far past the 5% threshold: the view must still be exact.
        assert_views_identical(graph, "threshold rebuild")

    def test_delta_overflow_forces_rebuild(self):
        graph = SignedGraph.from_edges([(0, 1, 1), (1, 2, 1)])
        graph.csr_view()
        graph._delta.max_events = 4
        for i in range(3, 12):
            graph.add_edge(i - 1, i, 1)
        assert graph._delta.overflowed
        assert_views_identical(graph, "overflowed delta")

    def test_seeded_random_interleavings(self):
        rng = random.Random(20_26)
        node_pool = list(range(25))
        graph, _ = planted_factions_graph(20, average_degree=3.0, sign_noise=0.2, seed=7)
        graph.csr_view()
        for step in range(120):
            random_mutation(graph, rng, node_pool)
            if step % 3 == 0:  # snapshot at varying delta sizes
                assert_views_identical(graph, f"step {step}")
        assert_views_identical(graph, "final")

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        num_ops=st.integers(min_value=1, max_value=40),
        snapshot_every=st.integers(min_value=1, max_value=7),
    )
    def test_property_any_interleaving_is_bit_identical(
        self, seed, num_ops, snapshot_every
    ):
        rng = random.Random(seed)
        node_pool = list(range(12))
        graph = SignedGraph()
        for _ in range(10):
            u, v = rng.sample(node_pool, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, rng.choice([1, -1]))
        graph.csr_view()
        for step in range(num_ops):
            random_mutation(graph, rng, node_pool)
            if step % snapshot_every == 0:
                assert_views_identical(graph, f"seed={seed} step={step}")
        assert_views_identical(graph, f"seed={seed} final")


class TestAffectedNodes:
    def two_component_graph(self):
        edges = [(i, i + 1, 1) for i in range(0, 9)]  # component A: 0..9
        edges += [(i, i + 1, -1) for i in range(100, 130)]  # component B: 100..130
        return SignedGraph.from_edges(edges)

    def test_affected_is_component_local(self):
        graph = self.two_component_graph()
        generation = graph.generation
        graph.set_sign(0, 1, -1)
        affected = graph.affected_nodes_since(generation)
        assert affected == frozenset(range(10))
        assert graph.affected_nodes_since(graph.generation) == frozenset()

    def test_most_of_graph_affected_returns_none(self):
        graph = self.two_component_graph()
        generation = graph.generation
        graph.set_sign(100, 101, 1)  # touches the 31-node component
        assert graph.affected_nodes_since(generation) is None

    def test_removed_node_is_in_affected_set(self):
        graph = self.two_component_graph()
        generation = graph.generation
        graph.remove_node(0)
        affected = graph.affected_nodes_since(generation)
        assert 0 in affected and 1 in affected


class TestGenerationalLRUCache:
    def test_survivors_promoted_affected_dropped(self):
        graph = SignedGraph.from_edges(
            [(i, i + 1, 1) for i in range(5)] + [(i, i + 1, 1) for i in range(100, 120)]
        )
        cache = GenerationalLRUCache(graph)
        cache[0] = "component-a"
        cache[100] = "component-b"
        graph.set_sign(0, 1, -1)  # touches only component A
        assert cache.get(0) is None
        assert cache.get(100) == "component-b"
        assert cache.invalidations == 1
        assert cache.generation == graph.generation

    def test_truncated_flags_pruned_even_after_eviction(self, cache_ceilings):
        # A truncated-source flag deliberately survives LRU eviction of the
        # result itself — but a mutation in the flagged source's component
        # must still drop it, or truncated_sources() over-reports forever.
        clique = [
            (u, v, 1) for u in range(8) for v in range(u + 1, 8)
        ] + [(i, i + 1, 1) for i in range(100, 140)]
        graph = SignedGraph.from_edges(clique)
        cache_ceilings(result=4)
        relation = make_relation("SBP", graph, max_expansions=3)
        for node in range(8):
            relation.compatible_with(node)
        flagged = relation.truncated_sources()
        assert flagged  # the tiny expansion budget truncates clique searches
        evicted = [node for node in flagged if node not in relation._result_cache]
        assert evicted  # the 4-entry cache cannot hold all 8 results
        graph.remove_edge(0, 1)  # touch the clique component
        assert relation.truncated_sources() == set()

    def test_component_local_false_clears_on_node_changes(self):
        graph = SignedGraph.from_edges(
            [(0, 1, 1)] + [(i, i + 1, 1) for i in range(10, 40)]
        )
        cache = GenerationalLRUCache(graph, component_local=False)
        cache[0] = "x"
        cache[10] = "y"
        graph.set_sign(0, 1, -1)  # edge-level: component rules still apply
        assert cache.get(10) == "y"
        graph.add_node("stranger")  # node-set change: everything goes
        assert cache.get(10) is None
        assert len(cache) == 0

    def test_clear_fast_forwards_generation(self):
        graph = SignedGraph.from_edges([(0, 1, 1)])
        cache = GenerationalLRUCache(graph)
        cache[0] = "x"
        graph.set_sign(0, 1, -1)
        cache.clear()
        assert cache.generation == graph.generation


def churn_script(graph: SignedGraph, rng: random.Random, steps: int) -> None:
    """Edge-level churn (no node ops) used by the relation equivalence tests."""
    nodes = graph.nodes()
    for _ in range(steps):
        roll = rng.random()
        edges = list(graph.edge_triples())
        if roll < 0.4:
            u, v = rng.sample(nodes, 2)
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, rng.choice([1, -1]))
        elif roll < 0.7 and edges:
            u, v, _sign = rng.choice(edges)
            graph.remove_edge(u, v)
        elif edges:
            u, v, sign = rng.choice(edges)
            graph.set_sign(u, v, -sign)


class TestRelationsUnderChurn:
    """Live relations under churn must match a cold stack on a fresh copy."""

    @pytest.mark.parametrize("name,kwargs", RELATION_BACKENDS)
    def test_results_match_cold_relation(self, name, kwargs):
        kwargs = dict(kwargs)
        against_reference = kwargs.pop("reference", False)
        size = 16 if name == "SBP" else 30
        graph, _ = planted_factions_graph(
            size, average_degree=3.0, sign_noise=0.2, seed=11
        )
        relation = make_relation(name, graph, **kwargs)
        oracle = DistanceOracle(relation)
        rng = random.Random(42)
        nodes = graph.nodes()
        for round_index in range(4):
            # Warm some caches, then churn, then query again: every answer
            # must match a cold relation built on a copy of the mutated graph.
            for node in nodes[:6]:
                relation.compatible_with(node)
            churn_script(graph, rng, steps=5)
            if against_reference:
                cold = ReferenceRelation(name, graph.copy())
                cold_distance = cold.distance
            else:
                cold = make_relation(name, graph.copy(), **kwargs)
                cold_distance = DistanceOracle(cold).distance
            for node in nodes[:8]:
                assert relation.compatible_with(node) == cold.compatible_with(node), (
                    f"{name} round {round_index} node {node}"
                )
            for u in nodes[:4]:
                for v in nodes[4:8]:
                    assert relation.are_compatible(u, v) == cold.are_compatible(u, v)
                    assert oracle.distance(u, v) == cold_distance(u, v)

    def test_node_churn_matches_cold_relation(self):
        graph, _ = planted_factions_graph(24, average_degree=3.0, sign_noise=0.2, seed=13)
        for name, kwargs in (("SPO", {}), ("NNE", {}), ("SBPH", {})):
            relation = make_relation(name, graph, **kwargs)
            for node in graph.nodes()[:5]:
                relation.compatible_with(node)
            graph.add_edge("fresh-1", "fresh-2", 1)
            graph.add_edge("fresh-2", graph.nodes()[0], 1)
            victim = graph.nodes()[5]
            graph.remove_node(victim)
            cold = make_relation(name, graph.copy(), **kwargs)
            for node in graph.nodes()[:8]:
                assert relation.compatible_with(node) == cold.compatible_with(node), name


def two_component_graph(seed: int) -> SignedGraph:
    """Two planted-faction components, ``("a", i)`` nodes inserted first."""
    graph = SignedGraph()
    for label, size in (("a", 14), ("b", 18)):
        part, _ = planted_factions_graph(size, average_degree=3.0, sign_noise=0.2, seed=seed)
        for edge in part.edges():
            graph.add_edge((label, edge.u), (label, edge.v), edge.sign)
    return graph


class TestBalancedRowsAcrossNodeSetChanges:
    """CSR balanced results that survive a node insertion or removal in
    another component were computed on a snapshot with other dense ids;
    the symmetric closure and the statistics must read them remapped."""

    @pytest.mark.parametrize("name", ["SBP", "SBPH"])
    @pytest.mark.parametrize("mutation", ["add_node", "remove_node"])
    def test_surviving_results_match_reference(self, name, mutation):
        from repro.compatibility import average_compatible_distance

        graph = two_component_graph(seed=23)
        relation = make_relation(name, graph, max_expansions=2_000)
        relation.batch_search(graph.nodes())  # every search on the old snapshot
        old = graph.csr_view()
        if mutation == "add_node":
            graph.add_node(("c", 0))
        else:
            # The first node: every later dense id shifts down by one.
            graph.remove_node(graph.nodes()[0])
        assert not graph.csr_view().shares_index_with(old)
        survivors = [node for node in graph.nodes() if node[0] == "b"]
        assert all(node in relation._result_cache for node in survivors)
        reference = ReferenceRelation(name, graph.copy(), max_expansions=2_000)
        for node in survivors:
            assert relation.compatible_with(node) == reference.compatible_with(node), node
        for u in survivors[:6]:
            for v in survivors[6:12]:
                assert relation.positive_balanced_distance(u, v) == reference.distance(u, v)
        assert average_compatible_distance(relation) == reference_average_distance(
            reference, reference.distance
        )


class TestEngineUnderChurn:
    def build(self, seed=17):
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=seed
        )
        relation = make_relation("SPO", graph)
        return graph, CompatibilityEngine(relation)

    def test_compatible_from_many_matches_cold_engine(self):
        graph, engine = self.build()
        rng = random.Random(5)
        nodes = graph.nodes()
        team = nodes[:3]
        pool = nodes[5:25]
        for round_index in range(5):
            churn_script(graph, rng, steps=6)
            live = engine.compatible_from_many(pool, team)
            cold_relation = make_relation("SPO", graph.copy())
            cold = CompatibilityEngine(cold_relation).compatible_from_many(pool, team)
            assert live == cold, f"round {round_index}"
            # Memoised repeat must be identical.
            assert engine.compatible_from_many(pool, team) == live

    def test_distances_to_team_match_cold_engine(self):
        graph, engine = self.build(seed=19)
        rng = random.Random(6)
        nodes = graph.nodes()
        team = nodes[:3]
        pool = nodes[5:25]
        for _ in range(4):
            churn_script(graph, rng, steps=6)
            live = engine.distances_to_team_many(pool, team)
            cold_relation = make_relation("SPO", graph.copy())
            cold = CompatibilityEngine(cold_relation).distances_to_team_many(pool, team)
            assert live == cold

    def test_mask_memo_survives_unrelated_churn(self):
        # Two components: a small one (churned) and a big one (the team's).
        # Churn in the small component must not drop masks rooted in the big
        # one; touching the big one must.
        edges = [(i, (i + 1) % 10, 1) for i in range(10)]
        edges += [(100 + i, 100 + (i + 1) % 40, 1) for i in range(40)]
        graph = SignedGraph.from_edges(edges)
        relation = make_relation("SPO", graph)
        engine = CompatibilityEngine(relation)
        team = [100, 101]
        pool = [102, 103, 104, 105]
        first = engine.compatible_from_many(pool, team)
        assert len(engine._mask_cache) == len(team)
        graph.set_sign(0, 1, -1)  # the small component only
        assert engine.compatible_from_many(pool, team) == first
        assert engine._mask_cache.invalidations == 0
        graph.set_sign(100, 101, -1)  # now touch the team's component
        engine.compatible_from_many(pool, team)
        assert engine._mask_cache.invalidations == len(team)

    def test_bfs_cache_survives_unrelated_churn(self):
        edges = [(i, (i + 1) % 10, 1) for i in range(10)]
        edges += [(100 + i, 100 + (i + 1) % 40, 1) for i in range(40)]
        graph = SignedGraph.from_edges(edges)
        relation = make_relation("SPO", graph)
        relation.compatible_with(100)
        entries = len(relation._bfs_cache)
        graph.set_sign(0, 1, -1)  # churn the other (small) component
        relation.compatible_with(100)
        assert relation._bfs_cache.invalidations == 0
        assert len(relation._bfs_cache) == entries

    def test_refresh_is_eager_but_optional(self):
        graph, engine = self.build(seed=23)
        team = graph.nodes()[:2]
        pool = graph.nodes()[3:13]
        engine.compatible_from_many(pool, team)
        edge = next(iter(graph.edges()))
        graph.set_sign(edge.u, edge.v, -edge.sign)
        engine.refresh()
        cold_relation = make_relation("SPO", graph.copy())
        cold = CompatibilityEngine(cold_relation).compatible_from_many(pool, team)
        assert engine.compatible_from_many(pool, team) == cold
