"""One signed BFS per source per graph, read by every layer that needs it.

SPA, SPM and SPO share one generation-keyed cache of Algorithm-1 results held
by the graph, plus a memo of each source's ``(spa, spm, spo)`` degrees; their
distance oracles read distance rows from those results, from either endpoint
of a pair; the skill index counts ``cd(s_i, s_j)`` from one batched
compatible-set sweep per skill pair.  Every answer is pinned against an
independent reference: the sign-agnostic BFS for distances, fresh relations
on a copy of the graph after churn, and the per-holder loop the skill index
ran before batching.
"""

from __future__ import annotations

import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

import repro.compatibility.shortest_path as shortest_path_module
import repro.signed.csr as csr_module
from repro.compatibility import DistanceOracle, SkillCompatibilityIndex, make_relation
from repro.datasets import synthetic_signed_network
from repro.signed.paths import INFINITY, shortest_path_lengths
from repro.skills.generators import assign_skills_zipf
from repro.utils.lru import scaled_cache_size

from reference import ReferenceRelation

SHORTEST_PATH = ("SPA", "SPM", "SPO")
RELATIONS = ("DPE", "NNE", "SPA", "SPM", "SPO", "SBPH", "SBP")


def _graph(num_nodes=60, seed=31):
    graph, _ = synthetic_signed_network(
        num_nodes, average_degree=4.0, negative_fraction=0.25, seed=seed
    )
    return graph


def _churn(graph, seed):
    """A seeded mix of every mutation kind: sign flips, edge removals and
    additions, a node removal and a new node."""
    rng = random.Random(seed)
    edges = sorted(graph.edge_triples(), key=repr)
    for u, v, sign in rng.sample(edges, 3):
        graph.set_sign(u, v, -sign)
    for u, v, _ in rng.sample(edges, 3):
        if graph.has_edge(u, v):
            graph.remove_edge(u, v)
    nodes = graph.nodes()
    for _ in range(3):
        u, v = rng.sample(nodes, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, rng.choice((1, -1)))
    graph.remove_node(rng.choice(nodes))
    graph.add_node("newcomer")
    graph.add_edge("newcomer", rng.choice(graph.nodes()[:-1]), 1)


def _count_signed_bfs(monkeypatch):
    """Count Algorithm-1 runs per source node, whichever kernel runs them."""
    counts: Counter = Counter()
    per_source_csr = csr_module.signed_bfs_csr
    per_source_dict = shortest_path_module.signed_bfs
    batched = csr_module.signed_bfs_dense_batch

    def counting_csr(csr, source, *args, **kwargs):
        counts[source] += 1
        return per_source_csr(csr, source, *args, **kwargs)

    def counting_dict(graph, source, *args, **kwargs):
        counts[source] += 1
        return per_source_dict(graph, source, *args, **kwargs)

    def counting_batch(csr, sources, *args, **kwargs):
        counts.update(csr.node_at(dense) for dense in sources)
        return batched(csr, sources, *args, **kwargs)

    monkeypatch.setattr(csr_module, "signed_bfs_csr", counting_csr)
    monkeypatch.setattr(shortest_path_module, "signed_bfs", counting_dict)
    monkeypatch.setattr(csr_module, "signed_bfs_dense_batch", counting_batch)
    return counts


class TestSharedCache:
    def test_one_signed_bfs_per_source(self, monkeypatch):
        graph = _graph()
        counts = _count_signed_bfs(monkeypatch)
        nodes = graph.nodes()
        for name in SHORTEST_PATH:
            relation = make_relation(name, graph)
            oracle = DistanceOracle(relation)
            relation.batch_compatible_sets(nodes[: len(nodes) // 2])
            relation.batch_compatibility_degrees(nodes)
            for u in nodes[::7]:
                relation.compatible_with(u)
                relation.are_compatible(nodes[-1], u)
            oracle.warm(nodes[::3])
            oracle.distance(nodes[1], nodes[2])
            oracle.batch_distance_to_set(nodes, nodes[:3])
        assert set(counts) == set(nodes)
        assert set(counts.values()) == {1}

    def test_one_cache_of_each_kind_per_graph(self):
        graph = _graph()

        def caches(relation):
            return relation._bfs_cache, relation._presence_cache, relation._degree_cache

        first = make_relation("SPA", graph)
        shared = caches(first)
        assert caches(make_relation("SPM", graph)) == shared
        assert caches(make_relation("SPO", graph)) == shared
        graph.add_edge("newcomer", graph.nodes()[0], 1)
        assert caches(make_relation("SPO", graph)) == shared
        assert make_relation("SPA", graph.copy())._bfs_cache is not shared[0]
        # Grown past the size at which the bound starts to shrink, the graph
        # bounds the next relation's caches for its new size; the first
        # relation keeps its own.
        for node in range(3_000):
            graph.add_node(("grown", node))
        grown = make_relation("SPM", graph)
        assert grown._bfs_cache is not shared[0]
        assert grown._bfs_cache.maxsize == scaled_cache_size(
            shortest_path_module.DEFAULT_BFS_CACHE_SIZE, graph.number_of_nodes()
        ) < shared[0].maxsize
        assert caches(make_relation("SPO", graph)) == caches(grown)
        assert caches(first) == shared

    def test_freed_with_the_graph(self):
        graph = _graph()
        relation = make_relation("SPO", graph)
        relation.batch_compatible_sets(graph.nodes()[:5])
        cache = weakref.ref(relation._bfs_cache)
        graph_ref = weakref.ref(graph)
        del graph, relation
        gc.collect()
        assert graph_ref() is None
        assert cache() is None

    def test_mutation_invalidates_every_sharing_relation(self):
        graph = _graph()
        relations = {name: make_relation(name, graph) for name in SHORTEST_PATH}
        for relation in relations.values():
            relation.batch_compatible_sets(graph.nodes())
        cache = relations["SPA"]._bfs_cache
        assert len(cache) == graph.number_of_nodes()
        _churn(graph, seed=5)
        assert len(cache) < graph.number_of_nodes()
        assert cache.invalidations > 0
        nodes = graph.nodes()
        for name, relation in relations.items():
            fresh = ReferenceRelation(name, graph.copy())
            assert relation.batch_compatible_sets(nodes) == [
                fresh.compatible_with(u) for u in nodes
            ]
            assert relation.batch_compatibility_degrees(nodes) == [
                fresh.compatibility_degree(u) for u in nodes
            ]
            for u, v in itertools.combinations(nodes[::5], 2):
                assert relation.are_compatible(u, v) == fresh.are_compatible(u, v)


def _expected_distance(lengths, u, v):
    return 0.0 if u == v else float(lengths[u].get(v, INFINITY))


class TestShortestPathOracle:
    """SP* distance rows are the signed BFS's lengths: equal to the
    sign-agnostic BFS for every pair, before and after churn."""

    @pytest.mark.parametrize("name", SHORTEST_PATH)
    def test_matches_sign_agnostic_bfs(self, name):
        graph = _graph(40, seed=17)
        oracle = DistanceOracle(make_relation(name, graph))
        for phase in range(2):
            nodes = graph.nodes()
            lengths = {u: shortest_path_lengths(graph, u) for u in nodes}
            rows = oracle.warm(nodes[::2])
            for u, row in zip(nodes[::2], rows):
                assert {v: row.get(v, INFINITY) for v in nodes} == {
                    v: lengths[u].get(v, INFINITY) for v in nodes
                }
            for u, v in itertools.product(nodes, repeat=2):
                assert oracle.distance(u, v) == _expected_distance(lengths, u, v)
            for team in (nodes[:1], nodes[3:6], nodes[-4:]):
                assert oracle.batch_distance_to_set(nodes, team) == [
                    max(_expected_distance(lengths, member, c) for member in team)
                    for c in nodes
                ]
            if phase == 0:
                _churn(graph, seed=9)

    def test_no_sign_agnostic_bfs_for_shortest_path_relations(
        self, monkeypatch, traversals
    ):
        per_source = csr_module.shortest_path_lengths_csr

        def counting_source(csr, source):
            traversals["shortest_path_lengths_csr"] += 1
            return per_source(csr, source)

        monkeypatch.setattr(csr_module, "shortest_path_lengths_csr", counting_source)
        graph = _graph()
        nodes = graph.nodes()
        for name in SHORTEST_PATH:
            oracle = DistanceOracle(make_relation(name, graph))
            oracle.warm(nodes[:10])
            oracle.distance(nodes[20], nodes[0])
            oracle.batch_distance_to_set(nodes, nodes[30:33])
        assert set(traversals) == {"signed_bfs_dense_batch"}
        # NNE still runs the sign-agnostic BFS (the counters do count), but
        # a pair with a warmed endpoint reads that endpoint's row.
        oracle = DistanceOracle(make_relation("NNE", graph))
        oracle.warm(nodes[:10])
        assert traversals["shortest_path_lengths_dense_batch"] >= 1
        oracle.distance(nodes[20], nodes[0])
        assert traversals["shortest_path_lengths_csr"] == 0
        oracle.distance(nodes[40], nodes[41])
        assert traversals["shortest_path_lengths_csr"] == 1

    @pytest.mark.parametrize("name", ("DPE", "NNE") + SHORTEST_PATH)
    def test_distance_is_symmetric(self, name):
        """Whichever endpoint's row is cached, both directions agree with the
        sign-agnostic BFS — before and after churn, isolated nodes included."""
        graph = _graph(40, seed=23)
        graph.add_node("loner")
        oracle = DistanceOracle(make_relation(name, graph))
        for phase in range(2):
            nodes = graph.nodes()
            oracle.warm(nodes[::4])
            for u, v in itertools.combinations(dict.fromkeys(nodes[::2] + ["loner"]), 2):
                expected = float(shortest_path_lengths(graph, u).get(v, INFINITY))
                assert oracle.distance(u, v) == expected
                assert oracle.distance(v, u) == expected
            if phase == 0:
                _churn(graph, seed=29)


class TestDegreeMemo:
    """One presence word answers the SPA and SPO degrees, one count
    traversal per source the SPM degree and the rest of the triple."""

    def test_presence_and_one_count_sweep_serve_all_three_relations(self, traversals):
        graph = _graph(80, seed=37)
        sample = random.Random(3).sample(graph.nodes(), 24)
        # SPA's degrees come from presence planes; SPO then reads the memo,
        # and SPM counts into the BFS cache kept for the distance rows that
        # follow in Table 2.
        expected = {
            "SPA": {"presence_degrees"},
            "SPM": {"signed_bfs_dense_batch"},
            "SPO": set(),
        }
        for phase in range(2):
            relations = {name: make_relation(name, graph) for name in SHORTEST_PATH}
            degrees = {}
            for name, relation in relations.items():
                traversals.clear()
                degrees[name] = relation.batch_compatibility_degrees(sample)
                assert set(traversals) == expected[name], (phase, name)
            reference = graph.copy()
            for name in SHORTEST_PATH:
                fresh = make_relation(name, reference)
                assert degrees[name] == [fresh.compatibility_degree(u) for u in sample]
            memo = relations["SPA"]._degree_cache
            for position, source in enumerate(sample):
                triple = memo.get(source)
                assert triple == tuple(degrees[name][position] for name in SHORTEST_PATH)
                assert triple[0] <= triple[1] <= triple[2]
            if phase == 0:
                # Flip an edge at the best-connected source: its component's
                # entries drop, and the next sweep recounts them.
                source = max(sample, key=graph.degree)
                neighbour, sign = next(iter(graph.signed_neighbors(source)))
                graph.set_sign(source, neighbour, -sign)
                assert source not in memo


def per_holder_pair_degree(relation, assignment, skill_a, skill_b):
    """Reference ``cd(skill_a, skill_b)``: the per-holder loop the index ran
    before batching, counting only holders present in the graph."""
    graph = relation.graph
    users_a = [user for user in assignment.users_with(skill_a) if user in graph]
    users_b = [user for user in assignment.users_with(skill_b) if user in graph]
    if len(users_b) < len(users_a):
        users_a, users_b = users_b, users_a
    count = 0
    for user_a in users_a:
        compatible = relation.compatible_with(user_a)
        for user_b in users_b:
            if user_b == user_a or user_b in compatible:
                count += 1
    return count


class TestSkillDegrees:
    """``pair_degree``, ``skill_degree`` and ``rank_skills_by_degree`` equal
    the per-holder reference under all seven relations, before and after a
    mutation (the index instance lives across it)."""

    @pytest.mark.parametrize("name", RELATIONS)
    def test_matches_per_holder_reference(self, name):
        graph = _graph(36, seed=41)
        assignment = assign_skills_zipf(graph.nodes(), num_skills=7, skills_per_user=2.0, seed=42)
        kwargs = {"max_expansions": 2_000} if name in ("SBP", "SBPH") else {}
        index = SkillCompatibilityIndex(make_relation(name, graph, **kwargs), assignment)
        skills = assignment.skills()
        for phase in range(2):
            reference = make_relation(name, graph.copy(), **kwargs)
            expected = {
                frozenset((a, b)): per_holder_pair_degree(reference, assignment, a, b)
                for a, b in itertools.combinations_with_replacement(skills, 2)
            }
            for a, b in itertools.product(skills, repeat=2):
                assert index.pair_degree(a, b) == expected[frozenset((a, b))]
            degrees = {
                skill: sum(expected[frozenset((skill, o))] for o in skills if o != skill)
                for skill in skills
            }
            assert {skill: index.skill_degree(skill) for skill in skills} == degrees
            assert index.rank_skills_by_degree(skills) == sorted(
                skills, key=lambda skill: (degrees[skill], str(skill))
            )
            if phase == 0:
                _churn(graph, seed=43)

    @pytest.mark.parametrize("name", ("SPO", "NNE", "SBPH"))
    def test_existence_check_matches_reference(self, name):
        graph = _graph(36, seed=41)
        assignment = assign_skills_zipf(graph.nodes(), num_skills=7, skills_per_user=2.0, seed=42)
        index = SkillCompatibilityIndex(make_relation(name, graph), assignment)
        for phase in range(2):
            reference = make_relation(name, graph.copy())
            for a, b in itertools.combinations(assignment.skills(), 2):
                expected = per_holder_pair_degree(reference, assignment, a, b) > 0
                assert index.skills_compatible(a, b) == expected
            if phase == 0:
                _churn(graph, seed=44)
