"""Dict-free churn on the CSR facade is bit-identical to the dict backend.

The contract under test: an arbitrary interleaving of ``add_node`` /
``add_edge`` / ``set_sign`` / ``remove_edge`` / ``csr_view`` applied to a
:class:`~repro.signed.lazy.CSRBackedSignedGraph` produces — without ever
materialising the adjacency dicts — exactly the state a plain
:class:`~repro.signed.graph.SignedGraph` reaches under the same interleaving:
same exceptions, same generation trace, same counters, same snapshot planes
(arrays, node order, dtypes), same query answers, and snapshots that keep the
dense-id identity sharing the generational caches rely on.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import make_relation
from repro.signed import CSRSignedGraph, SignedGraph, as_signed_graph
from repro.signed.lazy import CSRBackedSignedGraph

SLOW_OK = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

RELATIONS = ("SPA", "SPM", "SPO", "SBPH", "NNE")


def build_pair(num_nodes, edges):
    """A dict graph and an equal-state facade over its CSR snapshot."""
    reference = SignedGraph()
    for node in range(num_nodes):
        reference.add_node(node)
    for u, v, sign in edges:
        if u != v and not reference.has_edge(u, v):
            reference.add_edge(u, v, sign)
    csr = CSRSignedGraph.from_signed_graph(reference)
    return reference, CSRBackedSignedGraph(csr)


def apply_op(graph, op):
    """Apply one churn op; normalise the outcome for cross-backend compare."""
    try:
        kind = op[0]
        if kind == "add_node":
            graph.add_node(op[1])
        elif kind == "add_edge":
            graph.add_edge(op[1], op[2], op[3])
        elif kind == "set_sign":
            graph.set_sign(op[1], op[2], op[3])
        elif kind == "remove_edge":
            graph.remove_edge(op[1], op[2])
        elif kind == "snapshot":
            view = graph.csr_view()
            return ("snapshot", view.generation)
        return ("ok", None)
    except Exception as exc:  # compared by type across backends
        return ("raised", type(exc).__name__)


def assert_planes_equal(left, right):
    assert left._nodes == right._nodes
    assert left.generation == right.generation
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.signs, right.signs)
    assert left.indptr.dtype == right.indptr.dtype
    assert left.indices.dtype == right.indices.dtype
    assert left.signs.dtype == right.signs.dtype


@st.composite
def churn_scenarios(draw):
    num_nodes = draw(st.integers(min_value=2, max_value=7))
    edge = st.tuples(
        st.integers(0, num_nodes - 1),
        st.integers(0, num_nodes - 1),
        st.sampled_from((-1, 1)),
    )
    edges = draw(st.lists(edge, max_size=14))
    # The op pool reaches past the initial node range so add_edge/add_node
    # grow the node set mid-stream (pure-addition apply_delta path).
    node = st.integers(0, num_nodes + 2)
    sign = st.sampled_from((-1, 1))
    op = st.one_of(
        st.tuples(st.just("add_edge"), node, node, sign),
        st.tuples(st.just("remove_edge"), node, node),
        st.tuples(st.just("set_sign"), node, node, sign),
        st.tuples(st.just("add_node"), node),
        st.tuples(st.just("snapshot")),
    )
    ops = draw(st.lists(op, max_size=30))
    return num_nodes, edges, ops


class TestChurnBitIdentity:
    @SLOW_OK
    @given(churn_scenarios())
    def test_arbitrary_interleavings_match_dict_backend(self, scenario):
        num_nodes, edges, ops = scenario
        reference, facade = build_pair(num_nodes, edges)
        base_generation = reference.generation
        assert facade.generation == base_generation
        for op in ops:
            dict_outcome = apply_op(reference, op)
            facade_outcome = apply_op(facade, op)
            assert facade_outcome == dict_outcome
            assert facade.generation == reference.generation
            assert not facade.materialised
        # Counters and the full query surface agree.
        assert len(facade) == len(reference)
        assert facade.nodes() == reference.nodes()
        assert facade.number_of_edges() == reference.number_of_edges()
        assert facade.number_of_positive_edges() == reference.number_of_positive_edges()
        for node in reference.nodes():
            assert facade.degree(node) == reference.degree(node)
            assert list(facade.neighbors(node)) == list(reference.neighbors(node))
            assert list(facade.signed_neighbors(node)) == list(
                reference.signed_neighbors(node)
            )
        assert [
            (e.u, e.v, e.sign) for e in facade.edges()
        ] == [(e.u, e.v, e.sign) for e in reference.edges()]
        # Component invalidation agrees from any sync point.
        assert facade.affected_nodes_since(base_generation) == (
            reference.affected_nodes_since(base_generation)
        )
        # Final snapshots are bit-identical; taking them stays dict-free.
        assert_planes_equal(facade.csr_view(), reference.csr_view())
        assert not facade.materialised


class TestChurnCacheSurvival:
    def _scripted_pair(self, seed=5, num_nodes=24, num_edges=60):
        rng = random.Random(seed)
        edges = [
            (rng.randrange(num_nodes), rng.randrange(num_nodes), rng.choice((-1, 1)))
            for _ in range(num_edges)
        ]
        return build_pair(num_nodes, edges)

    def _scripted_churn(self, graph, seed=9, events=12):
        rng = random.Random(seed)
        nodes = graph.nodes()
        for _ in range(events):
            roll = rng.random()
            u, v = rng.sample(nodes, 2)
            if roll < 0.45:
                if not graph.has_edge(u, v):
                    graph.add_edge(u, v, rng.choice((-1, 1)))
            elif roll < 0.75:
                if graph.has_edge(u, v):
                    graph.remove_edge(u, v)
            else:
                if graph.has_edge(u, v):
                    graph.set_sign(u, v, -graph.sign(u, v))

    def test_snapshot_cache_and_index_identity_survive_churn(self):
        reference, facade = self._scripted_pair()
        first = facade.csr_view()
        assert facade.csr_view() is first  # generation-cached
        self._scripted_churn(facade)
        second = facade.csr_view()
        assert second is not first
        assert second.generation == facade.generation
        # Edge-only churn keeps the node set: the patched snapshot shares the
        # node-list identity, so dense-id caches survive (shares_index_with).
        assert second.shares_index_with(first)
        assert facade.csr_view() is second
        assert not facade.materialised

    @pytest.mark.parametrize("name", RELATIONS)
    def test_relations_identical_after_dict_free_churn(self, name):
        reference, facade = self._scripted_pair(seed=7)
        kwargs = {"max_expansions": 2_000} if name == "SBPH" else {}
        live = make_relation(name, facade, **kwargs)
        probe = reference.nodes()[0]
        set(live.compatible_with(probe))  # warm the generational caches
        self._scripted_churn(facade, seed=11)
        self._scripted_churn(reference, seed=11)
        cold = make_relation(name, reference, **kwargs)
        for node in reference.nodes():
            assert set(live.compatible_with(node)) == set(cold.compatible_with(node))
        assert not facade.materialised

    def test_copy_is_dict_free_and_equal(self):
        reference, facade = self._scripted_pair(seed=3)
        self._scripted_churn(facade, seed=4)
        self._scripted_churn(reference, seed=4)
        clone = facade.copy()
        assert isinstance(clone, CSRBackedSignedGraph)
        assert not facade.materialised
        assert not clone.materialised
        assert clone.nodes() == reference.nodes()
        assert_planes_equal(clone.csr_view(), reference.csr_view())

    def test_delta_headroom_collapse_never_overflows(self):
        # Force the headroom path with a tiny delta budget: long churn runs
        # must keep snapshotting early instead of overflowing (overflow would
        # drop events the facade cannot recover without a dict backend).
        from repro.signed.delta import GraphDelta

        reference, facade = self._scripted_pair(seed=13)
        facade._delta = GraphDelta(max_events=16)
        rng = random.Random(21)
        nodes = facade.nodes()
        for _ in range(200):
            u, v = rng.sample(nodes, 2)
            if facade.has_edge(u, v):
                facade.remove_edge(u, v)
                reference.remove_edge(u, v)
            else:
                sign = rng.choice((-1, 1))
                facade.add_edge(u, v, sign)
                reference.add_edge(u, v, sign)
        assert not facade.materialised
        assert not facade._delta.overflowed
        assert facade.generation == reference.generation
        assert_planes_equal(
            facade.csr_view(), CSRSignedGraph.from_signed_graph(reference)
        )


def test_as_signed_graph_passthrough_for_mutated_facade():
    reference, facade = TestChurnCacheSurvival()._scripted_pair(seed=2)
    if not facade.has_edge(0, 1):
        facade.add_edge(0, 1, 1)
    assert as_signed_graph(facade) is facade
