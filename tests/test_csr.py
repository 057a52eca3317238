"""Tests for the indexed CSR snapshot: construction, kernels, relation equivalence.

The load-bearing guarantee is *bit-identical equivalence*: every CSR algorithm
must return exactly the counts / lengths the pure-Python reference
implementation (:mod:`repro.signed.paths`) returns, on synthetic random
graphs (connected and disconnected, every topology) and on loader-built
datasets with string node ids.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import (
    make_relation,
    source_sampled_pair_statistics,
)
from repro.datasets import load_dataset, synthetic_signed_network
from repro.exceptions import NodeNotFoundError
from repro.signed import (
    CSRSignedGraph,
    SignedGraph,
    multi_source_signed_bfs,
    shortest_path_lengths,
    shortest_path_lengths_csr,
    shortest_signed_walk_lengths,
    shortest_signed_walk_lengths_csr,
    signed_bfs,
    signed_bfs_csr,
)
import repro.signed.csr as csr_module
from repro.signed.csr import UNREACHABLE, CSRLengths

from reference import ReferenceRelation, narrowest_dtype


def random_signed_graph(seed: int, num_nodes: int = 30, edge_prob: float = 0.12) -> SignedGraph:
    """A random signed graph that may be disconnected and has isolated nodes."""
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    edges = []
    for u in nodes:
        for v in nodes[u + 1 :]:
            if rng.random() < edge_prob:
                edges.append((u, v, rng.choice([1, -1])))
    return SignedGraph.from_edges(edges, nodes=nodes)


@pytest.fixture(scope="module")
def loader_graph() -> SignedGraph:
    """A loader-built graph with non-integer node ids."""
    return load_dataset("slashdot", seed=3, scale=0.25).graph


class TestConstruction:
    def test_round_trip_preserves_structure(self, two_factions):
        csr = CSRSignedGraph.from_signed_graph(two_factions)
        assert csr.number_of_nodes() == two_factions.number_of_nodes()
        assert csr.number_of_edges() == two_factions.number_of_edges()
        assert csr.nodes() == two_factions.nodes()
        degrees = csr.degrees()
        for node in two_factions.nodes():
            assert degrees[csr.index_of(node)] == two_factions.degree(node)

    def test_signs_match_adjacency(self, two_factions):
        csr = CSRSignedGraph.from_signed_graph(two_factions)
        for node in two_factions.nodes():
            dense = csr.index_of(node)
            start, end = csr.indptr[dense], csr.indptr[dense + 1]
            for neighbor_id, sign in zip(csr.indices[start:end], csr.signs[start:end]):
                neighbor = csr.node_at(int(neighbor_id))
                assert two_factions.sign(node, neighbor) == sign

    def test_unknown_node_raises(self, two_factions):
        csr = CSRSignedGraph.from_signed_graph(two_factions)
        with pytest.raises(NodeNotFoundError):
            csr.index_of("ghost")
        assert "ghost" not in csr
        assert 0 in csr

    def test_from_edges(self):
        csr = CSRSignedGraph.from_edges([(0, 1, +1), (1, 2, -1)])
        assert csr.number_of_nodes() == 3
        assert csr.number_of_edges() == 2

    def test_empty_graph(self):
        csr = CSRSignedGraph.from_signed_graph(SignedGraph())
        assert csr.number_of_nodes() == 0
        assert len(csr.indices) == 0


class TestCSRView:
    def test_view_is_cached(self, two_factions):
        assert two_factions.csr_view() is two_factions.csr_view()

    def test_view_invalidated_by_mutation(self, two_factions):
        before = two_factions.csr_view()
        two_factions.set_sign(2, 3, +1)
        after = two_factions.csr_view()
        assert after is not before
        dense_u, dense_v = after.index_of(2), after.index_of(3)
        start, end = after.indptr[dense_u], after.indptr[dense_u + 1]
        slot = list(after.indices[start:end]).index(dense_v)
        assert after.signs[start + slot] == +1

    def test_noop_add_node_keeps_view(self, two_factions):
        before = two_factions.csr_view()
        two_factions.add_node(0)  # already present
        assert two_factions.csr_view() is before


class TestSignedBFSEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_bit_identical(self, seed):
        graph = random_signed_graph(seed)
        csr = graph.csr_view()
        for source in graph.nodes()[::5]:
            expected = signed_bfs(graph, source)
            actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
            assert actual.lengths == expected.lengths
            assert actual.positive_counts == expected.positive_counts
            assert actual.negative_counts == expected.negative_counts

    @pytest.mark.parametrize(
        "topology", ["scale_free", "small_world", "erdos_renyi"]
    )
    def test_synthetic_topologies(self, topology):
        graph, _ = synthetic_signed_network(
            120, average_degree=5.0, negative_fraction=0.3, topology=topology, seed=11
        )
        csr = graph.csr_view()
        for source in graph.nodes()[:10]:
            expected = signed_bfs(graph, source)
            actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
            assert actual.lengths == expected.lengths
            assert actual.positive_counts == expected.positive_counts
            assert actual.negative_counts == expected.negative_counts

    def test_high_diameter_path_graph(self):
        # A path graph maximises BFS depth: exercises the small-frontier
        # (sort-based) branch of the next-frontier rebuild on every level.
        rng = random.Random(31)
        num_nodes = 600
        edges = [(i, i + 1, rng.choice([1, -1])) for i in range(num_nodes - 1)]
        graph = SignedGraph.from_edges(edges)
        csr = graph.csr_view()
        for source in (0, num_nodes // 2, num_nodes - 1):
            expected = signed_bfs(graph, source)
            actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
            assert actual.lengths == expected.lengths
            assert actual.positive_counts == expected.positive_counts
            assert actual.negative_counts == expected.negative_counts
            pos_expected, neg_expected = shortest_signed_walk_lengths(graph, source)
            pos, neg = shortest_signed_walk_lengths_csr(csr, source)
            nodes = csr.nodes()
            assert {nodes[i]: int(pos[i]) for i in np.flatnonzero(pos != UNREACHABLE)} == pos_expected
            assert {nodes[i]: int(neg[i]) for i in np.flatnonzero(neg != UNREACHABLE)} == neg_expected

    def test_loader_built_graph_with_string_ids(self, loader_graph):
        csr = loader_graph.csr_view()
        for source in loader_graph.nodes()[:5]:
            expected = signed_bfs(loader_graph, source)
            actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
            assert actual.lengths == expected.lengths
            assert actual.positive_counts == expected.positive_counts
            assert actual.negative_counts == expected.negative_counts

    def test_array_result_queries_match_dict_result(self):
        graph = random_signed_graph(99)
        source = graph.nodes()[0]
        expected = signed_bfs(graph, source)
        actual = signed_bfs_csr(graph.csr_view(), source)
        for node in graph.nodes():
            assert actual.reachable(node) == expected.reachable(node)
            assert actual.length(node) == expected.length(node)
            assert actual.counts(node) == expected.counts(node)
        assert actual.reachable_count() == len(expected.lengths)

    def test_missing_source_raises(self, two_factions):
        with pytest.raises(NodeNotFoundError):
            signed_bfs_csr(two_factions.csr_view(), "ghost")

    def test_overflow_guard_raises_before_wrapping(self):
        # A doubling ladder: layer k is reached by 2**k shortest paths, so 66
        # layers push the counts past int64.  The guard must raise (not wrap)
        # and the relation must transparently fall back to signed_bfs, whose
        # big integers agree with brute maths.
        edges = []
        previous = ["s"]
        for layer in range(66):
            current = [(layer, 0), (layer, 1)]
            for node in current:
                for parent in previous:
                    edges.append((parent, node, 1))
            previous = current
        edges.append((previous[0], "t", 1))
        edges.append((previous[1], "t", 1))
        graph = SignedGraph.from_edges(edges)
        with pytest.raises(OverflowError):
            signed_bfs_csr(graph.csr_view(), "s")
        relation = make_relation("SPO", graph)
        assert relation.are_compatible("s", "t")  # falls back, no crash
        expected = signed_bfs(graph, "s")
        assert expected.positive_counts["t"] == 2**66  # needs big ints
        assert relation.batch_compatibility_degrees(["s"]) == [
            len(relation.compatible_with("s")) - 1
        ]

    def test_result_equality_is_identity_not_a_crash(self, two_factions):
        # Array-field dataclasses must not inherit the value __eq__ (ambiguous
        # truth value); equality is identity, membership checks work.
        csr = two_factions.csr_view()
        first = signed_bfs_csr(csr, 0)
        second = signed_bfs_csr(csr, 0)
        assert first == first
        assert first != second
        assert first in [first, second]

    def test_multi_source_preserves_order(self):
        graph = random_signed_graph(5)
        sources = graph.nodes()[:6]
        results = multi_source_signed_bfs(graph.csr_view(), sources)
        assert [result.source for result in results] == sources


class TestOtherKernels:
    @pytest.mark.parametrize("seed", range(5))
    def test_shortest_path_lengths_equivalence(self, seed):
        graph = random_signed_graph(seed)
        csr = graph.csr_view()
        for source in graph.nodes()[::7]:
            expected = shortest_path_lengths(graph, source)
            lengths = shortest_path_lengths_csr(csr, source)
            view = CSRLengths(csr, lengths)
            assert dict(view.items()) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_signed_walk_lengths_equivalence(self, seed):
        graph = random_signed_graph(seed, edge_prob=0.15)
        csr = graph.csr_view()
        for source in graph.nodes()[::7]:
            expected_pos, expected_neg = shortest_signed_walk_lengths(graph, source)
            pos, neg = shortest_signed_walk_lengths_csr(csr, source)
            nodes = csr.nodes()
            actual_pos = {
                nodes[i]: int(pos[i]) for i in np.flatnonzero(pos != UNREACHABLE)
            }
            actual_neg = {
                nodes[i]: int(neg[i]) for i in np.flatnonzero(neg != UNREACHABLE)
            }
            assert actual_pos == expected_pos
            assert actual_neg == expected_neg

    def test_csr_lengths_mapping_protocol(self):
        graph = SignedGraph.from_edges([(0, 1, +1)], nodes=["iso"])
        csr = graph.csr_view()
        view = CSRLengths(csr, shortest_path_lengths_csr(csr, 0))
        assert view[1] == 1
        assert view.get("iso") is None
        assert "iso" not in view
        assert view.get("ghost", -7) == -7
        with pytest.raises(KeyError):
            view["iso"]
        assert len(view) == 2
        # Iteration behaves like the dict the small-graph code path returns.
        assert sorted(view, key=repr) == [0, 1]
        assert sorted(view.keys(), key=repr) == [0, 1]

    @pytest.mark.parametrize("seed", range(6))
    def test_write_into_batches_match_allocating_batches(self, seed):
        """Both dense-batch forms equal the per-source reference kernels bit
        for bit: batch sizes either side of the per-source / word-parallel
        switch and of the 64-source word, duplicate sources, and ``_into``
        buffers that are contiguous, row-strided or column-sliced."""
        from repro.signed.csr import (
            _shortest_path_lengths_array,
            _signed_bfs_arrays,
            shortest_path_lengths_dense_batch,
            shortest_path_lengths_dense_batch_into,
            signed_bfs_dense_batch,
            signed_bfs_dense_batch_into,
        )

        def out_buffer(k, n, dtype, layout):
            if layout == "strided":
                return np.full((2 * k, n), -7, dtype=dtype)[::2]
            if layout == "column-sliced":
                return np.full((k, n + 3), -7, dtype=dtype)[:, :n]
            return np.full((k, n), -7, dtype=dtype)

        csr = random_signed_graph(seed, num_nodes=200, edge_prob=0.02).csr_view()
        n = csr.number_of_nodes()
        reference = {
            source: (_signed_bfs_arrays(csr, source), _shortest_path_lengths_array(csr, source))
            for source in range(n)
        }
        cut = csr_module.WORDPARALLEL_MIN_SOURCES
        for k in (0, 1, 2, cut - 1, cut, 63, 64, 65, 150):
            # Every source appears twice in a row: duplicates share a word.
            sources = [(i // 2) * 7 % n for i in range(k)]
            for layout in ("allocating", "contiguous", "strided", "column-sliced"):
                if layout == "allocating":
                    triples = signed_bfs_dense_batch(csr, sources)
                    lengths = shortest_path_lengths_dense_batch(csr, sources)
                else:
                    out = [
                        out_buffer(k, n, dtype, layout)
                        for dtype in (np.int32, np.int64, np.int64, np.int32)
                    ]
                    tokens = signed_bfs_dense_batch_into(csr, sources, *out[:3])
                    assert tokens == [True] * k
                    tokens = shortest_path_lengths_dense_batch_into(csr, sources, out[3])
                    assert tokens == [True] * k
                    triples = list(zip(*out[:3]))
                    lengths = list(out[3])
                assert len(triples) == len(lengths) == k, (k, layout)
                for source, triple, row in zip(sources, triples, lengths):
                    want_triple, want_lengths = reference[source]
                    for got, want in zip(triple, want_triple):
                        # Buffers keep the kernels' widths; allocated rows
                        # are copied out at the narrowest type.
                        assert got.dtype == (
                            narrowest_dtype(want) if layout == "allocating" else want.dtype
                        ), (k, layout)
                        assert np.array_equal(got, want), (k, layout, source)
                    assert row.dtype == (
                        narrowest_dtype(want_lengths) if layout == "allocating"
                        else want_lengths.dtype
                    ), (k, layout)
                    assert np.array_equal(row, want_lengths), (k, layout, source)

    def test_nodes_returns_defensive_copy(self, two_factions):
        csr = CSRSignedGraph.from_signed_graph(two_factions)
        mutated = csr.nodes()
        mutated.reverse()
        # The snapshot's dense-id mapping is untouched by caller mutation.
        assert csr.nodes() == two_factions.nodes()
        assert csr.node_at(csr.index_of(0)) == 0


class TestRelationBackendEquivalence:
    """The CSR relations against :class:`ReferenceRelation` (``signed_bfs``)."""

    @pytest.mark.parametrize("name", ["SPA", "SPM", "SPO"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_compatible_sets_identical(self, name, seed):
        graph = random_signed_graph(seed, num_nodes=40, edge_prob=0.1)
        reference = ReferenceRelation(name, graph)
        csr_relation = make_relation(name, graph)
        for node in graph.nodes():
            assert reference.compatible_with(node) == csr_relation.compatible_with(node)

    @pytest.mark.parametrize("name", ["SPA", "SPM", "SPO"])
    def test_pair_queries_identical(self, name):
        graph = random_signed_graph(7, num_nodes=25, edge_prob=0.15)
        reference = ReferenceRelation(name, graph)
        csr_relation = make_relation(name, graph)
        nodes = graph.nodes()
        for u in nodes[::3]:
            for v in nodes[::4]:
                assert reference.are_compatible(u, v) == csr_relation.are_compatible(u, v)

    @pytest.mark.parametrize("name", ["SPA", "SPM", "SPO"])
    def test_batch_degrees_identical(self, name):
        graph = random_signed_graph(3, num_nodes=35)
        reference = ReferenceRelation(name, graph)
        csr_relation = make_relation(name, graph)
        sources = graph.nodes()[::2]
        assert (
            reference.batch_compatibility_degrees(sources)
            == csr_relation.batch_compatibility_degrees(sources)
        )

    def test_batch_degrees_correct_under_cache_eviction(self, cache_ceilings):
        # A sample larger than the BFS LRU must still be one batched pass with
        # correct counts (results are held locally, not read back through the
        # evicting cache).
        cache_ceilings(bfs=2)
        graph = random_signed_graph(23, num_nodes=30)
        small_cache = make_relation("SPO", graph)
        assert small_cache._bfs_cache.maxsize == 2
        reference = ReferenceRelation("SPO", graph)
        sources = graph.nodes()
        assert small_cache.batch_compatibility_degrees(sources) == [
            reference.compatibility_degree(source) for source in sources
        ]

    def test_distance_oracle_matches_reference(self):
        # The oracle's rows are the relation's CSR lengths; the reference
        # runs shortest_path_lengths per pair.
        from repro.compatibility import DistanceOracle

        graph = random_signed_graph(29, num_nodes=20)
        reference = ReferenceRelation("SPO", graph)
        csr_oracle = DistanceOracle(make_relation("SPO", graph))
        for u in graph.nodes()[::4]:
            for v in graph.nodes()[::5]:
                assert reference.distance(u, v) == csr_oracle.distance(u, v)

    def test_balanced_batch_degrees_match_compatible_with(self):
        # The balanced relations' streaming batch path must agree with the
        # per-source symmetric closure used by compatible_with.
        graph = random_signed_graph(17, num_nodes=25, edge_prob=0.15)
        batch_relation = make_relation("SBPH", graph)
        set_relation = make_relation("SBPH", graph)
        sources = graph.nodes()[::3]
        batched = batch_relation.batch_compatibility_degrees(sources)
        expected = [len(set_relation.compatible_with(s)) - 1 for s in sources]
        assert batched == expected

    def test_balanced_batch_sets_warm_the_compatible_cache(self):
        # batch_compatible_sets returns exactly compatible_with's sets and
        # seeds the per-source cache so follow-up queries are hits.
        graph = random_signed_graph(11, num_nodes=20, edge_prob=0.2)
        relation = make_relation("SBPH", graph)
        sources = graph.nodes()[::4]
        batched = relation.batch_compatible_sets(sources)
        for source, found in zip(sources, batched):
            assert source in found
            assert relation.compatible_with(source) == found
        # Fresh-relation comparison: same sets without the batch warm-up.
        reference = make_relation("SBPH", graph)
        for source, found in zip(sources, batched):
            assert reference.compatible_with(source) == found

    def test_source_sampled_statistics_identical_for_sbph(self):
        # The sampled estimator routes SBPH through the batch entry point; its
        # counts must match summing the symmetric compatible sets by hand.
        from repro.utils import ensure_rng

        graph = random_signed_graph(19, num_nodes=30, edge_prob=0.12)
        batch_stats = source_sampled_pair_statistics(make_relation("SBPH", graph), 8, seed=4)
        relation = make_relation("SBPH", graph)
        sampled = ensure_rng(4).sample(graph.nodes(), 8)
        compatible = sum(len(relation.compatible_with(s)) - 1 for s in sampled)
        assert batch_stats.compatible_pairs == compatible

    def test_source_sampled_statistics_identical(self):
        graph = random_signed_graph(13, num_nodes=50, edge_prob=0.08)
        reference_stats = source_sampled_pair_statistics(
            ReferenceRelation("SPO", graph), 12, seed=21
        )
        csr_stats = source_sampled_pair_statistics(make_relation("SPO", graph), 12, seed=21)
        assert reference_stats.compatible_pairs == csr_stats.compatible_pairs
        assert reference_stats.evaluated_pairs == csr_stats.evaluated_pairs

    def test_csr_backend_on_loader_graph(self, loader_graph):
        reference = ReferenceRelation("SPA", loader_graph)
        csr_relation = make_relation("SPA", loader_graph)
        for node in loader_graph.nodes()[:8]:
            assert reference.compatible_with(node) == csr_relation.compatible_with(node)


# --------------------------------------------------------- direction-optimising


@st.composite
def pull_graphs(draw):
    """Graphs on which some traversal runs a pull level.

    The main component is a star, a complete bipartite graph or a dense
    random graph (every pair minus a random subset, keeping node 0's star so
    it stays connected).  Beside it sit at most one extra one-edge component
    (its two entries never outweigh the main component's last frontier) and
    up to three isolated nodes.  Signs are mixed and the node insertion
    order is shuffled, so dense ids do not follow the structure.
    """
    family = draw(st.sampled_from(["star", "bipartite", "dense"]))
    if family == "star":
        size = draw(st.integers(4, 12))
        pairs = [(0, leaf) for leaf in range(1, size)]
    elif family == "bipartite":
        left, right = draw(st.integers(1, 4)), draw(st.integers(3, 6))
        size = left + right
        pairs = [(u, left + v) for u in range(left) for v in range(right)]
    else:
        size = draw(st.integers(4, 9))
        others = list(itertools.combinations(range(1, size), 2))
        dropped = draw(st.sets(st.sampled_from(others), max_size=len(others) // 3))
        pairs = [(0, v) for v in range(1, size)]
        pairs += [pair for pair in others if pair not in dropped]
    # Without the extra edge the dense family's centre would see nothing
    # left after its first level and never pull.
    if family == "dense" or draw(st.booleans()):
        pairs.append((size, size + 1))
        size += 2
    size += draw(st.integers(0, 3))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(pairs), max_size=len(pairs)))
    nodes = draw(st.permutations(range(size)))
    return SignedGraph.from_edges(
        [(u, v, sign) for (u, v), sign in zip(pairs, signs)], nodes=nodes
    )


@contextmanager
def pull_spies():
    """Record every pull level both per-source kernels run."""
    with mock.patch.object(
        csr_module, "_signed_pull_level", wraps=csr_module._signed_pull_level
    ) as signed, mock.patch.object(
        csr_module, "_pull_level", wraps=csr_module._pull_level
    ) as lengths:
        yield signed, lengths


class TestDirectionOptimisingBFS:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(pull_graphs())
    def test_pull_levels_match_dict_reference(self, graph):
        csr = graph.csr_view()
        with pull_spies() as (signed_pulls, length_pulls):
            for source in graph.nodes():
                expected = signed_bfs(graph, source)
                actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
                assert actual.lengths == expected.lengths
                assert actual.positive_counts == expected.positive_counts
                assert actual.negative_counts == expected.negative_counts
                lengths = CSRLengths(csr, shortest_path_lengths_csr(csr, source))
                assert dict(lengths.items()) == shortest_path_lengths(graph, source)
        assert signed_pulls.call_count > 0
        assert length_pulls.call_count > 0

    def test_path_pulls_only_its_last_level(self):
        """On a 200-node path no level pulls until the frontier's two entries
        face the single entry of the one node left: every traversal pushes
        all its levels but the last, so a long path never pays a pull scan
        per level."""
        graph = SignedGraph.from_edges(
            [(i, i + 1, 1 if i % 3 else -1) for i in range(199)]
        )
        csr = graph.csr_view()
        for source in (0, 57, 100, 199):
            with pull_spies() as (signed_pulls, length_pulls):
                expected = signed_bfs(graph, source)
                actual = signed_bfs_csr(csr, source).to_signed_bfs_result()
                lengths = shortest_path_lengths_csr(csr, source)
            assert actual.lengths == expected.lengths
            assert actual.positive_counts == expected.positive_counts
            assert actual.negative_counts == expected.negative_counts
            last_level = max(expected.lengths.values()) - 1
            for spy in (signed_pulls, length_pulls):
                depths = [call.args[-1] for call in spy.call_args_list]
                assert depths == [last_level], (source, depths)
            assert int(lengths.max()) == last_level + 1

    def test_overflow_guard_trips_on_a_pull_level(self, overflow_ladder):
        graph = overflow_ladder
        csr = graph.csr_view()
        source = csr.index_of("s")
        with pull_spies() as (signed_pulls, _):
            with pytest.raises(OverflowError, match="BFS depth 62"):
                signed_bfs_csr(csr, "s")
        # The guard fires after the pull level that reached t (depth 61 -> 62).
        assert [call.args[-1] for call in signed_pulls.call_args_list] == [61]
        expected = signed_bfs(graph, "s")
        assert expected.counts("t") == (2**61, 0)

        cut = csr_module.WORDPARALLEL_MIN_SOURCES
        others = [csr.index_of((layer, 0)) for layer in range(1, cut)]
        for sources in ([source], [source] + others):
            n = csr.number_of_nodes()
            out = [np.empty((len(sources), n), dtype=dtype) for dtype in (np.int32, np.int64, np.int64)]
            with pytest.raises(OverflowError):
                csr_module.signed_bfs_dense_batch_into(csr, sources, *out)
            tokens = csr_module.signed_bfs_dense_batch_into(
                csr, sources, *out, skip_overflow=True
            )
            assert tokens == [None] + [True] * (len(sources) - 1)
            for row, dense in enumerate(sources[1:], start=1):
                for plane, want in zip(out, csr_module._signed_bfs_arrays(csr, dense)):
                    assert np.array_equal(plane[row], want)

        relation = make_relation("SPO", graph)
        degrees = relation.batch_compatibility_degrees(["s"])
        result = relation.batch_bfs(["s"])[0]
        # The dict fallback's counts, laid onto dense rows of Python ints.
        assert isinstance(result, csr_module.CSRSignedBFSResult)
        assert result.positive_array.dtype == object
        exact = result.to_signed_bfs_result()
        assert exact.positive_counts == expected.positive_counts
        assert exact.negative_counts == expected.negative_counts
        assert exact.lengths == expected.lengths
        assert degrees == [len(relation.compatible_with("s")) - 1]
