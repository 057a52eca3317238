"""SPO's positive-path presence traversal and the caches that hold its results.

A presence row says, per (source, node), whether some shortest path is
positive and whether some is negative — exactly ``counts > 0`` of Algorithm
1 — next to the same BFS lengths.  SPO (Definition 3.3) needs nothing more,
so its batched misses run the presence traversal in words of at least
``PRESENCE_MIN_SOURCES`` sources, and the SPA and SPO degree sweeps reduce
its planes to two ints per source.  These tests pin the rows and degrees
against the per-source counting kernel, the answers against fresh relations
and the reference, and the separation of the presence cache from every
counts reader.
"""

from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.signed.csr as csr_module
from repro.compatibility import CompatibilityEngine, DistanceOracle, make_relation
from repro.compatibility.shortest_path import (
    MajorityShortestPathsCompatibility,
    dense_degree_triple,
)
from repro.datasets import synthetic_signed_network
from repro.signed import SignedGraph
from repro.signed.csr import (
    PRESENCE_MIN_SOURCES,
    PRESENCE_ROW,
    CSRSignedBFSResult,
    PresenceRows,
    _signed_bfs_arrays,
    presence_degrees,
    signed_bfs_dense_batch,
    signed_bfs_dense_batch_into,
)

from reference import ReferenceRelation

SHORTEST_PATH = ("SPA", "SPM", "SPO")


def _graph(num_nodes=90, seed=31):
    graph, _ = synthetic_signed_network(
        num_nodes, average_degree=4.0, negative_fraction=0.3, seed=seed
    )
    return graph


@st.composite
def presence_words(draw):
    """A small signed graph — isolated nodes and several components likely —
    and a word of 1..64 dense sources, repeats allowed."""
    num_nodes = draw(st.integers(min_value=1, max_value=40))
    pairs = list(itertools.combinations(range(num_nodes), 2))
    chosen = draw(
        st.lists(st.sampled_from(pairs), max_size=90, unique=True) if pairs else st.just([])
    )
    edges = [(u, v, draw(st.sampled_from((1, -1)))) for u, v in chosen]
    graph = SignedGraph.from_edges(edges, nodes=range(num_nodes))
    sources = draw(
        st.lists(st.integers(min_value=0, max_value=num_nodes - 1), min_size=1, max_size=64)
    )
    return graph, sources


#: Entries per presence step: tiny ones split every level of a small graph,
#: the module's own keeps each level whole.
slice_sizes = st.sampled_from((1, 3, csr_module.PRESENCE_SLICE_ENTRIES))


class TestPresenceRows:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(presence_words(), slice_sizes)
    def test_rows_equal_counts_above_zero(self, word, slice_entries):
        graph, sources = word
        csr = graph.csr_view()
        k, n = len(sources), csr.number_of_nodes()
        # A strided layout, as a row slice of a larger block would be.
        lengths = np.full((2 * k, n), -7, dtype=np.int32)[::2]
        positive = np.full((2 * k, n), -7, dtype=np.int64)[::2]
        negative = np.full((2 * k, n), -7, dtype=np.int64)[::2]
        with patch.object(csr_module, "PRESENCE_SLICE_ENTRIES", slice_entries):
            csr_module._wordparallel_presence_into(csr, sources, lengths, positive, negative)
        for row, source in enumerate(sources):
            want_lengths, want_positive, want_negative = _signed_bfs_arrays(csr, source)
            assert np.array_equal(lengths[row], want_lengths)
            assert np.array_equal(positive[row], (want_positive > 0).astype(np.int64))
            assert np.array_equal(negative[row], (want_negative > 0).astype(np.int64))

    @pytest.mark.parametrize("k", (1, PRESENCE_MIN_SOURCES - 1, PRESENCE_MIN_SOURCES, 64, 70))
    def test_batch_tokens_and_row_types(self, k):
        csr = _graph().csr_view()
        sources = [(3 * i) % csr.number_of_nodes() for i in range(k)]
        n = csr.number_of_nodes()
        out = [np.empty((k, n), dtype=dtype) for dtype in (np.int32, np.int64, np.int64)]
        tokens = signed_bfs_dense_batch_into(csr, sources, *out, presence=True)
        results = signed_bfs_dense_batch(csr, sources, presence=True)
        words = [sources[start : start + 64] for start in range(0, k, 64)]
        expected = [
            PRESENCE_ROW if len(word) >= PRESENCE_MIN_SOURCES else True
            for word in words
            for _ in word
        ]
        assert tokens == expected
        assert signed_bfs_dense_batch_into(csr, sources, *out) == [True] * k
        for token, source, result in zip(expected, sources, results):
            assert isinstance(result, PresenceRows) == (token == PRESENCE_ROW)
            want = _signed_bfs_arrays(csr, source)
            assert np.array_equal(result[0], want[0])
            if token == PRESENCE_ROW:
                assert result[1].dtype == result[2].dtype == np.bool_
                assert np.array_equal(result[1], want[1] > 0)
                assert np.array_equal(result[2], want[2] > 0)
            else:
                assert np.array_equal(result[1], want[1])
                assert np.array_equal(result[2], want[2])

    def test_presence_result_refuses_counts(self):
        graph = _graph()
        relation = make_relation("SPO", graph)
        nodes = graph.nodes()
        result = relation.batch_bfs(nodes[:PRESENCE_MIN_SOURCES])[0]
        assert isinstance(result, CSRSignedBFSResult) and result.presence
        with pytest.raises(ValueError, match="presence"):
            result.counts(nodes[1])
        with pytest.raises(ValueError, match="presence"):
            result.to_signed_bfs_result()
        reference = csr_module.signed_bfs_csr(graph.csr_view(), nodes[0])
        for node in nodes:
            assert result.length(node) == reference.length(node)
            assert result.has_positive_path(node) == (reference.counts(node)[0] > 0)


class TestPresenceDegrees:
    """``presence_degrees`` reduces the presence planes to ``(spa, spo)``
    per source, whatever the size of the steps a level is gathered in."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(presence_words(), slice_sizes)
    def test_degrees_equal_counted_slots(self, word, slice_entries):
        graph, sources = word
        csr = graph.csr_view()
        with patch.object(csr_module, "PRESENCE_SLICE_ENTRIES", slice_entries):
            degrees = presence_degrees(csr, sources)
        for source, pair in zip(sources, degrees):
            spa, _spm, spo = dense_degree_triple(*_signed_bfs_arrays(csr, source), source)
            assert pair == (spa, spo)

    def test_sliced_levels_bound_the_temporaries(self):
        """Small steps keep the reducer's peak allocation to its per-node
        planes plus one step's entries; unsliced it gathers whole levels."""
        graph, _ = synthetic_signed_network(
            5000, average_degree=40.0, negative_fraction=0.3, seed=5
        )
        csr = graph.csr_view()
        n = csr.number_of_nodes()
        sources = list(range(0, n, 79))[:64]
        slice_entries = 2**12
        # About 16 per-node uint64/int64 arrays, the sign mask over every
        # entry, and ~60 bytes per gathered entry of one step.
        budget = 24 * 8 * n + csr.indices.size + 128 * (
            slice_entries + int(csr.degrees().max())
        )

        def peak(entries):
            with patch.object(csr_module, "PRESENCE_SLICE_ENTRIES", entries):
                tracemalloc.start()
                try:
                    degrees = presence_degrees(csr, sources)
                    return tracemalloc.get_traced_memory()[1], degrees
                finally:
                    tracemalloc.stop()

        sliced_peak, sliced = peak(slice_entries)
        whole_peak, whole = peak(csr.indices.size)
        assert sliced == whole
        assert sliced_peak <= budget < whole_peak

    def test_spa_spm_spo_sweeps_equal_reference(self, traversals):
        """SPA's and SPO's sweeps run no counting traversal; SPM's counts
        fill the rest of each memo entry."""
        graph = _graph(80, seed=41)
        graph.add_node("loner")
        nodes = graph.nodes()
        relations = [make_relation(name, graph) for name in SHORTEST_PATH]
        for relation in relations:
            traversals.clear()
            degrees = relation.batch_compatibility_degrees(nodes)
            reference = ReferenceRelation(relation.name, graph)
            assert degrees == [reference.compatibility_degree(u) for u in nodes]
            counted = traversals["signed_bfs_dense_batch"] > 0
            assert counted == (relation.name == "SPM")
        assert all(
            relations[0]._degree_cache.get(u)[1] is not None for u in nodes
        )


def _answers(relation, nodes, sources):
    """Every SPO answer a team query reads, off ``relation``'s results; a
    :class:`ReferenceRelation` answers distances itself."""
    if isinstance(relation, ReferenceRelation):
        distances = [relation.distance_to_set(node, sources[:5]) for node in nodes]
    else:
        distances = DistanceOracle(relation).batch_distance_to_set(nodes, sources[:5])
    return {
        "sets": relation.batch_compatible_sets(sources),
        "counts": relation.batch_count_compatible(sources, nodes[::3]),
        "distances": distances,
        "pairs": [relation.are_compatible(u, v) for u in sources[:6] for v in nodes],
        "degrees": relation.batch_compatibility_degrees(sources[:10]),
    }


class TestPresenceCaches:
    def test_mixed_words_match_reference(self):
        """66 sources: a 64-source presence word plus a 2-source counts
        word."""
        graph = _graph(120, seed=7)
        nodes = graph.nodes()
        sources = random.Random(5).sample(nodes, 66)
        relation = make_relation("SPO", graph.copy())
        kinds = Counter(result.presence for result in relation.batch_bfs(sources))
        assert kinds == {True: 64, False: 2}
        fresh = ReferenceRelation("SPO", graph.copy())
        assert _answers(relation, nodes, sources) == _answers(fresh, nodes, sources)

    def test_spo_after_spa_runs_no_traversal(self, traversals):
        graph = _graph()
        nodes = graph.nodes()
        spa = make_relation("SPA", graph)
        spa.batch_bfs(nodes)
        traversals.clear()
        spo = make_relation("SPO", graph)
        engine = CompatibilityEngine(spo)
        _answers(spo, nodes, nodes[::2])
        engine.compatible_from_many(nodes, nodes[:4])
        engine.distances_to_team_many(nodes, nodes[4:9])
        assert sum(traversals.values()) == 0
        assert len(spo._presence_cache) == 0

    def test_spo_first_then_spa_and_spm_match_fresh(self):
        graph = _graph(80, seed=13)
        nodes = graph.nodes()
        sample = nodes[::2]
        spo = make_relation("SPO", graph)
        spo.batch_bfs(sample)
        assert len(spo._presence_cache) == len(sample)
        for name in SHORTEST_PATH:
            relation = make_relation(name, graph)
            fresh = make_relation(name, graph.copy())
            assert relation.batch_compatible_sets(sample) == [
                fresh.compatible_with(u) for u in sample
            ]
            assert relation.batch_compatibility_degrees(sample) == [
                fresh.compatibility_degree(u) for u in sample
            ]
            for u, v in itertools.product(sample[:8], nodes[::5]):
                assert relation.are_compatible(u, v) == fresh.are_compatible(u, v)
        memo = spo._degree_cache
        for source in sample:
            reference = tuple(
                make_relation(name, graph.copy()).compatibility_degree(source)
                for name in SHORTEST_PATH
            )
            assert memo.get(source) == reference
        assert all(not result.presence for _, result in spo._bfs_cache.items())

    def test_spm_engine_never_masks_a_presence_entry(self, monkeypatch):
        graph = _graph(80, seed=19)
        nodes = graph.nodes()
        make_relation("SPO", graph).batch_bfs(nodes)
        rule = MajorityShortestPathsCompatibility._pair_rule_mask
        planes = []

        def recording(positive, negative):
            planes.append(positive.dtype)
            return rule(positive, negative)

        monkeypatch.setattr(
            MajorityShortestPathsCompatibility, "_pair_rule_mask", staticmethod(recording)
        )
        spm = make_relation("SPM", graph)
        engine = CompatibilityEngine(spm)
        fresh = make_relation("SPM", graph.copy())
        for team in (nodes[:3], nodes[10:15], [nodes[40]]):
            expected = frozenset(
                c for c in nodes if c not in team and all(fresh.are_compatible(m, c) for m in team)
            )
            assert engine.compatible_from_many(nodes, team) == expected
        assert np.dtype(np.bool_) not in planes

    def test_churn_invalidates_the_presence_cache(self):
        graph = _graph(60, seed=23)
        spo = make_relation("SPO", graph)
        spo.batch_bfs(graph.nodes())
        presence, counts = spo._presence_cache, spo._bfs_cache
        assert len(presence) == graph.number_of_nodes() and len(counts) == 0
        rng = random.Random(4)
        for u, v, sign in rng.sample(sorted(graph.edge_triples(), key=repr), 4):
            graph.set_sign(u, v, -sign)
        graph.remove_node(rng.choice(graph.nodes()))
        assert len(presence) < graph.number_of_nodes()
        assert presence.invalidations > 0
        nodes = graph.nodes()
        fresh = make_relation("SPO", graph.copy())
        assert spo.batch_compatible_sets(nodes) == [fresh.compatible_with(u) for u in nodes]
        for u, v in itertools.combinations(nodes[::6], 2):
            assert spo.are_compatible(u, v) == fresh.are_compatible(u, v)
        spo.clear_cache()
        assert len(presence) == 0
