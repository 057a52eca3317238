"""Tests for the snapshot store (:mod:`repro.signed.store`), the bitset
helpers, the word-parallel BFS kernels and the loader parse-once cache.

The load-bearing guarantee: a snapshot written to disk and mapped back must
be *bit-identical* to the in-memory index it was built from — same dtypes,
same values, same node order, same generation — so every consumer (the
loader cache, the CLI) can treat the file as the snapshot itself rather than
a lossy export of it.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets import synthetic_signed_network
from repro.signed import NEGATIVE, POSITIVE, SignedGraph
from repro.utils.bitset import (
    WORD_BITS,
    source_bits,
    set_bit_positions,
    words_for,
)

np = pytest.importorskip("numpy")

from repro.signed.csr import (  # noqa: E402  (needs numpy)
    UNREACHABLE,
    WORDPARALLEL_MIN_SOURCES,
    CSRSignedGraph,
    _shortest_path_lengths_array,
    _signed_bfs_arrays,
    multi_source_signed_bfs,
    shortest_path_lengths_dense_batch,
    shortest_path_lengths_dense_batch_into,
    signed_bfs_csr,
    signed_bfs_dense_batch,
    signed_bfs_dense_batch_into,
)
from repro.signed.store import (  # noqa: E402
    MAGIC,
    NODE_TABLE_PICKLE,
    NODE_TABLE_RANGE,
    VERSION,
    _HEADER,
    load_snapshot,
    save_snapshot,
    snapshot_info,
    write_atomically,
)


# --------------------------------------------------------------------- helpers


@st.composite
def random_signed_graphs(draw, min_nodes=1, max_nodes=12, int_nodes=True):
    """Small random signed graphs, with int or string node labels."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    if int_nodes:
        nodes = list(range(num_nodes))
    else:
        nodes = [f"user-{i}" for i in range(num_nodes)]
    graph = SignedGraph()
    for node in nodes:
        graph.add_node(node)
    pairs = [(i, j) for i in range(num_nodes) for j in range(i + 1, num_nodes)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    ) if pairs else []
    signs = draw(
        st.lists(
            st.sampled_from([POSITIVE, NEGATIVE]),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    for (i, j), sign in zip(chosen, signs):
        graph.add_edge(nodes[i], nodes[j], sign)
    return graph


def assert_snapshots_identical(left: CSRSignedGraph, right: CSRSignedGraph):
    """Planes, dtypes, node order and generation all equal."""
    for name in ("indptr", "indices", "signs"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(np.asarray(a), np.asarray(b))
    assert list(left._nodes) == list(right._nodes)
    assert left.generation == right.generation


# ---------------------------------------------------------------------- bitset


class TestBitset:
    def test_size_helpers(self):
        assert words_for(0) == 0
        assert words_for(64) == 1
        assert words_for(65) == 2

    def test_source_bits_and_positions(self):
        bits = source_bits(5)
        assert bits.dtype == np.uint64
        assert [int(b) for b in bits] == [1, 2, 4, 8, 16]
        word = int(bits[0] | bits[2] | bits[4])
        assert set_bit_positions(word) == [0, 2, 4]
        assert set_bit_positions(0) == []
        # The sign bit (position 63) must survive the Python-int round trip.
        assert set_bit_positions(1 << 63) == [63]
        with pytest.raises(ValueError):
            source_bits(WORD_BITS + 1)


# ---------------------------------------------------------------- store format


class TestStoreRoundtrip:
    @given(graph=random_signed_graphs())
    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_int_node_roundtrip(self, graph, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("store") / "g.store")
        csr = CSRSignedGraph.from_signed_graph(graph)
        save_snapshot(csr, path)
        assert_snapshots_identical(csr, load_snapshot(path, mmap=True))
        assert_snapshots_identical(csr, load_snapshot(path, mmap=False))

    @given(graph=random_signed_graphs(int_nodes=False))
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_string_node_roundtrip(self, graph, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("store") / "g.store")
        csr = CSRSignedGraph.from_signed_graph(graph)
        save_snapshot(csr, path)
        loaded = load_snapshot(path, mmap=True)
        assert_snapshots_identical(csr, loaded)
        # The rebuilt index answers the same lookups as the original's.
        for node in graph.nodes():
            assert loaded.index_of(node) == csr.index_of(node)

    def test_synthetic_graph_roundtrip_and_node_table_kinds(self, tmp_path):
        graph, _ = synthetic_signed_network(
            300, average_degree=5.0, negative_fraction=0.3, seed=11
        )
        csr = graph.csr_view()
        path = str(tmp_path / "synthetic.store")
        save_snapshot(csr, path)
        info = snapshot_info(path)
        # Synthetic graphs have dense int nodes: zero-byte range table.
        assert info["node_table_kind"] == "range"
        assert info["node_table_nbytes"] == 0
        assert info["num_nodes"] == 300
        assert info["file_nbytes"] == info["expected_nbytes"]
        assert_snapshots_identical(csr, load_snapshot(path))
        assert_snapshots_identical(csr, CSRSignedGraph.load(path))
        # save() is the method spelling of save_snapshot().
        other = str(tmp_path / "method.store")
        csr.save(other)
        assert Path(other).read_bytes() == Path(path).read_bytes()

    def test_generation_survives(self, tmp_path):
        graph = SignedGraph.from_edges([(0, 1, +1)])
        graph.add_edge(1, 2, -1)
        csr = graph.csr_view()
        assert csr.generation > 0
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        assert load_snapshot(path).generation == csr.generation
        assert snapshot_info(path)["generation"] == csr.generation

    def test_mmap_views_are_readonly_and_file_deletable(self, tmp_path):
        graph, _ = synthetic_signed_network(50, average_degree=4.0, negative_fraction=0.2, seed=5)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        mapped = load_snapshot(path, mmap=True)
        with pytest.raises(ValueError):
            np.asarray(mapped.indices)[0] = 0
        copied = load_snapshot(path, mmap=False)
        os.unlink(path)
        # The copied arrays do not depend on the file; the mapped ones keep
        # the unlinked inode alive (POSIX) so both stay readable.
        assert np.array_equal(np.asarray(copied.indices), np.asarray(mapped.indices))

    def test_to_signed_graph_reparse_is_bit_identical(self, tmp_path):
        """load → to_signed_graph → from_signed_graph reproduces the planes
        exactly (the loader cache depends on this for node-order-sensitive
        downstream results like Zipf skill assignment)."""
        graph, _ = synthetic_signed_network(
            200, average_degree=5.0, negative_fraction=0.25, seed=23
        )
        csr = CSRSignedGraph.from_signed_graph(graph)
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        rebuilt = load_snapshot(path).to_signed_graph()
        assert list(rebuilt.nodes()) == list(graph.nodes())
        assert rebuilt.number_of_edges() == graph.number_of_edges()
        assert rebuilt.number_of_positive_edges() == graph.number_of_positive_edges()
        # The rebuilt graph starts a fresh mutation history (generation 0),
        # but its planes reproduce the original's bit for bit.
        reindexed = CSRSignedGraph.from_signed_graph(rebuilt)
        for name in ("indptr", "indices", "signs"):
            assert np.array_equal(
                np.asarray(getattr(csr, name)), np.asarray(getattr(reindexed, name))
            )
        assert list(reindexed._nodes) == list(csr._nodes)


class TestStoreDiagnostics:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(str(tmp_path / "nope.store"))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.store"
        path.write_bytes(b"NOTASTORE" + b"\0" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            load_snapshot(str(path))
        with pytest.raises(ValueError, match="bad magic"):
            snapshot_info(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.store"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(ValueError, match="truncated header"):
            load_snapshot(str(path))

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "future.store"
        path.write_bytes(
            _HEADER.pack(MAGIC, VERSION + 1, NODE_TABLE_RANGE, 0, 0, 0, 0)
        )
        with pytest.raises(ValueError, match=f"version {VERSION + 1}"):
            load_snapshot(str(path))

    def test_unknown_node_table_kind(self, tmp_path):
        path = tmp_path / "kind.store"
        path.write_bytes(_HEADER.pack(MAGIC, VERSION, 7, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="unknown node-table kind"):
            load_snapshot(str(path))

    def test_negative_plane_size(self, tmp_path):
        path = tmp_path / "negative.store"
        path.write_bytes(
            _HEADER.pack(MAGIC, VERSION, NODE_TABLE_RANGE, -1, 0, 0, 0)
        )
        with pytest.raises(ValueError, match="negative plane size"):
            load_snapshot(str(path))

    def test_truncated_planes(self, tmp_path):
        graph, _ = synthetic_signed_network(40, average_degree=4.0, negative_fraction=0.2, seed=3)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)

    def test_int64_header_fields_round_trip(self, tmp_path):
        """Counts beyond int32 fit the header (the i8 fields are what lets a
        billion-edge snapshot describe itself); the load then fails on size,
        not on a silently wrapped count."""
        path = tmp_path / "huge.store"
        huge = 2**40
        path.write_bytes(
            _HEADER.pack(MAGIC, VERSION, NODE_TABLE_RANGE, huge, huge, 0, 0)
        )
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(str(path))
        # snapshot_info reads the header only, so it reports the layout.
        info = snapshot_info(str(path))
        assert info["num_nodes"] == huge
        assert info["expected_nbytes"] > huge * 8

    def test_save_failure_cleans_temp_file(self, tmp_path, monkeypatch):
        graph, _ = synthetic_signed_network(30, average_degree=3.0, negative_fraction=0.2, seed=2)
        path = str(tmp_path / "g.store")

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="disk full"):
            save_snapshot(graph.csr_view(), path)
        assert not os.path.exists(path)
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []

    @pytest.mark.parametrize("error", (OSError, KeyboardInterrupt))
    def test_failing_write_leaves_no_temp_file(self, tmp_path, error):
        path = str(tmp_path / "g.store")

        def half_write(handle):
            handle.write(b"half-written")
            raise error("cut off")

        with pytest.raises(error, match="cut off"):
            write_atomically(path, half_write)
        assert os.listdir(tmp_path) == []

    def test_save_is_atomic_over_existing_file(self, tmp_path, monkeypatch):
        graph, _ = synthetic_signed_network(30, average_degree=3.0, negative_fraction=0.2, seed=2)
        path = str(tmp_path / "g.store")
        save_snapshot(graph.csr_view(), path)
        before = Path(path).read_bytes()
        monkeypatch.setattr(os, "fsync", lambda fd: (_ for _ in ()).throw(OSError()))
        with pytest.raises(OSError):
            save_snapshot(graph.csr_view(), path)
        # The failed rewrite left the original file untouched.
        assert Path(path).read_bytes() == before


# ------------------------------------------------------------ compatibility


class TestStoreCompatibility:
    """Files written by earlier releases keep loading bit-identically."""

    @staticmethod
    def _graph(seed=31):
        graph, _ = synthetic_signed_network(
            120, average_degree=4.0, negative_fraction=0.25, seed=seed
        )
        return graph

    def test_version1_file_still_loads(self, tmp_path):
        """A v2 file patched to version 1 reads unchanged — exactly the bytes
        an old library version wrote."""
        csr = self._graph().csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        data = bytearray(Path(path).read_bytes())
        fields = list(_HEADER.unpack_from(data))
        assert fields[1] == VERSION
        fields[1] = 1
        data[: _HEADER.size] = _HEADER.pack(*fields)
        Path(path).write_bytes(bytes(data))
        assert snapshot_info(path)["version"] == 1
        assert_snapshots_identical(csr, load_snapshot(path))

    @pytest.mark.parametrize("string_nodes", [False, True])
    def test_trailing_bytes_past_node_table_are_ignored(self, tmp_path, string_nodes):
        """Earlier releases could append an 8-aligned trailing section (magic
        plus a 6-word header, then planes) after the node table; such files
        load exactly like the base snapshot."""
        graph = self._graph()
        if string_nodes:
            graph = SignedGraph.from_edges(
                (f"n{u}", f"n{v}", sign) for u, v, sign in graph.edge_triples()
            )
        csr = graph.csr_view()
        path = str(tmp_path / "g.store")
        save_snapshot(csr, path)
        expected = snapshot_info(path)["expected_nbytes"]
        with open(path, "ab") as handle:
            handle.write(b"\0" * (-expected % 8))
            handle.write(b"RPROLBL1" + b"\0" * 48)
        for mmap in (True, False):
            assert_snapshots_identical(csr, load_snapshot(path, mmap=mmap))
        info = snapshot_info(path)
        assert info["expected_nbytes"] == expected
        assert info["file_nbytes"] > info["expected_nbytes"]
        assert "labels" not in info


# ------------------------------------------------------------- word parallel


@pytest.fixture(scope="module")
def wp_graph():
    graph, _ = synthetic_signed_network(
        400, average_degree=5.0, negative_fraction=0.3, seed=41
    )
    return graph.csr_view()


@pytest.fixture(scope="module")
def wp_large_graph():
    graph, _ = synthetic_signed_network(
        5000, average_degree=4.0, negative_fraction=0.3, seed=43
    )
    return graph.csr_view()


@pytest.fixture(scope="module")
def ladder():
    """A doubling ladder whose shortest-path counts pass int64, with three
    dense sources: both ends overflow, the middle rung does not."""
    edges = []
    previous = ["s"]
    for layer in range(66):
        current = [(layer, 0), (layer, 1)]
        for node in current:
            for parent in previous:
                edges.append((parent, node, +1))
        previous = current
    csr = SignedGraph.from_edges(edges).csr_view()
    return csr, [csr.index_of("s"), csr.index_of((33, 0)), csr.index_of((65, 0))]


def _reference_triple(csr, source):
    """Per-source Algorithm 1, or ``None`` where its counts overflow int64."""
    try:
        return _signed_bfs_arrays(csr, source)
    except OverflowError:
        return None


class TestWordParallelKernels:
    """Word-parallel batches must be bit-identical to the per-source
    reference across word boundaries (more than 64 sources), plus strategy
    selection and overflow handling (the full batch-size sweep lives in
    ``tests/test_csr.py``)."""

    SOURCES = 150  # three words: 64 + 64 + 22

    def test_signed_bfs_batch_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        batch = signed_bfs_dense_batch(wp_graph, sources)
        assert len(batch) == self.SOURCES
        for source, got in zip(sources, batch):
            for a, b in zip(got, _signed_bfs_arrays(wp_graph, source)):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_signed_bfs_into_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        n = wp_graph.number_of_nodes()
        out = [
            np.empty((self.SOURCES, n), dtype=dtype)
            for dtype in (np.int32, np.int64, np.int64)
        ]
        tokens = signed_bfs_dense_batch_into(wp_graph, sources, *out)
        assert tokens == [True] * self.SOURCES
        for row, source in enumerate(sources):
            for plane, want in zip(out, _signed_bfs_arrays(wp_graph, source)):
                assert np.array_equal(plane[row], want)

    def test_path_lengths_batch_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        batch = shortest_path_lengths_dense_batch(wp_graph, sources)
        assert len(batch) == self.SOURCES
        for source, got in zip(sources, batch):
            want = _shortest_path_lengths_array(wp_graph, source)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_path_lengths_into_identical(self, wp_graph):
        sources = list(range(self.SOURCES))
        out = np.empty((self.SOURCES, wp_graph.number_of_nodes()), dtype=np.int32)
        shortest_path_lengths_dense_batch_into(wp_graph, sources, out)
        for row, source in enumerate(sources):
            assert np.array_equal(
                out[row], _shortest_path_lengths_array(wp_graph, source)
            )

    def test_noncontiguous_output_rows(self, wp_graph):
        """Word-parallel writes go row-by-row, so strided output views (a
        row block that belongs to a larger allocation) work too."""
        sources = list(range(70))
        backing = np.empty((140, wp_graph.number_of_nodes()), dtype=np.int32)
        view = backing[::2]
        shortest_path_lengths_dense_batch_into(wp_graph, sources, view)
        for row, source in enumerate(sources):
            assert np.array_equal(
                view[row], _shortest_path_lengths_array(wp_graph, source)
            )

    def test_disconnected_sources_unreachable_marker(self):
        graph = SignedGraph.from_edges([(0, 1, +1), (2, 3, -1)])
        for node in range(4, 70):
            graph.add_node(node)
        csr = graph.csr_view()
        sources = list(range(csr.number_of_nodes()))
        batch = shortest_path_lengths_dense_batch(csr, sources)
        for source, lengths in zip(sources, batch):
            assert np.array_equal(lengths, _shortest_path_lengths_array(csr, source))
        assert batch[0][2] == UNREACHABLE

    def test_adaptive_heuristic_engages_above_threshold(
        self, wp_graph, wp_large_graph, monkeypatch
    ):
        """Batch size alone picks the strategy, on either side of 4096 nodes:
        words under WORDPARALLEL_MIN_SOURCES sources run per source, larger
        words run word-parallel."""
        import repro.signed.csr as csr_module

        cut = csr_module.WORDPARALLEL_MIN_SOURCES

        calls = []
        for name in ("_wordparallel_path_lengths_into", "_wordparallel_signed_bfs_into"):
            original = getattr(csr_module, name)

            def recording(csr, word, *out, _original=original):
                calls.append(len(word))
                return _original(csr, word, *out)

            monkeypatch.setattr(csr_module, name, recording)
        for csr in (wp_graph, wp_large_graph):
            for batch in (shortest_path_lengths_dense_batch, signed_bfs_dense_batch):
                for k, expected in ((cut - 1, []), (cut, [cut]), (100, [64, 36])):
                    calls.clear()
                    batch(csr, list(range(k)))
                    assert calls == expected, (len(csr), batch.__name__, k)

    def test_overflow_falls_back_per_source(self, ladder):
        """A doubling ladder pushes shortest-path counts past int64 inside
        the word-parallel kernel; the word must re-run per source and land
        on the identical skip/raise behaviour as the reference."""
        csr, ladder_sources = ladder
        # Repeat the three sources until they fill a word-parallel word.
        repeat = -(-WORDPARALLEL_MIN_SOURCES // len(ladder_sources))
        sources = ladder_sources * repeat
        with pytest.raises(OverflowError):
            signed_bfs_dense_batch(csr, sources)
        batch = signed_bfs_dense_batch(csr, sources, skip_overflow=True)
        reference = [_reference_triple(csr, source) for source in sources]
        assert [r is None for r in batch] == [r is None for r in reference]
        assert [r is None for r in reference] == [True, False, True] * repeat
        for got, want in zip(batch, reference):
            if want is None:
                continue
            for a, b in zip(got, want):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("repeat", (1, 22))
    def test_overflow_tokens_into_buffers(self, ladder, repeat):
        """The ``_into`` form marks exactly the reference's overflowing rows
        ``None`` and fills every other row, whether the ladder's sources run
        per source (3 sources, under the word-parallel cut-over) or as a full
        word-parallel word plus a per-source remainder (66 sources)."""
        csr, ladder_sources = ladder
        sources = ladder_sources * repeat
        k, n = len(sources), csr.number_of_nodes()
        out = [np.empty((k, n), dtype=dtype) for dtype in (np.int32, np.int64, np.int64)]
        with pytest.raises(OverflowError):
            signed_bfs_dense_batch_into(csr, sources, *out)
        tokens = signed_bfs_dense_batch_into(csr, sources, *out, skip_overflow=True)
        reference = [_reference_triple(csr, source) for source in sources]
        assert tokens == [None if want is None else True for want in reference]
        for row, want in enumerate(reference):
            if want is None:
                continue
            for plane, values in zip(out, want):
                assert np.array_equal(plane[row], values)

    def test_multi_source_wrapper_unaffected(self, wp_graph):
        """The node-keyed wrapper sits above the dense batch and must agree
        with the per-node reference regardless of the kernel choice."""
        nodes = [wp_graph._nodes[i] for i in range(20)]
        results = multi_source_signed_bfs(wp_graph, nodes)
        assert len(results) == len(nodes)
        for node, result in zip(nodes, results):
            reference = signed_bfs_csr(wp_graph, node)
            assert np.array_equal(result.lengths_array, reference.lengths_array)
            assert np.array_equal(result.positive_array, reference.positive_array)


# ----------------------------------------------------------------- loader cache


class TestLoaderCache:
    @pytest.fixture()
    def edge_file(self, tmp_path):
        import random

        rng = random.Random(77)
        lines = ["# synthetic edge list"]
        for _ in range(600):
            u, v = rng.randrange(120), rng.randrange(120)
            if u != v:
                lines.append(f"{u}\t{v}\t{rng.choice(['1', '-1'])}")
        path = tmp_path / "edges.txt"
        path.write_text("\n".join(lines))
        return path

    @staticmethod
    def _signature(dataset):
        graph = dataset.graph
        return (
            list(graph.nodes()),
            sorted((min(e.u, e.v), max(e.u, e.v), e.sign) for e in graph.edges()),
            {u: sorted(map(str, dataset.skills.skills_of(u))) for u in graph.nodes()},
        )

    def test_hit_is_bit_identical_to_cold_parse(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        cold = load_snap_dataset("t", edge_file, seed=9)
        miss = load_snap_dataset("t", edge_file, seed=9, snapshot_cache_dir=cache)
        assert len(list(cache.glob("parse-*.store"))) == 1
        hit = load_snap_dataset("t", edge_file, seed=9, snapshot_cache_dir=cache)
        assert (
            self._signature(cold) == self._signature(miss) == self._signature(hit)
        )

    def test_source_edit_invalidates(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        load_snap_dataset("t", edge_file, snapshot_cache_dir=cache)
        stat = edge_file.stat()
        edge_file.write_text(edge_file.read_text() + "\n0\t1\t1")
        os.utime(
            edge_file, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000_000)
        )
        load_snap_dataset("t", edge_file, snapshot_cache_dir=cache)
        assert len(list(cache.glob("parse-*.store"))) == 2

    def test_parse_options_key_separate_entries(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        full = load_snap_dataset(
            "t", edge_file, snapshot_cache_dir=cache, restrict_to_lcc=False
        )
        lcc = load_snap_dataset(
            "t", edge_file, snapshot_cache_dir=cache, restrict_to_lcc=True
        )
        assert len(list(cache.glob("parse-*.store"))) == 2
        assert full.graph.number_of_nodes() >= lcc.graph.number_of_nodes()

    def test_skill_parameters_share_one_entry(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        load_snap_dataset("t", edge_file, seed=1, snapshot_cache_dir=cache)
        load_snap_dataset(
            "t", edge_file, seed=2, num_synthetic_skills=50, snapshot_cache_dir=cache
        )
        assert len(list(cache.glob("parse-*.store"))) == 1

    def test_env_var_enables_cache(self, edge_file, tmp_path, monkeypatch):
        from repro.datasets.loaders import SNAPSHOT_CACHE_ENV, load_snap_dataset

        cache = tmp_path / "envcache"
        monkeypatch.setenv(SNAPSHOT_CACHE_ENV, str(cache))
        first = load_snap_dataset("t", edge_file, seed=4)
        assert len(list(cache.glob("parse-*.store"))) == 1
        second = load_snap_dataset("t", edge_file, seed=4)
        assert self._signature(first) == self._signature(second)

    def test_corrupt_entry_falls_back_to_parse(self, edge_file, tmp_path):
        from repro.datasets.loaders import load_snap_dataset

        cache = tmp_path / "cache"
        cold = load_snap_dataset("t", edge_file, seed=6)
        load_snap_dataset("t", edge_file, seed=6, snapshot_cache_dir=cache)
        (entry,) = cache.glob("parse-*.store")
        entry.write_bytes(b"garbage")
        recovered = load_snap_dataset(
            "t", edge_file, seed=6, snapshot_cache_dir=cache
        )
        assert self._signature(cold) == self._signature(recovered)
        # The bad entry was rewritten as a valid store file.
        assert snapshot_info(str(entry))["num_nodes"] > 0

    def test_no_cache_dir_means_no_files(self, edge_file, tmp_path, monkeypatch):
        from repro.datasets.loaders import SNAPSHOT_CACHE_ENV, load_snap_dataset

        monkeypatch.delenv(SNAPSHOT_CACHE_ENV, raising=False)
        load_snap_dataset("t", edge_file)
        assert list(tmp_path.glob("**/*.store")) == []
