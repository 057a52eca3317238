"""CSR-first ingestion: bit-identity with the dict parser, the lazy facade,
the ``csr_only`` loader path, label carry-through and the scale helpers.

The load-bearing guarantee is that the vectorised path is *bit-identical* to
the reference dict pipeline — same node order, same CSR planes, same skills —
or it declines (returns ``None``) and the caller falls back to the dict
parser.  Anything in between would silently change experiment results.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.compatibility import CompatibilityEngine, DistanceOracle, make_relation
from repro.datasets import (
    cache_stats,
    load_snap_dataset,
    million_scale_dataset,
    reset_cache_stats,
    synthetic_csr_network,
)
from repro.exceptions import EdgeNotFoundError, NodeNotFoundError
from repro.signed import (
    CSRSignedGraph,
    SignedGraph,
    as_signed_graph,
    parse_edge_list_csr,
)
from repro.signed import ingest
from repro.signed.components import connected_components, largest_connected_component
from repro.signed.io import read_edge_list
from repro.signed.ingest import (
    _group_keys,
    component_labels,
    csr_from_edge_arrays,
    largest_component_members,
    read_edge_arrays,
    read_edge_tokens,
)
from repro.skills import assign_skills_zipf
from repro.signed.lazy import CSRBackedSignedGraph
from repro.utils.timing import measure_peak_rss, peak_rss_bytes

POLICIES = ("keep_first", "negative_wins")


def write_edges(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


def random_edge_lines(seed, num_nodes=40, num_lines=160):
    """Messy but vectorisable edge lines: duplicates, reversals, self-loops."""
    rng = random.Random(seed)
    lines = []
    for _ in range(num_lines):
        u = rng.randrange(num_nodes)
        v = rng.randrange(num_nodes)
        sign = rng.choice((1, -1))
        lines.append(f"{u} {v} {sign}")
        if rng.random() < 0.25:  # reciprocal edge, possibly conflicting
            lines.append(f"{v} {u} {rng.choice((1, -1))}")
    return lines


def dict_reference(path, policy="keep_first", lcc=False):
    """The reference parse: dict pipeline, optionally LCC-restricted."""
    graph = read_edge_list(path, directed_to_undirected=policy)
    return largest_connected_component(graph) if lcc else graph


def assert_csr_equal(left: CSRSignedGraph, right: CSRSignedGraph):
    assert left._nodes == right._nodes
    assert np.array_equal(left.indptr, right.indptr)
    assert np.array_equal(left.indices, right.indices)
    assert np.array_equal(left.signs, right.signs)


def _chunk_bytes(lines):
    return ("\n".join(lines) + "\n").encode("ascii")


def assert_spans_match_reference(chunk: bytes):
    """``_data_line_spans`` on ``chunk`` against a line-by-line reference:
    the same data-line spans, and exactly the comment lines blanked."""
    translated = chunk.translate(ingest._SPACE_TRANS)
    expected = bytearray(translated)
    starts, ends = [], []
    position = 0
    for line in translated.split(b"\n"):
        end = position + len(line)
        stripped = line.lstrip(b" ")
        if stripped[:1] in (b"#", b"%"):
            expected[position:end] = b" " * len(line)
        elif stripped:
            starts.append(position)
            ends.append(end)
        position = end + 1
    arr, got_starts, got_ends = ingest._data_line_spans(
        np.frombuffer(translated, dtype=np.uint8)
    )
    assert got_starts.tolist() == starts
    assert got_ends.tolist() == ends
    assert arr.tobytes() == bytes(expected)


class TestVectorisedParseEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("lcc", (False, True))
    def test_random_edge_lists_bit_identical(self, tmp_path, policy, lcc):
        for seed in range(6):
            path = write_edges(tmp_path / f"r{seed}.edges", random_edge_lines(seed))
            reference = dict_reference(path, policy, lcc)
            vectorised = parse_edge_list_csr(
                path, directed_to_undirected=policy, restrict_to_lcc=lcc
            )
            assert vectorised is not None
            assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))

    def test_comments_separators_and_blank_lines(self, tmp_path):
        path = write_edges(
            tmp_path / "messy.edges",
            [
                "# a comment",
                "",
                "1\t2\t1",
                "2,3,-1",
                "   % another comment",
                "3 1 +1",
                "  4 1 -1  ",
            ],
        )
        reference = dict_reference(path)
        vectorised = parse_edge_list_csr(path)
        assert vectorised is not None
        assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))

    @pytest.mark.parametrize("chunk_bytes", (64, 257, 4096, ingest.CHUNK_BYTES))
    def test_many_comment_lines(self, tmp_path, chunk_bytes):
        lines = []
        for i in range(3000):
            lines.append(f"{i % 97} {(i * 7) % 89} {1 if i % 3 else -1}")
            if i % 2:
                lines.append(("#", "%", "  #", "\t%")[i % 4] + f" note {i} 1 2 -1")
        path = write_edges(tmp_path / "comments.edges", lines)
        vectorised = parse_edge_list_csr(path, chunk_bytes=chunk_bytes)
        assert vectorised is not None
        assert_csr_equal(
            vectorised, CSRSignedGraph.from_signed_graph(dict_reference(path))
        )

    def test_blank_then_comment_lines(self, tmp_path):
        lines = []
        for i in range(400):
            lines += ["", "   ", "# after blank", "\t", "%%", f"{i} {i + 1} -1"]
            lines += ["", f" # {i}", "#", f"{i + 2} {i} 1", "  ", "%"]
        path = write_edges(tmp_path / "blank.edges", lines)
        reference = CSRSignedGraph.from_signed_graph(dict_reference(path))
        for chunk_bytes in (16, 100, ingest.CHUNK_BYTES):
            vectorised = parse_edge_list_csr(path, chunk_bytes=chunk_bytes)
            assert vectorised is not None
            assert_csr_equal(vectorised, reference)

    def test_one_comment_in_a_large_chunk(self, tmp_path):
        lines = [f"{i % 5000} {(i * 13) % 4999} {1 if i % 4 else -1}" for i in range(300_000)]
        lines[150_000] = "  # the only comment 1 2 -1"
        chunk = _chunk_bytes(lines)
        assert ingest.CHUNK_BYTES // 2 < len(chunk) <= ingest.CHUNK_BYTES
        assert_spans_match_reference(chunk)
        path = write_edges(tmp_path / "one-comment.edges", lines)
        vectorised = parse_edge_list_csr(path)
        assert vectorised is not None
        assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(dict_reference(path)))

    def test_one_comment_costs_no_per_byte_temporaries(self):
        """Blanking one comment line allocates at most the chunk copy on top
        of what a comment-free chunk of the same size needs."""
        import tracemalloc

        lines = [f"{i} {i + 1} -1" for i in range(300_000)]
        plain = _chunk_bytes(lines)
        lines[1_000] = "# one comment"
        commented = _chunk_bytes(lines)
        peaks = []
        for chunk in (plain, commented):
            arr = np.frombuffer(chunk.translate(ingest._SPACE_TRANS), dtype=np.uint8)
            tracemalloc.start()
            try:
                ingest._data_line_spans(arr)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2 * len(commented)

    @pytest.mark.parametrize("every", (1, 2, 7))
    def test_many_comments_match_line_reference(self, every):
        lines = []
        for i in range(5_000):
            lines.append(f"{i} {i + 3} {1 if i % 3 else -1}")
            if i % every == 0:
                lines.append(("#", "%", "  #", "\t%", ",#")[i % 5] + f" note {i} 1 2 -1")
        assert_spans_match_reference(_chunk_bytes(lines))

    def test_comment_then_blank_lines_match_line_reference(self):
        lines = []
        for i in range(500):
            lines += ["# first", "", "   ", "%%", "\t", f"{i} {i + 1} 1"]
            lines += [" # again", "", "#", ",", f"{i + 2} {i} -1", "%"]
        lines += ["# trailing comment", ""]
        assert_spans_match_reference(_chunk_bytes(lines))

    @pytest.mark.parametrize("policy", ("keep_first", "negative_wins", "error"))
    def test_labels_near_int64_limits_bit_identical(self, tmp_path, policy):
        rng = random.Random(11)
        # 18-digit labels still take the integer scanner; their span forces
        # the wide-key grouping.  The 2**62 labels are 19 digits, so the file
        # goes through token mode, and the raw columns hit the wide branch.
        for name, pool in (
            ("digits18", [sign * (10**18 - 1 - k) for sign in (1, -1) for k in range(6)]),
            ("pow62", [sign * 2**62 + k for sign in (1, -1) for k in range(-3, 3)]),
        ):
            pair_sign = {}
            edges = []
            for _ in range(120):
                u, v = rng.choice(pool), rng.choice(pool)
                sign = rng.choice((1, -1))
                if policy == "error":
                    sign = pair_sign.setdefault(frozenset((u, v)), sign)
                edges.append((u, v, sign))
            path = write_edges(
                tmp_path / f"{name}.edges", [f"{u} {v} {s}" for u, v, s in edges]
            )
            reference = CSRSignedGraph.from_signed_graph(dict_reference(path, policy))
            vectorised = parse_edge_list_csr(path, directed_to_undirected=policy)
            assert vectorised is not None
            assert_csr_equal(vectorised, reference)
            u, v, s = (np.array(column, dtype=np.int64) for column in zip(*edges))
            direct = csr_from_edge_arrays(u, v, s, directed_to_undirected=policy)
            assert_csr_equal(direct, reference)

    def test_tied_components_break_like_dict_path(self, tmp_path):
        # 12 000 two-node components, all tied on size: the winner is the one
        # holding the smallest repr, wherever it sits in the file.
        rng = random.Random(3)
        labels = rng.sample(range(10**6), 24_000)
        path = write_edges(
            tmp_path / "matching.edges",
            [f"{labels[2 * i]} {labels[2 * i + 1]} 1" for i in range(12_000)],
        )
        reference = dict_reference(path, lcc=True)
        vectorised = parse_edge_list_csr(path, restrict_to_lcc=True)
        assert vectorised is not None
        assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))
        assert vectorised._nodes == [
            node for node in labels if node in connected_components(reference)[0]
        ]

    def test_tied_components_with_equal_reprs_pick_the_smallest_root(self):
        # Distinct nodes can share a repr; the earliest root then wins, as the
        # per-root minimum over ascending roots did.
        class Alias:
            def __init__(self, text):
                self.text = text

            def __repr__(self):
                return self.text

        nodes = [Alias("b"), Alias("a"), Alias("c"), Alias("a")]
        labels = np.array([0, 0, 2, 2])
        assert largest_component_members(labels, nodes).tolist() == [0, 1]

    def test_empty_and_comment_only_files(self, tmp_path):
        for name, text in (("empty.edges", ""), ("comments.edges", "# nothing\n")):
            path = tmp_path / name
            path.write_text(text, encoding="ascii")
            vectorised = parse_edge_list_csr(path)
            assert vectorised is not None
            assert vectorised.number_of_nodes() == 0
            assert vectorised.number_of_edges() == 0

    @pytest.mark.parametrize(
        "line",
        [
            "1 2 01",  # "01" is not a valid sign token to the dict parser
            "01 2 1",  # int("01") == int("1"): non-bijective label coercion
            "1 2",  # missing sign column
            "1 2 2",  # sign outside ±1
            "a b",  # short line in token mode
            "1_0 2 1",  # underscore int literal: int("1_0") == 10
        ],
    )
    def test_unsupported_inputs_fall_back(self, tmp_path, line):
        path = write_edges(tmp_path / "odd.edges", ["1 2 1", line])
        assert parse_edge_list_csr(path) is None

    @pytest.mark.parametrize(
        "lines",
        [
            ["a b 1", "b c -1"],  # string labels via the token-mode scanner
            ["1 2 +", "2 3 -"],  # bare sign characters
            ["1 2 1 3", "2 3 -1 weight"],  # extra columns (dict takes first 3)
            ["1 12345678901234567890 1"],  # >int64 but canonical decimal
            ["1-2 3 1"],  # glued sign: a string label to both parsers
        ],
    )
    def test_token_mode_inputs_match_dict_parser(self, tmp_path, lines):
        path = write_edges(tmp_path / "tok.edges", ["1 2 1"] + lines)
        vectorised = parse_edge_list_csr(path)
        assert vectorised is not None
        assert_csr_equal(
            vectorised, CSRSignedGraph.from_signed_graph(dict_reference(path))
        )

    def test_error_policy_conflict_falls_back(self, tmp_path):
        path = write_edges(tmp_path / "conflict.edges", ["1 2 1", "2 1 -1"])
        assert parse_edge_list_csr(path, directed_to_undirected="error") is None
        # ... and without a conflict the error policy vectorises fine.
        clean = write_edges(tmp_path / "clean.edges", ["1 2 1", "2 3 -1"])
        vectorised = parse_edge_list_csr(clean, directed_to_undirected="error")
        reference = dict_reference(clean, policy="error")
        assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))

    def test_invalid_policy_message_matches_dict_parser(self, tmp_path):
        path = write_edges(tmp_path / "p.edges", ["1 2 1"])
        with pytest.raises(ValueError) as vector_error:
            parse_edge_list_csr(path, directed_to_undirected="bogus")
        with pytest.raises(ValueError) as dict_error:
            read_edge_list(path, directed_to_undirected="bogus")
        assert str(vector_error.value) == str(dict_error.value)

    def test_read_edge_arrays_round_trip(self, tmp_path):
        path = write_edges(tmp_path / "raw.edges", ["0 1 1", "1 2 -1", "2 0 1"])
        u, v, s = read_edge_arrays(path)
        assert u.tolist() == [0, 1, 2]
        assert v.tolist() == [1, 2, 0]
        assert s.tolist() == [1, -1, 1]

    def test_chunk_boundaries_do_not_change_the_result(self, tmp_path):
        path = write_edges(tmp_path / "chunks.edges", random_edge_lines(99))
        whole = parse_edge_list_csr(path)
        for chunk_bytes in (16, 64, 257):
            chunked = parse_edge_list_csr(path, chunk_bytes=chunk_bytes)
            assert chunked is not None
            assert_csr_equal(whole, chunked)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edges=st.lists(
            st.tuples(
                st.integers(0, 12),
                st.integers(0, 12),
                st.sampled_from((1, -1)),
            ),
            max_size=40,
        ),
        policy=st.sampled_from(POLICIES),
        lcc=st.booleans(),
    )
    def test_hypothesis_bit_identity(self, tmp_path, edges, policy, lcc):
        path = write_edges(
            tmp_path / "h.edges", [f"{u} {v} {s}" for u, v, s in edges] or [""]
        )
        reference = dict_reference(path, policy, lcc)
        vectorised = parse_edge_list_csr(
            path, directed_to_undirected=policy, restrict_to_lcc=lcc
        )
        assert vectorised is not None
        assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))


def reference_group_keys(keys, stable=False):
    """The groupings the set-up path used before the packed sort: a stable
    argsort and ``np.unique(return_index=True)`` (``stable`` is accepted only
    to match the helper's signature; this order is always stable)."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.diff(sorted_keys)) + 1
    starts = np.concatenate([np.zeros(min(1, keys.size), dtype=np.int64), starts])
    _, first = np.unique(keys, return_index=True)
    return order, starts, first


def assert_groups_match_unique(keys, stable):
    order, starts, first = _group_keys(keys, stable=stable)
    distinct, first_seen, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    assert first.tolist() == first_seen.tolist()
    assert keys[first].tolist() == distinct.tolist()
    assert sorted(order.tolist()) == list(range(keys.size))
    group_of = np.empty(keys.size, dtype=np.int64)
    group_of[order] = np.repeat(
        np.arange(starts.size), np.diff(starts, append=keys.size)
    )
    assert group_of.tolist() == inverse.ravel().tolist()
    return order


WIDE = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(
    (-(2**63), -(2**62), -(2**62) + 1, 2**62 - 1, 2**62, 2**63 - 1)
)


class TestGroupKeys:
    """The one-sort grouping behind dedupe, plane order and the generators."""

    @settings(max_examples=150, deadline=None)
    @given(
        keys=st.lists(st.integers(-40, 40), max_size=80),
        dtype=st.sampled_from((np.int32, np.int64)),
        stable=st.booleans(),
    )
    def test_packed_branch_matches_unique_and_stable_argsort(self, keys, dtype, stable):
        keys = np.array(keys, dtype=dtype)
        order = assert_groups_match_unique(keys, stable)
        assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(WIDE, max_size=60), stable=st.booleans())
    def test_wide_keys_match_unique(self, keys, stable):
        keys = np.array(keys, dtype=np.int64)
        order = assert_groups_match_unique(keys, stable)
        if stable:
            assert order.tolist() == np.argsort(keys, kind="stable").tolist()

    @pytest.mark.parametrize(
        "keys, falls_back",
        (
            ([], False),
            ([-(2**63)], False),
            ([2**63 - 1], False),
            ([7, -3, 7, 7, -3], False),
            ([2**62, -(2**62), 2**62], True),
            ([-(2**63), 0, 2**63 - 1, 0], True),
        ),
    )
    @pytest.mark.parametrize("stable", (False, True))
    def test_branch_taken(self, monkeypatch, keys, falls_back, stable):
        calls = []
        argsort = np.argsort

        def spy(*args, **kwargs):
            calls.append(kwargs.get("kind"))
            return argsort(*args, **kwargs)

        keys = np.array(keys, dtype=np.int64)
        monkeypatch.setattr(ingest.np, "argsort", spy)
        _group_keys(keys, stable=stable)
        monkeypatch.undo()
        assert calls == ([("stable" if stable else None)] if falls_back else [])
        order = assert_groups_match_unique(keys, stable)
        if stable or not falls_back:
            assert order.tolist() == np.argsort(keys, kind="stable").tolist()


class TestSameSeedGroupings:
    """The generators give the same output on the packed sort as on the
    argsort/``np.unique`` groupings they used before."""

    def run_both(self, monkeypatch, build):
        packed = build()
        monkeypatch.setattr(ingest, "_group_keys", reference_group_keys)
        reference = build()
        monkeypatch.undo()
        return packed, reference

    @pytest.mark.parametrize("seed", (0, 1, 9))
    def test_synthetic_csr_planes(self, monkeypatch, seed):
        (csr, factions), (expected, expected_factions) = self.run_both(
            monkeypatch, lambda: synthetic_csr_network(700, average_degree=7.0, seed=seed)
        )
        assert_csr_equal(csr, expected)
        assert factions.tolist() == expected_factions.tolist()

    @pytest.mark.parametrize("seed", (0, 4))
    @pytest.mark.parametrize("labelled", (False, True))
    def test_zipf_skill_assignment(self, monkeypatch, seed, labelled):
        users = [f"u{i}" for i in range(900)] if labelled else list(range(900))
        assignment, expected = self.run_both(
            monkeypatch, lambda: assign_skills_zipf(users, 60, 3.0, seed=seed)
        )
        assert assignment.users() == expected.users()
        for user in users:
            assert list(assignment.skills_of(user)) == list(expected.skills_of(user))
        assert assignment == expected


class TestTokenModeIngest:
    """String/quoted node labels through the bytes-token ``np.unique`` pass."""

    def random_name_lines(self, seed, num_lines=140):
        rng = random.Random(seed)
        names = (
            [f"user{i}" for i in range(20)]
            + [f'"quoted {i}"'.replace(" ", "_") for i in range(6)]
            + [str(i) for i in range(8)]  # mixed int labels
        )
        signs = ("1", "+1", "-1", "+", "-")
        return [
            f"{rng.choice(names)} {rng.choice(names)} {rng.choice(signs)}"
            for _ in range(num_lines)
        ]

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("lcc", (False, True))
    def test_string_labels_bit_identical(self, tmp_path, policy, lcc):
        for seed in range(4):
            path = write_edges(
                tmp_path / f"s{seed}.edges", self.random_name_lines(seed)
            )
            reference = dict_reference(path, policy, lcc)
            vectorised = parse_edge_list_csr(
                path, directed_to_undirected=policy, restrict_to_lcc=lcc
            )
            assert vectorised is not None
            assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))

    def test_chunk_boundaries_do_not_change_the_result(self, tmp_path):
        path = write_edges(tmp_path / "tchunk.edges", self.random_name_lines(42))
        whole = parse_edge_list_csr(path)
        assert whole is not None
        for chunk_bytes in (16, 64, 257):
            chunked = parse_edge_list_csr(path, chunk_bytes=chunk_bytes)
            assert chunked is not None
            assert_csr_equal(whole, chunked)

    def test_read_edge_tokens_round_trip(self, tmp_path):
        path = write_edges(
            tmp_path / "raw.edges", ["a b 1", "b 5 -", "5 a +1", "# done"]
        )
        u, v, s, labels = read_edge_tokens(path)
        resolve = lambda ids: [labels[i] for i in ids.tolist()]
        assert resolve(u) == ["a", "b", 5]
        assert resolve(v) == ["b", 5, "a"]
        assert s.tolist() == [1, -1, 1]

    def test_comments_and_separators(self, tmp_path):
        path = write_edges(
            tmp_path / "messy.edges",
            [
                "# led by a comment",
                "alice\tbob\t+",
                "bob,carol,-1",
                "   % mid comment",
                "  carol alice 1  ",
                "",
            ],
        )
        vectorised = parse_edge_list_csr(path)
        assert vectorised is not None
        assert_csr_equal(
            vectorised, CSRSignedGraph.from_signed_graph(dict_reference(path))
        )
        assert vectorised._nodes == ["alice", "bob", "carol"]

    @pytest.mark.parametrize(
        "lines", (["3 7 +"], ["3 7 -"], ["3 7 +", "5 3 -"]), ids=("plus", "minus", "both")
    )
    def test_bare_signs_on_integer_labels(self, tmp_path, lines):
        # The integer scanner would read a bare "+"/"-" as sign 0; the line
        # must go to token mode, not silently to the dict parser.
        path = write_edges(tmp_path / "bare.edges", lines)
        vectorised = parse_edge_list_csr(path)
        assert vectorised is not None
        assert_csr_equal(
            vectorised, CSRSignedGraph.from_signed_graph(dict_reference(path))
        )

    def test_non_bijective_int_coercion_falls_back(self, tmp_path):
        # int("+5") == int("5"): the dict parser merges the two spellings into
        # one node, which byte-distinct vocab ids cannot reproduce.
        path = write_edges(tmp_path / "coerce.edges", ["a 5 1", "+5 a -1"])
        assert parse_edge_list_csr(path) is None

    def test_non_ascii_and_overlong_labels_fall_back(self, tmp_path):
        utf8 = tmp_path / "utf8.edges"
        utf8.write_text("héllo wörld 1\n", encoding="utf-8")
        assert parse_edge_list_csr(utf8) is None
        overlong = write_edges(tmp_path / "long.edges", ["x" * 80 + " y 1"])
        assert parse_edge_list_csr(overlong) is None

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edges=st.lists(
            st.tuples(
                st.sampled_from([f"n{i}" for i in range(8)] + ["3", "7"]),
                st.sampled_from([f"n{i}" for i in range(8)] + ["3", "7"]),
                st.sampled_from(("1", "+1", "-1", "+", "-")),
            ),
            max_size=30,
        ),
        policy=st.sampled_from(POLICIES),
        lcc=st.booleans(),
    )
    @example(edges=[("3", "7", "+")], policy="keep_first", lcc=False)
    def test_hypothesis_bit_identity(self, tmp_path, edges, policy, lcc):
        path = write_edges(
            tmp_path / "ht.edges", [f"{u} {v} {s}" for u, v, s in edges] or [""]
        )
        reference = dict_reference(path, policy, lcc)
        vectorised = parse_edge_list_csr(
            path, directed_to_undirected=policy, restrict_to_lcc=lcc
        )
        assert vectorised is not None
        assert_csr_equal(vectorised, CSRSignedGraph.from_signed_graph(reference))


def small_csr(seed=5):
    """A small random CSR snapshot with a dict twin for comparison."""
    path_free_lines = random_edge_lines(seed, num_nodes=30, num_lines=90)
    reference = SignedGraph()
    for line in path_free_lines:
        u, v, s = line.split()
        if u != v:
            if not reference.has_edge(int(u), int(v)):
                reference.add_edge(int(u), int(v), int(s))
    return CSRSignedGraph.from_signed_graph(reference), reference


class TestLazyFacade:
    def test_as_signed_graph_is_canonical_and_typed(self):
        csr, reference = small_csr()
        wrapper = as_signed_graph(csr)
        assert isinstance(wrapper, CSRBackedSignedGraph)
        assert as_signed_graph(csr) is wrapper
        assert as_signed_graph(reference) is reference
        with pytest.raises(TypeError):
            as_signed_graph([1, 2, 3])

    def test_query_surface_matches_dict_graph(self):
        csr, reference = small_csr()
        wrapper = as_signed_graph(csr)
        assert len(wrapper) == len(reference)
        assert list(wrapper) == list(reference)
        assert wrapper.number_of_edges() == reference.number_of_edges()
        for node in reference.nodes():
            assert node in wrapper
            assert wrapper.degree(node) == reference.degree(node)
            assert sorted(wrapper.neighbors(node), key=repr) == sorted(
                reference.neighbors(node), key=repr
            )
            assert dict(wrapper.signed_neighbors(node)) == dict(
                reference.signed_neighbors(node)
            )
        with pytest.raises(NodeNotFoundError):
            wrapper.sign("missing", 0)
        some = next(iter(reference))
        with pytest.raises(EdgeNotFoundError):
            wrapper.sign(some, some)
        assert not wrapper.materialised  # reads never built dict adjacency

    @pytest.mark.parametrize("name", ("SPA", "SPM", "SPO", "SBPH", "NNE"))
    def test_relations_identical_on_bare_csr(self, name):
        csr, reference = small_csr()
        kwargs = {"max_expansions": 2_000} if name == "SBPH" else {}
        bare = make_relation(name, csr, **kwargs)
        dictionary = make_relation(name, reference, **kwargs)
        for node in reference.nodes():
            assert set(bare.compatible_with(node)) == set(
                dictionary.compatible_with(node)
            )

    def test_spa_stack_never_materialises(self):
        csr, reference = small_csr()
        relation = make_relation("SPA", csr)
        oracle = DistanceOracle(relation)
        engine = CompatibilityEngine(relation, oracle=oracle)
        nodes = list(reference.nodes())
        relation.batch_compatible_sets(nodes)
        engine.compatible_counts(nodes, nodes[:5])
        twin_oracle = DistanceOracle(make_relation("SPA", reference))
        for u in nodes[:4]:
            for v in nodes[:4]:
                assert oracle.distance(u, v) == twin_oracle.distance(u, v)
        assert relation.graph.materialised is False

    def test_mutation_stays_dict_free_and_keeps_csr_in_sync(self):
        csr, reference = small_csr()
        wrapper = as_signed_graph(csr)
        new_node = max(reference.nodes()) + 1
        anchor = next(iter(reference))
        for graph in (wrapper, reference):
            graph.add_edge(anchor, new_node, -1)
            graph.set_sign(anchor, new_node, +1)
            victim = next(iter(graph.neighbors(anchor)))
            graph.remove_edge(anchor, victim)
        assert not wrapper.materialised
        assert wrapper.generation == reference.generation
        assert_csr_equal(
            wrapper.csr_view(), CSRSignedGraph.from_signed_graph(reference)
        )
        assert not wrapper.materialised  # snapshotting churn is dict-free too

    def test_remove_node_materialises_and_stays_in_sync(self):
        csr, reference = small_csr()
        wrapper = as_signed_graph(csr)
        anchor = next(iter(reference))
        for graph in (wrapper, reference):
            graph.remove_node(anchor)
        assert wrapper.materialised
        assert_csr_equal(
            wrapper.csr_view(), CSRSignedGraph.from_signed_graph(reference)
        )


class TestCsrOnlyLoader:
    def test_cache_hit_serves_mmap_without_reparse(self, tmp_path):
        path = write_edges(tmp_path / "d.edges", random_edge_lines(11))
        cache = tmp_path / "cache"
        cache.mkdir()
        kwargs = dict(
            snapshot_cache_dir=cache, num_synthetic_skills=8, seed=3, csr_only=True
        )
        reset_cache_stats()
        first = load_snap_dataset("c", path, **kwargs)
        second = load_snap_dataset("c", path, **kwargs)
        assert cache_stats() == {"hits": 1, "misses": 1, "reparses": 0}
        for dataset in (first, second):
            assert isinstance(dataset.graph, CSRBackedSignedGraph)
            assert not dataset.graph.materialised
        assert list(first.graph) == list(second.graph)

    def test_csr_only_bit_identical_to_dict_path(self, tmp_path):
        path = write_edges(tmp_path / "d.edges", random_edge_lines(12))
        kwargs = dict(num_synthetic_skills=8, seed=3)
        dictionary = load_snap_dataset("c", path, **kwargs)
        bare = load_snap_dataset("c", path, csr_only=True, **kwargs)
        assert list(bare.graph) == list(dictionary.graph)
        assert_csr_equal(
            bare.graph.csr_view(),
            CSRSignedGraph.from_signed_graph(dictionary.graph),
        )
        for user in dictionary.skills.users():
            assert bare.skills.skills_of(user) == dictionary.skills.skills_of(user)

    def test_cache_entry_with_trailing_bytes_is_a_hit(self, tmp_path):
        """A cache entry an earlier release extended past its node table
        (an 8-aligned trailing section) is served as a hit, not reparsed."""
        path = write_edges(tmp_path / "d.edges", random_edge_lines(13))
        cache = tmp_path / "cache"
        cache.mkdir()
        kwargs = dict(
            snapshot_cache_dir=cache, num_synthetic_skills=8, seed=3, csr_only=True
        )
        reset_cache_stats()
        first = load_snap_dataset("c", path, **kwargs)
        (entry,) = list(cache.iterdir())
        size = entry.stat().st_size
        with open(entry, "ab") as handle:
            handle.write(b"\0" * (-size % 8))
            handle.write(b"RPROLBL1" + b"\0" * 48)
        second = load_snap_dataset("c", path, **kwargs)
        assert cache_stats() == {"hits": 1, "misses": 1, "reparses": 0}
        assert list(second.graph) == list(first.graph)
        assert_csr_equal(second.graph.csr_view(), first.graph.csr_view())


class TestSyntheticCsrScale:
    def test_structure_and_determinism(self):
        csr, factions = synthetic_csr_network(600, average_degree=6.0, seed=9)
        again, _ = synthetic_csr_network(600, average_degree=6.0, seed=9)
        assert_csr_equal(csr, again)
        assert csr._nodes == list(range(600))
        assert factions.shape == (600,)
        # The permutation-path backbone keeps the graph connected.
        assert np.unique(component_labels(csr.indptr, csr.indices)).size == 1
        edges = csr.number_of_edges()
        assert abs(edges - 600 * 3) <= 0.02 * 600 * 3  # duplicates are rare
        negative = int(np.count_nonzero(csr.signs < 0)) // 2
        assert abs(negative / edges - 0.17) < 0.01

    def test_signs_prefer_cross_faction_edges(self):
        csr, factions = synthetic_csr_network(
            500, average_degree=8.0, cross_faction_bias=1.0, seed=4
        )
        src = np.repeat(
            np.arange(500, dtype=np.int64), np.diff(csr.indptr).astype(np.int64)
        )
        negative = csr.signs < 0
        cross = factions[src] != factions[csr.indices]
        negative_rate_cross = np.count_nonzero(negative & cross) / max(
            1, np.count_nonzero(cross)
        )
        negative_rate_intra = np.count_nonzero(negative & ~cross) / max(
            1, np.count_nonzero(~cross)
        )
        assert negative_rate_cross > negative_rate_intra

    def test_million_dataset_small_scale(self):
        dataset = million_scale_dataset(seed=1, scale=0.001)
        assert dataset.name == "million"
        assert isinstance(dataset.graph, CSRBackedSignedGraph)
        assert not dataset.graph.materialised
        assert dataset.graph.number_of_nodes() == 1000
        assert set(dataset.skills.users()) == set(range(1000))
        assert all(
            dataset.skills.skills_of(user) for user in list(dataset.skills.users())[:50]
        )


class TestPeakRssHelpers:
    def test_peak_rss_bytes_positive(self):
        peak = peak_rss_bytes()
        assert peak is not None and peak > 0

    def test_measure_peak_rss_runs_in_child(self):
        result, peak, elapsed = measure_peak_rss(sum, range(100))
        assert result == 4950
        assert peak is not None and peak > 0
        assert elapsed >= 0.0

    def test_measure_peak_rss_propagates_errors(self):
        with pytest.raises(RuntimeError, match="ZeroDivisionError"):
            measure_peak_rss(_divide_by_zero)


def _divide_by_zero():
    return 1 / 0
