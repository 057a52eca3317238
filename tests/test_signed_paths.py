"""Tests for signed path algorithms (Algorithm 1, walks, balanced paths)."""

from __future__ import annotations

from collections import deque

import pytest

from repro.exceptions import NodeNotFoundError
from repro.signed import (
    NEGATIVE,
    POSITIVE,
    BalancedPathSearch,
    SignedGraph,
    all_shortest_paths,
    count_signed_shortest_paths,
    enumerate_simple_paths,
    shortest_balanced_positive_path,
    shortest_path_lengths,
    shortest_signed_walk_lengths,
    signed_bfs,
)
from repro.signed.generators import signed_erdos_renyi
from repro.signed.paths import BalancedPathResult, _extend_camps


def reference_search_exact(graph, source, target=None, max_length=None, max_expansions=2_000_000):
    """Reference: the path-list and camps-dict exact balanced-path search."""
    bound = max_length if max_length is not None else graph.number_of_nodes() - 1
    result = BalancedPathResult(source=source, exact=True, max_length=bound)
    result.positive_lengths[source] = 0
    queue = deque([([source], {source: 0})])
    expansions = 0
    while queue:
        path, camps = queue.popleft()
        if len(path) - 1 >= bound:
            continue
        for neighbor, _edge_sign in graph.signed_neighbors(path[-1]):
            if neighbor in camps:
                continue
            expansions += 1
            if expansions > max_expansions:
                result.truncated = True
                return result
            extended = _extend_camps(graph, path, camps, neighbor)
            if extended is None:
                continue
            new_path = path + [neighbor]
            new_sign = POSITIVE if extended[neighbor] == extended[source] else NEGATIVE
            lengths = result.positive_lengths if new_sign == POSITIVE else result.negative_lengths
            if neighbor not in lengths:
                lengths[neighbor] = len(new_path) - 1
                if target is not None and neighbor == target and new_sign == POSITIVE:
                    return result
            queue.append((new_path, extended))
    return result


def brute_force_shortest_path_sign_counts(graph, source, target):
    """Reference implementation: enumerate all shortest paths and count signs."""
    paths = all_shortest_paths(graph, source, target)
    positive = sum(1 for path in paths if graph.path_sign(path) == POSITIVE)
    negative = len(paths) - positive
    return positive, negative


class TestSignedBFS:
    def test_source_counts(self, line_graph):
        result = signed_bfs(line_graph, 0)
        assert result.counts(0) == (1, 0)
        assert result.length(0) == 0

    def test_line_graph_signs_propagate(self, line_graph):
        result = signed_bfs(line_graph, 0)
        assert result.counts(1) == (1, 0)
        assert result.counts(2) == (0, 1)   # one negative edge on the way
        assert result.counts(3) == (0, 1)
        assert result.length(3) == 3

    def test_missing_source_raises(self, line_graph):
        with pytest.raises(NodeNotFoundError):
            signed_bfs(line_graph, 99)

    def test_unreachable_node(self):
        graph = SignedGraph.from_edges([(0, 1, +1)], nodes=[2])
        result = signed_bfs(graph, 0)
        assert not result.reachable(2)
        assert result.length(2) == float("inf")
        assert result.counts(2) == (0, 0)

    def test_parallel_shortest_paths_counted(self):
        # Two shortest paths 0-1-3 (positive) and 0-2-3 (negative).
        graph = SignedGraph.from_edges(
            [(0, 1, +1), (1, 3, +1), (0, 2, +1), (2, 3, -1)]
        )
        result = signed_bfs(graph, 0)
        assert result.counts(3) == (1, 1)
        assert result.length(3) == 2

    def test_matches_brute_force_on_figure_1a(self, figure_1a):
        for target in figure_1a.nodes():
            if target == "u":
                continue
            expected = brute_force_shortest_path_sign_counts(figure_1a, "u", target)
            result = signed_bfs(figure_1a, "u")
            assert result.counts(target) == expected

    def test_matches_brute_force_on_random_graph(self, small_random_graph):
        nodes = small_random_graph.nodes()
        source = nodes[0]
        result = signed_bfs(small_random_graph, source)
        for target in nodes[1:8]:
            expected = brute_force_shortest_path_sign_counts(
                small_random_graph, source, target
            )
            assert result.counts(target) == expected

    def test_count_signed_shortest_paths_wrapper(self, figure_1a):
        positive, negative, length = count_signed_shortest_paths(figure_1a, "u", "v")
        assert (positive, negative) == (0, 1)
        assert length == 2

    def test_negative_edge_swaps_counts(self):
        graph = SignedGraph.from_edges([(0, 1, -1), (1, 2, -1)])
        result = signed_bfs(graph, 0)
        assert result.counts(1) == (0, 1)
        assert result.counts(2) == (1, 0)   # enemy of my enemy


class TestShortestPathLengths:
    def test_lengths(self, line_graph):
        lengths = shortest_path_lengths(line_graph, 0)
        assert lengths == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_missing_source_raises(self, line_graph):
        with pytest.raises(NodeNotFoundError):
            shortest_path_lengths(line_graph, "missing")


class TestSignedWalks:
    def test_positive_and_negative_walks_on_line(self, line_graph):
        positive, negative = shortest_signed_walk_lengths(line_graph, 0)
        assert positive[0] == 0
        assert positive[1] == 1
        assert negative[2] == 2
        # A positive walk to node 2 must traverse the negative edge twice.
        assert positive.get(2, None) in (None, 4)

    def test_balanced_two_faction_graph_has_no_positive_cross_walks(self, two_factions):
        positive, negative = shortest_signed_walk_lengths(two_factions, 0)
        # In a balanced graph, every walk to the other faction is negative.
        for node in (3, 4, 5):
            assert node not in positive
            assert node in negative
        for node in (1, 2):
            assert node in positive


class TestPathEnumeration:
    def test_all_shortest_paths_basic(self):
        graph = SignedGraph.from_edges(
            [(0, 1, +1), (1, 3, +1), (0, 2, +1), (2, 3, -1)]
        )
        paths = all_shortest_paths(graph, 0, 3)
        assert sorted(paths) == [[0, 1, 3], [0, 2, 3]]

    def test_all_shortest_paths_same_node(self, line_graph):
        assert all_shortest_paths(line_graph, 2, 2) == [[2]]

    def test_all_shortest_paths_unreachable(self):
        graph = SignedGraph.from_edges([(0, 1, +1)], nodes=["z"])
        assert all_shortest_paths(graph, 0, "z") == []

    def test_enumerate_simple_paths_respects_bound(self, two_factions):
        short = list(enumerate_simple_paths(two_factions, 0, 2, max_length=1))
        assert short == [[0, 2]]
        longer = list(enumerate_simple_paths(two_factions, 0, 2, max_length=2))
        assert [0, 1, 2] in longer

    def test_enumerate_simple_paths_all_are_simple(self, small_random_graph):
        nodes = small_random_graph.nodes()
        for path in enumerate_simple_paths(small_random_graph, nodes[0], nodes[1], max_length=4):
            assert len(path) == len(set(path))
            assert path[0] == nodes[0] and path[-1] == nodes[1]

    def test_enumerate_negative_bound_rejected(self, line_graph):
        with pytest.raises(ValueError):
            list(enumerate_simple_paths(line_graph, 0, 3, max_length=-1))


class TestBalancedPathSearch:
    def test_exact_finds_positive_balanced_path_in_figure_1a(self, figure_1a):
        result = BalancedPathSearch(figure_1a).search_exact("u")
        assert result.has_positive_path("v")
        assert result.positive_length("v") == 4

    def test_exact_respects_negative_edge_incompatibility(self, figure_1a):
        # x1 is a direct enemy of u; no positive balanced path may exist,
        # because it would close an unbalanced cycle with the negative edge.
        result = BalancedPathSearch(figure_1a).search_exact("u")
        assert not result.has_positive_path("x1")

    def test_heuristic_misses_prefix_property_failure(self, figure_1b):
        exact = BalancedPathSearch(figure_1b).search_exact("u")
        heuristic = BalancedPathSearch(figure_1b).search_heuristic("u")
        assert exact.has_positive_path("v")
        assert not heuristic.has_positive_path("v")

    def test_heuristic_is_subset_of_exact(self, small_random_graph):
        search = BalancedPathSearch(small_random_graph)
        source = small_random_graph.nodes()[0]
        exact = search.search_exact(source)
        heuristic = search.search_heuristic(source)
        assert set(heuristic.positive_lengths) <= set(exact.positive_lengths)

    def test_exact_lengths_are_minimal(self, figure_1b):
        result = BalancedPathSearch(figure_1b).search_exact("u")
        # Shortest positive balanced path to x4 is (u, x3, x4).
        assert result.positive_length("x4") == 2
        # The only positive balanced path to v has 5 edges.
        assert result.positive_length("v") == 5

    def test_max_length_bound_limits_reach(self, figure_1b):
        bounded = BalancedPathSearch(figure_1b, max_length=3).search_exact("u")
        assert not bounded.has_positive_path("v")

    def test_expansion_cap_sets_truncated_flag(self, small_random_graph):
        result = BalancedPathSearch(small_random_graph, max_expansions=5).search_exact(
            small_random_graph.nodes()[0]
        )
        assert result.truncated

    def test_invalid_parameters_rejected(self, figure_1a):
        with pytest.raises(ValueError):
            BalancedPathSearch(figure_1a, max_length=-1)
        with pytest.raises(ValueError):
            BalancedPathSearch(figure_1a, max_expansions=0)

    def test_missing_source_raises(self, figure_1a):
        with pytest.raises(NodeNotFoundError):
            BalancedPathSearch(figure_1a).search_exact("nope")


def csr_exact_results(graph, sources, max_length, max_expansions):
    """``search_exact`` for every source through the batched CSR core, its
    depth rows read back into node-keyed maps."""
    from repro.signed.csr import UNREACHABLE, balanced_depths

    csr = graph.csr_view()
    nodes = csr._nodes

    def depth_map(row):
        return {
            nodes[dense]: depth
            for dense, depth in enumerate(row.tolist())
            if depth != UNREACHABLE
        }

    depths = balanced_depths(
        csr,
        [csr.index_of(source) for source in sources],
        max_length,
        exact=True,
        max_expansions=max_expansions,
    )
    return [
        BalancedPathResult(
            source, depth_map(positive), depth_map(negative), truncated=truncated
        )
        for source, (positive, negative, truncated) in zip(sources, depths)
    ]


def assert_same_search(got, want):
    """The depth per node and the truncation flag agree."""
    assert got.positive_lengths == want.positive_lengths
    assert got.negative_lengths == want.negative_lengths
    assert got.truncated == want.truncated


class TestExactSearchMatchesReference:
    """The bitmask exact search and the batched CSR core reproduce the
    path-by-path reference (the CSR core has no single-target mode)."""

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("max_expansions", [50, 2_000_000])
    @pytest.mark.parametrize("max_length", [None, 3])
    def test_random_graphs(self, seed, max_expansions, max_length, backend):
        num_nodes = 6 + seed * 34 // 7  # 6 .. 40 nodes
        graph = signed_erdos_renyi(
            num_nodes, min(0.9, 2.6 / num_nodes), negative_fraction=0.3, seed=seed
        )
        sources = graph.nodes()[:4]
        if backend == "dict":
            search = BalancedPathSearch(
                graph, max_length=max_length, max_expansions=max_expansions
            )
            runs = [
                (source, target, search.search_exact(source, target))
                for source in sources
                for target in (None, graph.nodes()[-1])
            ]
        else:
            results = csr_exact_results(graph, sources, max_length, max_expansions)
            runs = [(source, None, result) for source, result in zip(sources, results)]
        for source, target, got in runs:
            want = reference_search_exact(graph, source, target, max_length, max_expansions)
            assert_same_search(got, want)

    def test_csr_result_does_not_depend_on_its_batch(self):
        # Two-word paths (103 nodes) in batches of 64 under a cap of 40
        # expansions: sources in a three-node tail finish, the others
        # truncate after recording paths of different lengths, i.e. on
        # different levels.
        graph = signed_erdos_renyi(100, 0.04, negative_fraction=0.3, seed=5)
        graph.add_edge(100, 101, POSITIVE)
        graph.add_edge(101, 102, NEGATIVE)
        sources = graph.nodes()
        batch = csr_exact_results(graph, sources, None, 40)
        flags = [result.truncated for result in batch]
        assert not all(flags) and any(flags)
        reached = {
            max(result.positive_lengths.values()) for result in batch if result.truncated
        }
        assert len(reached) >= 2
        for source, in_batch in zip(sources, batch):
            [alone] = csr_exact_results(graph, [source], None, 40)
            assert_same_search(in_batch, alone)
            assert_same_search(in_batch, reference_search_exact(graph, source, None, None, 40))


class TestShortestBalancedPositivePath:
    def test_figure_1a_path(self, figure_1a):
        path = shortest_balanced_positive_path(figure_1a, "u", "v")
        assert path == ["u", "x2", "x3", "x4", "v"]

    def test_same_node(self, figure_1a):
        assert shortest_balanced_positive_path(figure_1a, "u", "u") == ["u"]

    def test_direct_enemies_have_no_path(self, figure_1a):
        assert shortest_balanced_positive_path(figure_1a, "u", "x1") is None

    def test_path_is_positive_and_balanced(self, small_random_graph):
        from repro.signed.balance import path_is_balanced

        nodes = small_random_graph.nodes()
        found_any = False
        for target in nodes[1:10]:
            path = shortest_balanced_positive_path(small_random_graph, nodes[0], target)
            if path is None:
                continue
            found_any = True
            assert small_random_graph.path_sign(path) == POSITIVE
            assert path_is_balanced(small_random_graph, path)
        assert found_any

    def test_missing_nodes_raise(self, figure_1a):
        with pytest.raises(NodeNotFoundError):
            shortest_balanced_positive_path(figure_1a, "u", "zzz")
