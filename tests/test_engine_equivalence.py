"""Equivalence suite for the batched CompatibilityEngine stack.

Three layers are pinned against their per-pair / per-source counterparts,
bit for bit:

* the multi-source CSR kernels against per-source runs and the pure-Python
  reference implementations (:mod:`repro.signed.paths`);
* the SBPH (node, sign)-state CSR search against the per-edge dict search,
  and the SP*/SBPH relations against ``tests/reference.py``;
* the full team-formation algorithms (LCMD / LCMC / RFMD / RFMC) through the
  engine against :class:`PerPairEngine` — the same queries answered pair by
  pair through the relation API — on random, synthetic-topology and
  loader-built graphs, under every relation.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import (
    CompatibilityEngine,
    DistanceOracle,
    make_relation,
    source_sampled_pair_statistics,
)
from repro.compatibility.skill_compat import SkillCompatibilityIndex
from repro.datasets import load_snap_dataset, toy_dataset
from repro.experiments.config import default_config
from repro.experiments.workloads import build_dataset_context
from repro.signed import SignedGraph, signed_bfs
from repro.signed.csr import (
    UNREACHABLE,
    balanced_depths,
    multi_source_shortest_path_lengths_csr,
    multi_source_signed_bfs,
    sbph_batch_size,
    signed_bfs_csr,
    CSRLengths,
    CSRSignedBFSResult,
)
from repro.signed.generators import planted_factions_graph
from repro.signed.io import write_edge_list
from repro.signed.paths import BalancedPathSearch, shortest_path_lengths
from repro.skills.generators import assign_skills_zipf
from repro.skills.task import Task, random_tasks
from repro.teams import TeamFormationProblem, run_algorithm
from repro.teams.generic import form_team
from repro.teams.policies import (
    LeastCompatibleSkillFirst,
    MinimumDistanceUser,
    MostCompatibleUser,
)
from repro.utils.lru import (
    APPROX_BYTES_PER_NODE,
    DEFAULT_CACHE_BUDGET_BYTES,
    LRUCache,
    fetch_batched,
    scaled_cache_size,
)

from reference import ReferenceRelation

ALGORITHMS = ("LCMD", "LCMC", "RFMD", "RFMC")
RELATIONS = ("DPE", "SPA", "SPM", "SPO", "SBPH", "NNE")


class PerPairEngine(CompatibilityEngine):
    """The engine's one-to-many queries as plain loops over the relation API.

    The reference the batched engine is pinned against: every query is
    answered pair by pair through ``compatible_with`` / ``are_compatible`` /
    ``distance_to_set``, with no batching, prefetching or rule masks.
    """

    def compatible_counts(self, sources, targets):
        target_set = set(targets)
        return [
            len(self.relation.compatible_with(source) & target_set)
            for source in sources
        ]

    def compatibility_degrees(self, sources):
        return [self.relation.compatibility_degree(source) for source in sources]

    def warm(self, sources):
        pass

    def compatible_from_many(self, candidates, team):
        team_list = list(team)
        team_set = set(team_list)
        return frozenset(
            candidate
            for candidate in candidates
            if candidate not in team_set
            and all(
                self.relation.are_compatible(member, candidate)
                for member in team_list
            )
        )

    def distances_to_team_many(self, candidates, team):
        return [self.oracle.distance_to_set(candidate, team) for candidate in candidates]


def _assert_algorithms_match(graph, skills, tasks, relation_name, **relation_kwargs):
    """Engine-backed and per-pair problems produce identical teams and costs.

    One relation instance per side is reused across algorithms and tasks —
    exactly how the experiment harness shares caches — so the comparison also
    covers cache-warm queries.  The reference runs on a copy of the graph:
    SP* relations on one graph share their signed-BFS results, and the
    reference must compute its own.
    """
    reference_graph = graph.copy()
    engine_rel = make_relation(relation_name, graph, **relation_kwargs)
    reference_rel = make_relation(relation_name, reference_graph, **relation_kwargs)
    engine = CompatibilityEngine(engine_rel)
    reference = PerPairEngine(reference_rel)
    for task in tasks:
        for algorithm in ALGORITHMS:
            engine_problem = TeamFormationProblem(
                graph, skills, engine_rel, task, engine=engine
            )
            reference_problem = TeamFormationProblem(
                reference_graph, skills, reference_rel, task, engine=reference
            )
            got = run_algorithm(algorithm, engine_problem, max_seeds=6, seed=13)
            expected = run_algorithm(algorithm, reference_problem, max_seeds=6, seed=13)
            assert got.team == expected.team, (relation_name, algorithm, task)
            assert got.cost == expected.cost, (relation_name, algorithm, task)
            assert got.seeds_tried == expected.seeds_tried
            assert got.candidates_completed == expected.candidates_completed


class TestTeamFormationEquivalence:
    """LCMD/LCMC/RFMD/RFMC: identical outcomes through the engine."""

    @pytest.mark.parametrize("relation_name", RELATIONS)
    def test_random_graph(self, relation_name):
        graph, _ = planted_factions_graph(
            60, average_degree=4.0, sign_noise=0.15, seed=21
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=12, skills_per_user=2.5, seed=22
        )
        tasks = random_tasks(skills, size=3, count=2, seed=23)
        _assert_algorithms_match(graph, skills, tasks, relation_name)

    def test_random_graph_exact_sbp(self):
        # The exact SBP enumeration is exponential; keep the graph tiny and
        # cap the expansion budget so the equivalence check stays fast.
        graph, _ = planted_factions_graph(
            24, average_degree=3.0, sign_noise=0.15, seed=25
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=6, skills_per_user=2.0, seed=26
        )
        tasks = random_tasks(skills, size=2, count=1, seed=27)
        _assert_algorithms_match(
            graph, skills, tasks, "SBP", max_expansions=50_000
        )

    @pytest.mark.parametrize("relation_name", RELATIONS)
    def test_synthetic_topology_graph(self, relation_name):
        # The hand-crafted dataset plus a ladder-like topology: structured
        # graphs whose compatible sets differ sharply from random ones.
        toy = toy_dataset()
        tasks = random_tasks(toy.skills, size=3, count=2, seed=31)
        _assert_algorithms_match(toy.graph, toy.skills, tasks, relation_name)

    @pytest.mark.parametrize("relation_name", RELATIONS)
    def test_loader_built_graph(self, tmp_path, relation_name):
        graph, _ = planted_factions_graph(
            48, average_degree=4.0, sign_noise=0.2, seed=41
        )
        edges_path = tmp_path / "net.edges"
        write_edge_list(graph, edges_path)
        dataset = load_snap_dataset(
            "loader-built", edges_path, num_synthetic_skills=10, seed=42
        )
        tasks = random_tasks(dataset.skills, size=3, count=2, seed=43)
        _assert_algorithms_match(dataset.graph, dataset.skills, tasks, relation_name)

    @pytest.mark.parametrize("relation_name", ("SPA", "SPM", "SPO", "SBPH"))
    def test_planted_factions_graph(self, relation_name):
        graph, _ = planted_factions_graph(
            70, average_degree=4.5, sign_noise=0.2, seed=51
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=10, skills_per_user=2.5, seed=52
        )
        tasks = random_tasks(skills, size=3, count=2, seed=53)
        _assert_algorithms_match(graph, skills, tasks, relation_name)


class SetBasedSkillIndex(SkillCompatibilityIndex):
    """``cd(s_i, s_j)`` as the sets it counts: the smaller holder side's
    compatible sets, each intersected with the other side's holders."""

    def _count_pair_degree(self, skill_a, skill_b):
        users_a, users_b = self._holders(skill_a, skill_b)
        return sum(
            len(compatible & users_b)
            for compatible in self.relation.batch_compatible_sets(users_a)
        )


class SetBasedMostCompatibleUser(MostCompatibleUser):
    """Most-compatible scoring over each candidate's full compatible set."""

    def select(self, problem, candidates, team, uncovered_skills):
        remaining_holders = set()
        for skill in uncovered_skills:
            remaining_holders |= problem.candidates_for_skill(skill)
        remaining_holders -= set(team)
        ordered = self._deterministic(candidates)
        if len(ordered) > self.max_candidates:
            ordered = self._rng.sample(ordered, self.max_candidates)
        compatible_sets = problem.relation.batch_compatible_sets(ordered)

        def compatibility_score(position):
            user = ordered[position]
            compatible_set = compatible_sets[position]
            pool = remaining_holders - {user}
            if not pool:
                return len(compatible_set) - 1
            return sum(1 for other in pool if other in compatible_set)

        return ordered[max(range(len(ordered)), key=compatibility_score)]


@pytest.fixture(scope="module")
def epinions_context():
    """The default-config epinions stand-in (2308 nodes) the figures run on."""
    return build_dataset_context(default_config(), "epinions")


class TestCountingPoliciesMatchSetBased:
    """LCMD/LCMC count compatible pairs off the pair-rule masks (SP*) and
    the enemy lists (NNE); teams and costs equal the set-based scoring."""

    USER_POLICIES = {"LCMD": MinimumDistanceUser, "LCMC": SetBasedMostCompatibleUser}

    @pytest.mark.parametrize("relation_name", ("SPA", "SPM", "SPO", "NNE"))
    def test_teams_and_costs_match(self, epinions_context, relation_name):
        dataset = epinions_context.dataset
        tasks = epinions_context.generate_tasks(size=5, count=4, seed=2020)
        reference_graph = dataset.graph.copy()
        relation = make_relation(relation_name, dataset.graph)
        reference_relation = make_relation(relation_name, reference_graph)
        index = SkillCompatibilityIndex(relation, dataset.skills)
        reference_index = SetBasedSkillIndex(reference_relation, dataset.skills)
        for task in tasks:
            for algorithm, user_policy in self.USER_POLICIES.items():
                problem = TeamFormationProblem(
                    dataset.graph, dataset.skills, relation, task, skill_index=index
                )
                reference_problem = TeamFormationProblem(
                    reference_graph,
                    dataset.skills,
                    reference_relation,
                    task,
                    skill_index=reference_index,
                )
                got = run_algorithm(algorithm, problem, max_seeds=10, seed=5)
                expected = form_team(
                    reference_problem,
                    LeastCompatibleSkillFirst(),
                    user_policy(seed=5),
                    max_seeds=10,
                    algorithm_name=algorithm,
                    seed=5,
                )
                assert got.team == expected.team, (relation_name, algorithm, task)
                assert got.cost == expected.cost, (relation_name, algorithm, task)
                assert got.seeds_tried == expected.seeds_tried

    @pytest.mark.parametrize("relation_name", ("SPA", "SPO", "NNE", "SBPH"))
    @pytest.mark.parametrize(
        "team,uncovered",
        [
            ([], set()),  # no holder left: every score is a degree
            (["fay"], {"devops"}),  # dan, the one holder left, scores its degree
            (["ana"], {"python", "writing"}),
        ],
    )
    def test_select_on_small_holder_pools(self, relation_name, team, uncovered):
        dataset = toy_dataset()
        relation = make_relation(relation_name, dataset.graph)
        problem = TeamFormationProblem(
            dataset.graph, dataset.skills, relation, Task(["python"])
        )
        candidates = frozenset({"bob", "cat", "dan", "eve", "kim"})
        got = MostCompatibleUser(seed=3).select(problem, candidates, team, uncovered)
        expected = SetBasedMostCompatibleUser(seed=3).select(
            problem, candidates, team, uncovered
        )
        assert got == expected

    def test_spo_lcmc_builds_no_compatible_nodes(self, epinions_context):
        dataset = epinions_context.dataset
        graph = dataset.graph.copy()
        relation = make_relation("SPO", graph)
        (task,) = epinions_context.generate_tasks(size=5, count=1, seed=7)
        problem = TeamFormationProblem(graph, dataset.skills, relation, task)
        with mock.patch.object(
            CSRSignedBFSResult,
            "compatible_nodes",
            autospec=True,
            side_effect=CSRSignedBFSResult.compatible_nodes,
        ) as spy:
            result = run_algorithm("LCMC", problem, max_seeds=10, seed=5)
        assert result.seeds_tried > 0
        assert spy.call_count == 0


class TestCompatibleFromMany:
    """The engine's one-to-many team filter equals the per-pair loop."""

    @pytest.mark.parametrize("relation_name", RELATIONS)
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_matches_per_pair_loop(self, relation_name, seed):
        rng = random.Random(seed)
        graph, _ = planted_factions_graph(
            50, average_degree=4.0, sign_noise=0.2, seed=seed
        )
        relation = make_relation(relation_name, graph)
        engine = CompatibilityEngine(relation)
        reference = PerPairEngine(relation, oracle=engine.oracle)
        nodes = graph.nodes()
        for _ in range(5):
            team = rng.sample(nodes, rng.randint(1, 4))
            candidates = rng.sample(nodes, rng.randint(1, 20))
            assert engine.compatible_from_many(candidates, team) == (
                reference.compatible_from_many(candidates, team)
            )

    def test_empty_team_returns_all_candidates(self, toy):
        relation = make_relation("SPO", toy.graph)
        engine = CompatibilityEngine(relation)
        candidates = toy.graph.nodes()[:5]
        assert engine.compatible_from_many(candidates, []) == frozenset(candidates)

    def test_team_members_excluded(self, toy):
        relation = make_relation("NNE", toy.graph)
        engine = CompatibilityEngine(relation)
        nodes = toy.graph.nodes()
        result = engine.compatible_from_many(nodes[:4], [nodes[0]])
        assert nodes[0] not in result


class TestDistancesToTeamMany:
    """Batched distance-to-team equals the per-candidate oracle loop."""

    @pytest.mark.parametrize(
        "relation_name,kwargs",
        [
            ("SPO", {}),
            ("SPO", {"reference": True}),
            ("NNE", {}),
            ("SBPH", {}),
        ],
    )
    def test_matches_distance_to_set(self, relation_name, kwargs):
        """Against the oracle's per-candidate loop, or with ``reference``
        against :class:`ReferenceRelation`'s ``shortest_path_lengths``."""
        rng = random.Random(7)
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=7
        )
        relation = make_relation(relation_name, graph)
        engine = CompatibilityEngine(relation)
        reference = (
            ReferenceRelation(relation_name, graph.copy())
            if kwargs.get("reference")
            else engine.oracle
        )
        nodes = graph.nodes()
        for _ in range(4):
            team = rng.sample(nodes, rng.randint(1, 3))
            candidates = rng.sample(nodes, 10)
            batched = engine.distances_to_team_many(candidates, team)
            expected = [reference.distance_to_set(c, team) for c in candidates]
            assert batched == expected


class TestBatchedKernels:
    """Multi-source kernels are bit-identical to per-source runs."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_multi_source_signed_bfs_matches_single_source(self, seed):
        graph, _ = planted_factions_graph(
            45, average_degree=4.0, sign_noise=0.15, seed=seed
        )
        csr = graph.csr_view()
        rng = random.Random(seed)
        sources = rng.sample(graph.nodes(), 9)
        batched = multi_source_signed_bfs(csr, sources)
        for source, result in zip(sources, batched):
            single = signed_bfs_csr(csr, source)
            assert (result.lengths_array == single.lengths_array).all()
            assert (result.positive_array == single.positive_array).all()
            assert (result.negative_array == single.negative_array).all()
            reference = signed_bfs(graph, source)
            converted = result.to_signed_bfs_result()
            assert converted.lengths == reference.lengths
            assert converted.positive_counts == reference.positive_counts
            assert converted.negative_counts == reference.negative_counts

    def test_multi_source_signed_bfs_empty_and_duplicates(self, two_factions):
        csr = two_factions.csr_view()
        assert multi_source_signed_bfs(csr, []) == []
        results = multi_source_signed_bfs(csr, [0, 0, 3])
        assert results[0].source == results[1].source == 0
        assert (results[0].lengths_array == results[1].lengths_array).all()

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_multi_source_plain_lengths_match_dict(self, seed):
        graph, _ = planted_factions_graph(
            45, average_degree=4.0, sign_noise=0.15, seed=seed
        )
        csr = graph.csr_view()
        sources = graph.nodes()[:7]
        arrays = multi_source_shortest_path_lengths_csr(csr, sources)
        for source, lengths in zip(sources, arrays):
            view = CSRLengths(csr, lengths)
            assert dict(view.items()) == shortest_path_lengths(graph, source)


#: Leaves of the hub in :func:`sbph_batch_scenarios` (its degree is larger).
HUB_LEAVES = 512


@st.composite
def sbph_batch_scenarios(draw):
    """A graph with every shape the batched SBPH core must get right, plus
    one batch of sources over it.

    Nodes, in insertion order: a random mixed-sign core; a hub adjacent to
    part of the core and to :data:`HUB_LEAVES` leaves (some of them also
    tied back into the core); a path whose middle edge closes an unbalanced
    triangle (whichever of the two routes to the triangle's apex a search
    meets first, the other is then unbalanced); a second component;
    isolated nodes.
    """
    sign = st.sampled_from((-1, 1))
    graph = SignedGraph()

    def link(u, v, edge_sign):
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, edge_sign)

    # Core wiring and leaf signs come from a seeded generator: hypothesis'
    # own small draws rarely build the dense cycles whose first candidate
    # per state is refused.
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    core_size = draw(st.integers(6, 24))
    density = draw(st.sampled_from((3.0, 4.5, 6.0))) / core_size
    for u in range(core_size):
        graph.add_node(("core", u))
        for v in range(u):
            if rng.random() < density:
                link(("core", u), ("core", v), rng.choice((-1, 1)))
    core = st.integers(0, core_size - 1).map(lambda node: ("core", node))
    for u, edge_sign in draw(st.lists(st.tuples(core, sign), min_size=1, max_size=6)):
        link("hub", u, edge_sign)
    for leaf in range(HUB_LEAVES):
        link("hub", ("leaf", leaf), rng.choice((-1, 1)))
    leaf = st.integers(0, HUB_LEAVES - 1).map(lambda node: ("leaf", node))
    for u, v, edge_sign in draw(st.lists(st.tuples(leaf, core, sign), max_size=8)):
        link(u, v, edge_sign)
    link(("core", 0), ("path", 0), draw(sign))
    for step in range(3):
        link(("path", step), ("path", step + 1), draw(sign))
    graph.set_sign(("path", 1), ("path", 2), -1)
    link(("path", 1), "apex", 1)
    link(("path", 2), "apex", 1)
    other_size = draw(st.integers(2, 5))
    for node in range(1, other_size):
        link(("other", node - 1), ("other", node), draw(sign))
    link(("other", 0), ("other", other_size - 1), draw(sign))
    for node in range(draw(st.integers(1, 3))):
        graph.add_node(("isolated", node))
    # One leaf at most: leaf searches all look alike past the hub.
    other_leaves = {("leaf", leaf) for leaf in range(1, HUB_LEAVES)}
    searchable = [node for node in graph.nodes() if node not in other_leaves]
    drawn = draw(st.lists(st.sampled_from(searchable), min_size=1, max_size=12))
    # Searches that stop at depth 0, early in a small component and late in
    # the hub's, plus a repeat, all in one batch.
    sources = draw(st.permutations(drawn + [("isolated", 0), ("other", 0), "hub", drawn[0]]))
    return graph, sources


def depth_map(csr, row):
    """A dense depth row as ``{node: depth}`` over the nodes it reaches."""
    nodes = csr._nodes
    return {nodes[dense]: depth for dense, depth in enumerate(row.tolist()) if depth != UNREACHABLE}


class TestSBPHCSRSearch:
    """The (node, sign)-state CSR search finds the dict search's depths."""

    def _assert_identical(self, graph, sources=None, max_length=None):
        search = BalancedPathSearch(graph, max_length=max_length)
        relation = make_relation("SBPH", graph, max_path_length=max_length)
        for source in sources if sources is not None else graph.nodes():
            expected = search.search_heuristic(source)
            got = relation._search_from(source)
            assert dict(got.positive_lengths.items()) == expected.positive_lengths, source
            assert dict(got.negative_lengths.items()) == expected.negative_lengths, source
            assert got.exact == expected.exact
            assert got.max_length == expected.max_length
            assert got.truncated == expected.truncated

    def test_figure_1b(self, figure_1b):
        self._assert_identical(figure_1b)

    def test_prefix_trap(self, prefix_trap_graph):
        self._assert_identical(prefix_trap_graph)

    def test_two_factions(self, two_factions):
        self._assert_identical(two_factions)

    def test_line_graph(self, line_graph):
        self._assert_identical(line_graph)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        graph, _ = planted_factions_graph(
            rng.randint(8, 50), average_degree=3.5, sign_noise=0.25, seed=seed
        )
        self._assert_identical(graph, sources=rng.sample(graph.nodes(), 6))

    @pytest.mark.parametrize("max_length", (0, 1, 2, 4))
    def test_with_length_cap(self, prefix_trap_graph, max_length):
        self._assert_identical(prefix_trap_graph, max_length=max_length)

    def test_negative_max_length_rejected(self, two_factions):
        with pytest.raises(ValueError):
            balanced_depths(two_factions.csr_view(), [0], max_length=-1)

    @pytest.mark.parametrize("exact", (False, True))
    def test_rows_own_their_bytes(self, prefix_trap_graph, exact):
        """Each source's rows are copied out of the batch block: a cached
        row must not pin the block of the whole batch."""
        csr = prefix_trap_graph.csr_view()
        sources = list(range(min(4, csr.number_of_nodes())))
        for positive, negative, _flag in balanced_depths(csr, sources, exact=exact):
            assert positive.base is None and negative.base is None
            assert len(positive) == len(negative) == csr.number_of_nodes()

    @pytest.mark.parametrize("max_length", (0, 1, 2, 4, None))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario=sbph_batch_scenarios())
    def test_batched_core_matches_dict_search(self, scenario, max_length):
        """One batch of the dense core equals the dict search from every
        source of it: same depth per node, whatever else shares the batch."""
        graph, sources = scenario
        csr = graph.csr_view()
        assert csr.degrees().max() >= HUB_LEAVES
        assert len(sources) <= sbph_batch_size(csr)
        dense = [csr.index_of(source) for source in sources]
        batch = balanced_depths(csr, dense, max_length=max_length)
        search = BalancedPathSearch(graph, max_length=max_length)
        for source, source_id, (positive, negative, truncated) in zip(sources, dense, batch):
            expected = search.search_heuristic(source)
            assert depth_map(csr, positive) == expected.positive_lengths
            assert depth_map(csr, negative) == expected.negative_lengths
            assert truncated is False
            [(alone_positive, alone_negative, _flag)] = balanced_depths(
                csr, [source_id], max_length=max_length
            )
            assert alone_positive.tolist() == positive.tolist()
            assert alone_negative.tolist() == negative.tolist()

    @pytest.mark.parametrize("seed", (3, 4))
    def test_sbph_relation_matches_reference(self, seed):
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=seed
        )
        reference = ReferenceRelation("SBPH", graph)
        csr_rel = make_relation("SBPH", graph)
        for node in graph.nodes():
            assert reference.compatible_with(node) == csr_rel.compatible_with(node)
        nodes = graph.nodes()
        rng = random.Random(seed)
        for _ in range(20):
            u, v = rng.sample(nodes, 2)
            assert reference.distance(u, v) == csr_rel.positive_balanced_distance(u, v)


class TestHighDiameterGraph:
    """A 1224-node path: ~1224 BFS levels, each a fixed cost on CSR."""

    def _path_graph(self, length):
        return SignedGraph.from_edges(
            [(i, i + 1, 1 if i % 3 else -1) for i in range(length)]
        )

    def test_answers_match_reference(self):
        graph = self._path_graph(1224)
        nodes = graph.nodes()
        relation = make_relation("SPO", graph)
        reference = ReferenceRelation("SPO", graph.copy())
        sample = nodes[::97]
        assert relation.batch_compatible_sets(sample) == [
            reference.compatible_with(node) for node in sample
        ]
        assert relation.batch_compatibility_degrees(sample) == [
            reference.compatibility_degree(node) for node in sample
        ]
        team = nodes[100:1200:250]
        candidates = nodes[::31]
        assert DistanceOracle(relation).batch_distance_to_set(candidates, team) == [
            reference.distance_to_set(candidate, team) for candidate in candidates
        ]

    def test_cache_holds_only_csr_results(self):
        graph = self._path_graph(1224)
        relation = make_relation("SPO", graph)
        relation.batch_compatible_sets(graph.nodes()[:5])
        # SPO's 5-source word lands in its presence cache: read both caches.
        cached = [relation._cached_row(node) for node in graph.nodes()]
        cached = [result for result in cached if result is not None]
        assert len(cached) == 5
        assert all(isinstance(result, CSRSignedBFSResult) for result in cached)


class TestByteAwareCacheBounds:
    """Default cache sizes scale with graph size; byte estimates are exposed."""

    def test_scaled_cache_size_small_graph_keeps_ceiling(self):
        assert scaled_cache_size(2048, 100) == 2048

    def test_scaled_cache_size_huge_graph_shrinks(self):
        bound = scaled_cache_size(2048, 3_000_000)
        assert bound < 2048
        assert bound * 3_000_000 * APPROX_BYTES_PER_NODE <= (
            DEFAULT_CACHE_BUDGET_BYTES * 2  # minimum-entries clamp may exceed budget
        ) or bound == 4
        assert bound >= 4

    def test_scaled_cache_size_ceiling_caps_the_minimum(self):
        # The ceiling bounds the result even below the minimum-entries clamp.
        assert scaled_cache_size(2, 100) == 2
        assert scaled_cache_size(2048, 10**9) == 4

    @pytest.mark.parametrize(
        "num_nodes, per_source, masks", [(2_308, 1817, 4096), (100_000, 41, 2684)]
    )
    def test_bounds_derive_from_graph_size(self, num_nodes, per_source, masks):
        """Each cache's bound on a graph of ``num_nodes`` nodes: the per-source
        caches of O(n) entries share one bound, the one-byte-per-node rule
        masks get a larger one, and the degree memo keeps its 2048 ceiling."""
        graph = SignedGraph()
        for node in range(num_nodes):
            graph.add_node(node)
        spo = make_relation("SPO", graph)
        per_source_caches = [
            spo._compatible_cache,
            spo._bfs_cache,
            spo._presence_cache,
            make_relation("SBPH", graph)._result_cache,
            DistanceOracle(make_relation("NNE", graph))._bfs_cache,
            DistanceOracle(make_relation("DPE", graph))._bfs_cache,
        ]
        assert [cache.maxsize for cache in per_source_caches] == [per_source] * 6
        assert CompatibilityEngine(spo)._mask_cache.maxsize == masks
        assert spo._degree_cache.maxsize == 2048

    def test_lru_exposes_byte_estimate(self):
        cache = LRUCache(maxsize=4, bytes_per_entry=1000)
        assert cache.approx_bytes == 0
        cache["a"] = 1
        cache["b"] = 2
        assert cache.approx_bytes == 2000
        assert cache.bytes_per_entry == 1000
        assert "approx_bytes=2000" in repr(cache)

    def test_lru_without_hint_has_no_estimate(self):
        cache = LRUCache(maxsize=4)
        assert cache.approx_bytes is None

    def test_relation_default_scales_with_graph(self):
        big = SignedGraph()
        for node in range(2_000_000):
            big.add_node(node)
        relation = make_relation("SPO", big)
        assert relation._bfs_cache.maxsize < 2048
        assert relation._bfs_cache.bytes_per_entry == 2_000_000 * APPROX_BYTES_PER_NODE

    def test_fetch_batched_single_compute_call_and_write_through(self):
        cache = LRUCache(maxsize=2)
        cache["a"] = 1
        calls = []

        def compute(missing):
            calls.append(list(missing))
            return [ord(key) for key in missing]

        values = fetch_batched(cache, ["a", "b", "b", "c", "a"], compute)
        assert values == [1, ord("b"), ord("b"), ord("c"), 1]
        assert calls == [["b", "c"]]  # one call, deduplicated
        assert "c" in cache  # written through (LRU may evict earlier keys)

    def test_fetch_batched_batch_larger_than_cache(self):
        cache = LRUCache(maxsize=1)
        keys = list("abcdef")
        computed = []

        def compute(missing):
            computed.extend(missing)
            return [key.upper() for key in missing]

        values = fetch_batched(cache, keys, compute)
        assert values == [key.upper() for key in keys]
        assert computed == keys  # each computed exactly once despite eviction


class TestEngineContracts:
    """Engine construction and statistics routing."""

    def test_engine_rejects_foreign_oracle(self, toy):
        relation = make_relation("SPO", toy.graph)
        other = make_relation("SPM", toy.graph)
        with pytest.raises(ValueError):
            CompatibilityEngine(relation, oracle=DistanceOracle(other))

    def test_problem_rejects_foreign_engine(self, toy):
        from repro.skills.task import Task

        relation = make_relation("SPO", toy.graph)
        other = make_relation("SPM", toy.graph)
        with pytest.raises(ValueError):
            TeamFormationProblem(
                toy.graph,
                toy.skills,
                relation,
                Task(["python"]),
                engine=CompatibilityEngine(other),
            )

    def test_problem_builds_engine_sharing_oracle(self, toy):
        from repro.skills.task import Task

        relation = make_relation("SPO", toy.graph)
        problem = TeamFormationProblem(toy.graph, toy.skills, relation, Task(["python"]))
        assert problem.engine.relation is relation
        assert problem.engine.oracle is problem.oracle

    def test_source_sampled_statistics_via_engine(self):
        graph, _ = planted_factions_graph(
            40, average_degree=4.0, sign_noise=0.2, seed=9
        )
        relation = make_relation("SPO", graph)
        engine = CompatibilityEngine(relation)
        direct = source_sampled_pair_statistics(relation, 8, seed=3)
        routed = source_sampled_pair_statistics(relation, 8, seed=3, engine=engine)
        assert direct == routed

    def test_source_sampled_statistics_rejects_foreign_engine(self, toy):
        relation = make_relation("SPO", toy.graph)
        other = make_relation("SPM", toy.graph)
        with pytest.raises(ValueError):
            source_sampled_pair_statistics(
                relation, 4, engine=CompatibilityEngine(other)
            )

    def test_clear_caches_refreshes_distances_after_mutation(self):
        graph = SignedGraph.from_edges([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        relation = make_relation("SPO", graph)
        engine = CompatibilityEngine(relation)
        assert engine.distance(0, 4) == 4.0  # caches the BFS map from 0
        graph.add_edge(0, 4, 1)
        engine.clear_caches()  # must drop the oracle's distance maps too
        assert engine.distance(0, 4) == 1.0

    def test_compatible_from_many_survives_stale_snapshot(self):
        # A mutation without clear_cache leaves cached BFS results bound to an
        # older CSR snapshot; the filter must fall back to per-pair checks on
        # the result's own index instead of mis-indexing the new snapshot.
        graph, _ = planted_factions_graph(
            30, average_degree=4.0, sign_noise=0.2, seed=61
        )
        relation = make_relation("SPO", graph)
        engine = CompatibilityEngine(relation)
        nodes = graph.nodes()
        team = nodes[:2]
        first = engine.compatible_from_many(nodes[2:12], team)
        new_node = max(n for n in nodes if isinstance(n, int)) + 1
        graph.add_edge(nodes[0], new_node, 1)
        # Same query, stale per-member caches: must not raise, and must agree
        # with the per-pair loop over the same (stale) relation caches.
        again = engine.compatible_from_many(nodes[2:12], team)
        reference = frozenset(
            c
            for c in nodes[2:12]
            if c not in team
            and all(relation.are_compatible(m, c) for m in team)
        )
        assert again == reference
        engine.clear_caches()
        assert engine.compatible_from_many(nodes[2:12], team) is not None
        assert first is not None


class TestMostCompatibleUnderTinyCache:
    """The batched compatible-set prefetch must not depend on cache capacity."""

    @pytest.mark.parametrize("relation_name", ("SPO", "SBPH", "NNE"))
    def test_selection_identical_with_evicting_cache(self, relation_name, cache_ceilings):
        graph, _ = planted_factions_graph(
            50, average_degree=4.0, sign_noise=0.2, seed=71
        )
        skills = assign_skills_zipf(
            graph.nodes(), num_skills=6, skills_per_user=2.5, seed=72
        )
        tasks = random_tasks(skills, size=3, count=2, seed=73)
        roomy = make_relation(relation_name, graph)
        # A one-entry compatible-set cache models the byte-aware bound on a
        # huge graph: far smaller than the candidate list, so scoring must
        # use the batch's returned sets, not cache re-lookups.
        cache_ceilings(compatible=1)
        tiny = make_relation(relation_name, graph)
        assert tiny._compatible_cache.maxsize == 1
        for task in tasks:
            tiny_problem = TeamFormationProblem(graph, skills, tiny, task)
            roomy_problem = TeamFormationProblem(graph, skills, roomy, task)
            got = run_algorithm("LCMC", tiny_problem, max_seeds=4, seed=17)
            expected = run_algorithm("LCMC", roomy_problem, max_seeds=4, seed=17)
            assert got.team == expected.team
            assert got.cost == expected.cost

