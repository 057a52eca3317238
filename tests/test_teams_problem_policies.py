"""Tests for the TFSN problem object, cost functions and selection policies."""

from __future__ import annotations

import pytest

from repro.compatibility import DistanceOracle, make_relation
from repro.exceptions import InfeasibleTaskError
from repro.skills import SkillAssignment, Task
from repro.teams import (
    COST_FUNCTIONS,
    LeastCompatibleSkillFirst,
    MinimumDistanceUser,
    MostCompatibleUser,
    RandomUser,
    RarestSkillFirst,
    TeamFormationProblem,
    cardinality_cost,
    diameter_cost,
    get_cost_function,
    sum_distance_cost,
)


@pytest.fixture
def toy_problem(toy):
    relation = make_relation("SPO", toy.graph)
    task = Task(["python", "databases", "design"])
    return TeamFormationProblem(toy.graph, toy.skills, relation, task)


class TestProblem:
    def test_candidates_for_skill(self, toy_problem, toy):
        candidates = toy_problem.candidates_for_skill("python")
        assert candidates == toy.skills.users_with("python")

    def test_compatible_candidates_exclude_team_and_incompatible(self, toy):
        relation = make_relation("DPE", toy.graph)
        problem = TeamFormationProblem(
            toy.graph, toy.skills, relation, Task(["databases"])
        )
        candidates = problem.compatible_candidates("databases", ["ana"])
        # DPE: only direct friends of ana holding 'databases' qualify.
        assert candidates == frozenset({"bob", "cat"})

    def test_infeasible_task_rejected(self, toy):
        relation = make_relation("SPO", toy.graph)
        with pytest.raises(InfeasibleTaskError):
            TeamFormationProblem(toy.graph, toy.skills, relation, Task(["quantum"]))

    def test_relation_graph_mismatch_rejected(self, toy, two_factions):
        relation = make_relation("SPO", two_factions)
        with pytest.raises(ValueError):
            TeamFormationProblem(toy.graph, toy.skills, relation, Task(["python"]))

    def test_skill_index_is_lazy_and_cached(self, toy_problem):
        assert toy_problem.skill_index is toy_problem.skill_index

    def test_result_repr_and_properties(self, toy_problem):
        from repro.teams import lcmd

        result = lcmd(toy_problem)
        assert result.solved
        assert result.team_size == len(result.team)
        assert "LCMD" in repr(result)


class TestCostFunctions:
    def test_diameter_cost(self, toy):
        oracle = DistanceOracle(make_relation("NNE", toy.graph))
        assert diameter_cost(oracle, ["ana", "bob", "cat"]) == 1.0
        assert diameter_cost(oracle, ["ana"]) == 0.0

    def test_sum_distance_cost(self, toy):
        oracle = DistanceOracle(make_relation("NNE", toy.graph))
        assert sum_distance_cost(oracle, ["ana", "bob", "cat"]) == 3.0

    def test_cardinality_cost(self, toy):
        oracle = DistanceOracle(make_relation("NNE", toy.graph))
        assert cardinality_cost(oracle, ["ana", "bob"]) == 2.0

    def test_registry_lookup(self):
        assert get_cost_function("DIAMETER") is diameter_cost
        assert set(COST_FUNCTIONS) == {"diameter", "sum_distance", "cardinality"}
        with pytest.raises(KeyError):
            get_cost_function("unknown")


class TestSkillPolicies:
    def test_rarest_skill_first(self, toy_problem):
        policy = RarestSkillFirst()
        # 'design' is held by 3 users, 'python' by 4, 'databases' by 3 — the
        # policy must pick one of the rarest (ties broken by name).
        chosen = policy.select(toy_problem, {"python", "databases", "design"}, [])
        frequencies = {
            skill: toy_problem.assignment.skill_frequency(skill)
            for skill in ("python", "databases", "design")
        }
        assert frequencies[chosen] == min(frequencies.values())

    def test_least_compatible_skill_first_deterministic(self, toy_problem):
        policy = LeastCompatibleSkillFirst()
        first = policy.select(toy_problem, set(toy_problem.task.skills), [])
        second = policy.select(toy_problem, set(toy_problem.task.skills), [])
        assert first == second
        assert first in toy_problem.task.skills

    def test_least_compatible_prefers_isolated_skill(self, two_factions):
        # Under SPA on the balanced two-faction graph, users are compatible iff
        # they belong to the same faction.  Skill "c" is held only by node 5,
        # whose faction contains few holders of the other skills, so cd(c) is
        # the smallest and "c" must be selected first.
        skills = SkillAssignment(
            {0: {"a"}, 1: {"a"}, 2: {"b"}, 3: {"b"}, 5: {"c"}}
        )
        relation = make_relation("SPA", two_factions)
        problem = TeamFormationProblem(
            two_factions, skills, relation, Task(["a", "b", "c"])
        )
        chosen = LeastCompatibleSkillFirst().select(problem, {"a", "b", "c"}, [])
        assert chosen == "c"


class TestRemovedSkillHolders:
    """A task skill whose holder left the graph: LCMD/LCMC count only the
    holders still present, like RFMD and ``candidates_for_skill``."""

    EDGES = [(1, 2, +1), (2, 3, +1), (3, 4, +1), (1, 4, -1), (4, 5, +1)]
    HOLDERS = {"x": {1, 3}, "y": {2, 5}, "z": {3, 4}}

    @staticmethod
    def _assignment(holders):
        users = {}
        for skill, members in holders.items():
            for user in members:
                users.setdefault(user, set()).add(skill)
        return SkillAssignment(users)

    @pytest.mark.parametrize("relation_name", ["SPO", "NNE", "SPA", "SBPH"])
    @pytest.mark.parametrize("algorithm", ["LCMD", "LCMC"])
    def test_matches_a_graph_built_without_the_holder(self, relation_name, algorithm):
        from repro.signed import SignedGraph
        from repro.teams import run_algorithm

        churned = SignedGraph.from_edges(self.EDGES)
        churned.remove_node(5)
        fresh = SignedGraph.from_edges([edge for edge in self.EDGES if 5 not in edge[:2]])
        without_five = {skill: members - {5} for skill, members in self.HOLDERS.items()}
        task = Task(["x", "y", "z"])
        results = []
        for graph, holders in ((churned, self.HOLDERS), (fresh, without_five)):
            problem = TeamFormationProblem(
                graph, self._assignment(holders), make_relation(relation_name, graph), task
            )
            results.append(run_algorithm(algorithm, problem))
        churned_result, fresh_result = results
        assert churned_result.solved
        assert churned_result.team == fresh_result.team
        assert churned_result.cost == fresh_result.cost

    def test_skill_index_ignores_missing_holders(self):
        from repro.compatibility import SkillCompatibilityIndex
        from repro.signed import SignedGraph

        graph = SignedGraph.from_edges(self.EDGES)
        index = SkillCompatibilityIndex(
            make_relation("SPO", graph), self._assignment(self.HOLDERS)
        )
        # Under SPO both y holders are compatible with both z holders (2-4
        # has one positive shortest path, 2-3-4).
        assert index.pair_degree("y", "z") == 4
        graph.remove_node(5)
        assert index.pair_degree("y", "z") == 2
        assert index.skills_compatible("y", "z")
        assert index.skill_degree("y", others=["x", "y", "z"]) == (
            index.pair_degree("y", "x") + 2
        )

    def test_problems_read_the_skill_index_holders(self):
        from repro.compatibility import SkillCompatibilityIndex
        from repro.signed import SignedGraph

        graph = SignedGraph.from_edges(self.EDGES)
        assignment = self._assignment(self.HOLDERS)
        relation = make_relation("SPO", graph)
        index = SkillCompatibilityIndex(relation, assignment)
        task = Task(["x", "y", "z"])
        problems = [
            TeamFormationProblem(graph, assignment, relation, task, skill_index=index)
            for _ in range(2)
        ]
        assert problems[0].candidates_for_skill("y") is index.holders("y")
        assert problems[1].candidates_for_skill("y") == frozenset({2, 5})
        graph.remove_node(5)
        assert problems[1].candidates_for_skill("y") == frozenset({2})
        assert problems[0].candidates_for_skill("y") is index.holders("y")

    def test_skill_index_on_another_relation_is_refused(self):
        from repro.compatibility import SkillCompatibilityIndex
        from repro.signed import SignedGraph

        graph = SignedGraph.from_edges(self.EDGES)
        assignment = self._assignment(self.HOLDERS)
        relation = make_relation("SPO", graph)
        task = Task(["x", "y"])
        for index in (
            SkillCompatibilityIndex(make_relation("SPA", graph), assignment),
            SkillCompatibilityIndex(relation, self._assignment(self.HOLDERS)),
        ):
            with pytest.raises(ValueError, match="skill index"):
                TeamFormationProblem(graph, assignment, relation, task, skill_index=index)


class TestUserPolicies:
    def test_minimum_distance_prefers_closest(self, toy):
        relation = make_relation("SPO", toy.graph)
        problem = TeamFormationProblem(toy.graph, toy.skills, relation, Task(["writing"]))
        policy = MinimumDistanceUser()
        # Team = {jon}; candidates with 'writing' are hal, ivy, kim.
        chosen = policy.select(
            problem, frozenset({"hal", "ivy", "kim"}), ["jon"], {"writing"}
        )
        oracle = problem.oracle
        distances = {user: oracle.distance("jon", user) for user in ("hal", "ivy", "kim")}
        assert distances[chosen] == min(distances.values())

    def test_minimum_distance_empty_team_prefers_coverage(self, toy):
        relation = make_relation("SPO", toy.graph)
        task = Task(["python", "databases"])
        problem = TeamFormationProblem(toy.graph, toy.skills, relation, task)
        chosen = MinimumDistanceUser().select(
            problem, frozenset({"ana", "bob"}), [], set(task.skills)
        )
        assert chosen == "bob"  # bob covers both task skills

    def test_most_compatible_scores_against_remaining_holders(self, toy):
        relation = make_relation("SPO", toy.graph)
        problem = TeamFormationProblem(
            toy.graph, toy.skills, relation, Task(["python", "writing"])
        )
        policy = MostCompatibleUser()
        chosen = policy.select(
            problem, frozenset({"ana", "bob", "eve", "jon"}), [], {"writing"}
        )
        assert chosen in {"ana", "bob", "eve", "jon"}

    def test_most_compatible_candidate_cap(self, toy):
        relation = make_relation("SPO", toy.graph)
        problem = TeamFormationProblem(toy.graph, toy.skills, relation, Task(["python"]))
        policy = MostCompatibleUser(seed=1, max_candidates=2)
        chosen = policy.select(
            problem, frozenset({"ana", "bob", "eve", "jon"}), [], set()
        )
        assert chosen in {"ana", "bob", "eve", "jon"}

    def test_most_compatible_invalid_cap(self):
        with pytest.raises(ValueError):
            MostCompatibleUser(max_candidates=0)

    def test_random_user_is_seed_deterministic(self, toy):
        relation = make_relation("SPO", toy.graph)
        problem = TeamFormationProblem(toy.graph, toy.skills, relation, Task(["python"]))
        candidates = frozenset({"ana", "bob", "eve", "jon"})
        first = RandomUser(seed=9).select(problem, candidates, [], set())
        second = RandomUser(seed=9).select(problem, candidates, [], set())
        assert first == second
        assert first in candidates
