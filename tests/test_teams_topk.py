"""Tests for top-k / diverse team formation (:mod:`repro.teams.topk`).

The contract under test: ``top_k_teams`` runs the same seed loop as
``form_team`` — warmed through the batched compatibility engine — and ranks
the completed candidates stably by ``(cost, team size)``, so ``k=1`` is
*exactly* ``form_team`` (same team, same cost), under every relation.
"""

from __future__ import annotations

import pytest

from repro.compatibility import make_relation
from repro.skills import Task
from repro.teams import TeamFormationProblem, team_covers_task, team_is_compatible
from repro.teams.generic import form_team
from repro.teams.policies import (
    LeastCompatibleSkillFirst,
    MinimumDistanceUser,
    MostCompatibleUser,
    RarestSkillFirst,
)
from repro.teams.topk import diverse_top_k_teams, top_k_teams

POLICY_PAIRS = [
    (LeastCompatibleSkillFirst, MinimumDistanceUser),
    (LeastCompatibleSkillFirst, MostCompatibleUser),
    (RarestSkillFirst, MinimumDistanceUser),
]

TASK_SKILLS = ["python", "databases", "design", "writing"]


def make_problem(dataset, relation_name, skills=TASK_SKILLS):
    relation = make_relation(relation_name, dataset.graph)
    return TeamFormationProblem(dataset.graph, dataset.skills, relation, Task(skills))


class TestTopKTeams:
    @pytest.mark.parametrize("relation_name", ["SPA", "SPO", "NNE", "SBPH"])
    @pytest.mark.parametrize("policies", POLICY_PAIRS)
    def test_k1_equals_form_team(self, toy, relation_name, policies):
        skill_policy_class, user_policy_class = policies
        problem = make_problem(toy, relation_name)
        reference = form_team(problem, skill_policy_class(), user_policy_class())
        top = top_k_teams(problem, skill_policy_class(), user_policy_class(), k=1)
        if reference.team is None:
            assert top == []
        else:
            assert len(top) == 1
            assert top[0][0] == reference.team
            assert top[0][1] == reference.cost

    def test_results_are_valid_distinct_and_sorted(self, toy):
        problem = make_problem(toy, "SPO")
        ranked = top_k_teams(problem, LeastCompatibleSkillFirst(), MinimumDistanceUser(), k=5)
        assert ranked
        costs = [cost for _team, cost in ranked]
        assert costs == sorted(costs)
        teams = [team for team, _cost in ranked]
        assert len(set(teams)) == len(teams)
        for team, cost in ranked:
            assert team_covers_task(team, problem.task, toy.skills)
            assert team_is_compatible(team, problem.relation)
            assert cost == problem.oracle.max_pairwise_distance(team)

    def test_deterministic_across_calls(self, toy):
        problem = make_problem(toy, "SPO")
        first = top_k_teams(problem, RarestSkillFirst(), MinimumDistanceUser(), k=4)
        second = top_k_teams(problem, RarestSkillFirst(), MinimumDistanceUser(), k=4)
        assert first == second

    def test_k_validation(self, toy):
        problem = make_problem(toy, "SPO")
        with pytest.raises(ValueError):
            top_k_teams(problem, RarestSkillFirst(), MinimumDistanceUser(), k=0)

    def test_seed_maps_are_warmed_through_the_engine(self, toy):
        """The seed loop prefetches its seed users' distance maps in one
        batched engine sweep (the same contract form_team has)."""
        problem = make_problem(toy, "SPO")
        warmed = []
        original = problem.engine.warm

        def recording_warm(sources):
            warmed.append(list(sources))
            return original(sources)

        problem.engine.warm = recording_warm
        top_k_teams(problem, LeastCompatibleSkillFirst(), MinimumDistanceUser(), k=2)
        assert warmed and warmed[0]


class TestDiverseTopK:
    def test_overlap_bound_holds(self, toy):
        problem = make_problem(toy, "SPO")
        kept = diverse_top_k_teams(
            problem,
            LeastCompatibleSkillFirst(),
            MinimumDistanceUser(),
            k=3,
            max_overlap=0.5,
        )
        for i, (team_a, _) in enumerate(kept):
            for team_b, _ in kept[i + 1 :]:
                union = team_a | team_b
                assert len(team_a & team_b) / len(union) <= 0.5

    def test_first_team_matches_top1(self, toy):
        problem = make_problem(toy, "SPO")
        top = top_k_teams(problem, LeastCompatibleSkillFirst(), MinimumDistanceUser(), k=1)
        kept = diverse_top_k_teams(
            problem, LeastCompatibleSkillFirst(), MinimumDistanceUser(), k=3
        )
        assert kept[0] == top[0]

    def test_max_overlap_validation(self, toy):
        problem = make_problem(toy, "SPO")
        with pytest.raises(ValueError):
            diverse_top_k_teams(
                problem,
                LeastCompatibleSkillFirst(),
                MinimumDistanceUser(),
                max_overlap=1.5,
            )
