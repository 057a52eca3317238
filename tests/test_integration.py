"""End-to-end integration tests crossing all subsystems.

These tests follow the same pipeline a library user (or the experiment
harness) follows: generate a dataset, build compatibility relations, form
teams, compare against baselines — and check the cross-module invariants the
paper relies on.
"""

from __future__ import annotations

import pytest

from repro.compatibility import (
    DistanceOracle,
    SkillCompatibilityIndex,
    exact_pair_statistics,
    make_relation,
    task_has_compatible_skills,
)
from repro.datasets import load_dataset, slashdot_like
from repro.skills.task import random_tasks
from repro.teams import (
    ALGORITHM_NAMES,
    TeamFormationProblem,
    fraction_of_compatible_teams,
    run_algorithm,
    run_unsigned_baseline,
    solve_exact,
    team_covers_task,
    team_is_compatible,
)


@pytest.fixture(scope="module")
def slashdot_small():
    return slashdot_like(seed=13, scale=0.4)


@pytest.fixture(scope="module")
def relations(slashdot_small):
    return {
        name: make_relation(name, slashdot_small.graph)
        for name in ("SPA", "SPM", "SPO", "SBPH", "NNE")
    }


class TestRelationPipeline:
    def test_relaxation_ordering_of_pair_fractions(self, relations):
        fractions = {
            name: exact_pair_statistics(relation).fraction
            for name, relation in relations.items()
        }
        assert fractions["SPA"] <= fractions["SPM"] <= fractions["SPO"]
        assert fractions["SPO"] <= fractions["NNE"]
        assert fractions["SBPH"] <= fractions["NNE"]

    def test_all_relations_satisfy_required_properties(self, relations):
        for relation in relations.values():
            assert relation.is_valid_relation()


class TestTeamFormationPipeline:
    def test_every_algorithm_returns_valid_teams(self, slashdot_small, relations):
        tasks = random_tasks(slashdot_small.skills, size=3, count=5, seed=1)
        relation = relations["SPO"]
        oracle = DistanceOracle(relation)
        for task in tasks:
            problem = TeamFormationProblem(
                slashdot_small.graph, slashdot_small.skills, relation, task, oracle=oracle
            )
            for name in ALGORITHM_NAMES:
                result = run_algorithm(name, problem, max_seeds=8, seed=3)
                if result.solved:
                    assert team_covers_task(result.team, task, slashdot_small.skills)
                    assert team_is_compatible(result.team, relation)
                    assert result.cost >= 0.0

    def test_stricter_relations_solve_no_more_tasks(self, slashdot_small, relations):
        tasks = random_tasks(slashdot_small.skills, size=4, count=8, seed=5)
        solved = {}
        for name in ("SPA", "SPO", "NNE"):
            relation = relations[name]
            oracle = DistanceOracle(relation)
            count = 0
            for task in tasks:
                problem = TeamFormationProblem(
                    slashdot_small.graph, slashdot_small.skills, relation, task, oracle=oracle
                )
                if run_algorithm("LCMD", problem, max_seeds=8).solved:
                    count += 1
            solved[name] = count
        # The greedy algorithm is not guaranteed monotone, but on aggregate the
        # relaxation ordering should show through with a small tolerance.
        assert solved["SPA"] <= solved["SPO"] + 1
        assert solved["SPO"] <= solved["NNE"] + 1

    def test_greedy_vs_exact_on_toy_tasks(self):
        toy = load_dataset("toy")
        relation = make_relation("SPO", toy.graph)
        for skills in (["python", "writing"], ["databases", "frontend"], ["devops", "design"]):
            from repro.skills import Task

            problem = TeamFormationProblem(toy.graph, toy.skills, relation, Task(skills))
            exact = solve_exact(problem)
            greedy = run_algorithm("LCMD", problem)
            assert exact.solved == greedy.solved or exact.solved
            if exact.solved and greedy.solved:
                assert exact.cost <= greedy.cost + 1e-9

    def test_unsigned_baseline_produces_fewer_compatible_teams(self, slashdot_small, relations):
        tasks = random_tasks(slashdot_small.skills, size=4, count=8, seed=11)
        baseline_results = run_unsigned_baseline(
            slashdot_small.graph, slashdot_small.skills, tasks, "ignore_sign"
        )
        baseline_teams = [entry.team for entry in baseline_results]
        strict_fraction = fraction_of_compatible_teams(baseline_teams, relations["SPA"])
        relaxed_fraction = fraction_of_compatible_teams(baseline_teams, relations["NNE"])
        assert strict_fraction <= relaxed_fraction + 1e-9

    def test_max_upper_bound_consistency(self, slashdot_small, relations):
        # If a task's skills are not pairwise compatible, no algorithm may
        # return a compatible covering team (MAX really is an upper bound).
        relation = relations["SPA"]
        index = SkillCompatibilityIndex(relation, slashdot_small.skills)
        oracle = DistanceOracle(relation)
        tasks = random_tasks(slashdot_small.skills, size=4, count=10, seed=17)
        for task in tasks:
            if task_has_compatible_skills(index, task.skills):
                continue
            problem = TeamFormationProblem(
                slashdot_small.graph, slashdot_small.skills, relation, task, oracle=oracle
            )
            result = run_algorithm("LCMD", problem, max_seeds=8)
            assert not result.solved
