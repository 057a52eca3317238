"""The generic greedy team-formation algorithm (Algorithm 2 of the paper).

The algorithm seeds one candidate team per user possessing the first selected
skill, then grows each candidate greedily: repeatedly select an uncovered
skill (skill policy), select a user with that skill who is compatible with
every current member (user policy), and add them.  A candidate that gets stuck
(no compatible user has the needed skill) is abandoned — the algorithm does
not backtrack.  Among the completed candidates, the one with the smallest
communication cost is returned.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Set

from repro.signed.graph import Node
from repro.skills.assignment import Skill
from repro.teams.cost import CostFunction, diameter_cost
from repro.teams.policies import SkillSelectionPolicy, UserSelectionPolicy
from repro.teams.problem import TeamFormationProblem, TeamFormationResult
from repro.utils.rng import RandomState, ensure_rng


def form_team(
    problem: TeamFormationProblem,
    skill_policy: SkillSelectionPolicy,
    user_policy: UserSelectionPolicy,
    cost_function: CostFunction = diameter_cost,
    max_seeds: Optional[int] = None,
    algorithm_name: Optional[str] = None,
    seed: RandomState = None,
) -> TeamFormationResult:
    """Run Algorithm 2 on ``problem`` with the given policies.

    Parameters
    ----------
    problem:
        The TFSN instance to solve.
    skill_policy / user_policy:
        The two placeholder policies of Algorithm 2.
    cost_function:
        Cost used to pick the best completed candidate (default: diameter).
    max_seeds:
        Optional cap on the number of seed users tried for the first skill
        (useful on graphs where the first skill is very frequent); ``None``
        tries them all, like the paper's pseudo-code.
    algorithm_name:
        Label recorded in the result (defaults to the policy names).
    seed:
        Used only to subsample seeds when ``max_seeds`` is set.

    Returns
    -------
    TeamFormationResult
        With ``team=None`` and ``cost=inf`` when no candidate completed.
    """
    name = algorithm_name or f"{skill_policy.name}+{user_policy.name}"
    task_skills = set(problem.task.skills)

    first_skill = skill_policy.select(problem, set(task_skills), team=())
    seeds = sorted(problem.candidates_for_skill(first_skill), key=repr)
    if max_seeds is not None and len(seeds) > max_seeds:
        rng = ensure_rng(seed)
        seeds = rng.sample(seeds, max_seeds)

    # Every seed becomes the first team member, so its per-source computation
    # (one signed BFS under the SP* relations) is needed by the very first
    # candidate filter of its growth loop; warming them through the engine
    # runs one multi-source batch instead of one BFS per seed.
    problem.engine.warm(seeds)

    completed: List[FrozenSet[Node]] = []
    seeds_tried = 0
    for seed_user in seeds:
        seeds_tried += 1
        candidate = _grow_candidate(problem, seed_user, task_skills, skill_policy, user_policy)
        if candidate is not None:
            completed.append(candidate)

    if not completed:
        return TeamFormationResult(
            algorithm=name,
            relation_name=problem.relation.name,
            task=problem.task,
            team=None,
            cost=float("inf"),
            seeds_tried=seeds_tried,
            candidates_completed=0,
        )

    # One cost evaluation per candidate; the index keeps min()'s
    # first-of-equals choice without ever comparing the frozensets.
    best_cost, _, best_index = min(
        (cost_function(problem.oracle, team), len(team), index)
        for index, team in enumerate(completed)
    )
    return TeamFormationResult(
        algorithm=name,
        relation_name=problem.relation.name,
        task=problem.task,
        team=completed[best_index],
        cost=best_cost,
        seeds_tried=seeds_tried,
        candidates_completed=len(completed),
    )


def _grow_candidate(
    problem: TeamFormationProblem,
    seed_user: Node,
    task_skills: Set[Skill],
    skill_policy: SkillSelectionPolicy,
    user_policy: UserSelectionPolicy,
) -> Optional[FrozenSet[Node]]:
    """Grow one candidate team from ``seed_user``; return it or ``None`` if stuck."""
    team: List[Node] = [seed_user]
    covered = problem.assignment.skills_of(seed_user) & task_skills
    while covered != task_skills:
        uncovered = task_skills - covered
        skill = skill_policy.select(problem, set(uncovered), team)
        candidates = problem.compatible_candidates(skill, team)
        if not candidates:
            return None
        user = user_policy.select(problem, candidates, team, set(uncovered))
        team.append(user)
        covered |= problem.assignment.skills_of(user) & task_skills
    return frozenset(team)
