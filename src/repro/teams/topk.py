"""Top-k and diverse team formation.

The related work the paper builds on (Kargar & An, CIKM 2011) asks for the
*top-k* teams of experts rather than a single one — useful when a project
manager wants alternatives to choose from.  This module extends Algorithm 2
accordingly:

* :func:`top_k_teams` — the k best distinct completed candidate teams of
  Algorithm 2, ordered by communication cost;
* :func:`diverse_top_k_teams` — a greedy diversification pass that additionally
  bounds the pairwise member overlap between returned teams, so the
  alternatives are genuinely different people.

The seed loop warms its seed users through the batched execution engine
(:meth:`repro.compatibility.engine.CompatibilityEngine.warm`) exactly like
:func:`repro.teams.generic.form_team`, so the per-source kernels run as one
multi-source batch instead of one BFS per seed.  Ranking is stable on
``(cost, len(team))`` with costs computed once per distinct team, so
``top_k_teams(..., k=1)`` returns exactly the team
:func:`~repro.teams.generic.form_team` would pick.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.signed.graph import Node
from repro.skills.assignment import Skill
from repro.teams.cost import CostFunction, diameter_cost
from repro.teams.policies import SkillSelectionPolicy, UserSelectionPolicy
from repro.teams.problem import TeamFormationProblem
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive, require_probability


def _completed_candidates(
    problem: TeamFormationProblem,
    skill_policy: SkillSelectionPolicy,
    user_policy: UserSelectionPolicy,
    max_seeds: Optional[int],
    seed: RandomState,
) -> List[FrozenSet[Node]]:
    """Run the seed loop of Algorithm 2 and return every completed candidate team."""
    from repro.teams.generic import _grow_candidate  # shared growth procedure

    task_skills = set(problem.task.skills)
    first_skill = skill_policy.select(problem, set(task_skills), team=())
    seeds = sorted(problem.candidates_for_skill(first_skill), key=repr)
    if max_seeds is not None and len(seeds) > max_seeds:
        rng = ensure_rng(seed)
        seeds = rng.sample(seeds, max_seeds)
    # Same batched prefetch as form_team: one multi-source sweep for
    # the seeds' per-source computations.
    problem.engine.warm(seeds)
    candidates: List[FrozenSet[Node]] = []
    for seed_user in seeds:
        candidate = _grow_candidate(problem, seed_user, task_skills, skill_policy, user_policy)
        if candidate is not None:
            candidates.append(candidate)
    return candidates


def top_k_teams(
    problem: TeamFormationProblem,
    skill_policy: SkillSelectionPolicy,
    user_policy: UserSelectionPolicy,
    k: int = 3,
    cost_function: CostFunction = diameter_cost,
    max_seeds: Optional[int] = None,
    seed: RandomState = None,
) -> List[Tuple[FrozenSet[Node], float]]:
    """Return up to ``k`` distinct candidate teams, cheapest first.

    Every returned team covers the task and is pairwise compatible (they are
    completed candidates of Algorithm 2); ties are broken by team size and
    then by seed order (the sort is stable over the deterministic seed loop),
    so ``k=1`` reproduces :func:`repro.teams.generic.form_team` exactly.
    """
    require_positive(k, "k")
    candidates = _completed_candidates(problem, skill_policy, user_policy, max_seeds, seed)
    # Order-preserving dedupe: keep each team at its first-seed position so
    # the stable sort below breaks (cost, size) ties exactly like form_team's
    # min() over the seed loop.
    unique = list(dict.fromkeys(candidates))
    scored = [(team, cost_function(problem.oracle, team)) for team in unique]
    scored.sort(key=lambda entry: (entry[1], len(entry[0])))
    return scored[:k]


def diverse_top_k_teams(
    problem: TeamFormationProblem,
    skill_policy: SkillSelectionPolicy,
    user_policy: UserSelectionPolicy,
    k: int = 3,
    max_overlap: float = 0.5,
    cost_function: CostFunction = diameter_cost,
    max_seeds: Optional[int] = None,
    seed: RandomState = None,
) -> List[Tuple[FrozenSet[Node], float]]:
    """Like :func:`top_k_teams` but enforcing bounded member overlap.

    Teams are considered cheapest-first; a team is kept only if its Jaccard
    overlap with every already-kept team is at most ``max_overlap``.  Fewer
    than ``k`` teams may be returned when the candidate pool is small.
    """
    require_positive(k, "k")
    require_probability(max_overlap, "max_overlap")
    ranked = top_k_teams(
        problem,
        skill_policy,
        user_policy,
        k=10 * k,
        cost_function=cost_function,
        max_seeds=max_seeds,
        seed=seed,
    )
    kept: List[Tuple[FrozenSet[Node], float]] = []
    for team, cost in ranked:
        if all(_jaccard(team, existing) <= max_overlap for existing, _ in kept):
            kept.append((team, cost))
        if len(kept) == k:
            break
    return kept


def _jaccard(first: FrozenSet[Node], second: FrozenSet[Node]) -> float:
    union = first | second
    if not union:
        return 0.0
    return len(first & second) / len(union)
