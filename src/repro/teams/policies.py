"""Skill-selection and user-selection policies for Algorithm 2.

Algorithm 2 of the paper has two placeholders:

* which uncovered **skill** to cover next — *rarest first* (as in Lappas et
  al.) or *least compatible first* (smallest compatibility degree ``cd(s)``);
* which compatible **user** with that skill to add — *minimum distance* to the
  current team, *most compatible* with the users still needed, or *random*.

Policies are small stateless objects so the generic algorithm can be composed
with any pair of them; the named algorithms of the paper (LCMD, LCMC, ...) are
specific pairings defined in :mod:`repro.teams.algorithms`.
"""

from __future__ import annotations

import abc
from typing import FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set

from repro.signed.graph import Node
from repro.skills.assignment import Skill
from repro.teams.problem import TeamFormationProblem
from repro.utils.rng import RandomState, ensure_rng


class SkillSelectionPolicy(abc.ABC):
    """Chooses which uncovered skill Algorithm 2 should cover next."""

    name: str = "abstract-skill-policy"

    @abc.abstractmethod
    def select(
        self,
        problem: TeamFormationProblem,
        uncovered_skills: Set[Skill],
        team: Sequence[Node],
    ) -> Skill:
        """Return one skill from ``uncovered_skills`` (which is never empty)."""

    @staticmethod
    def _deterministic(skills: Iterable[Skill]) -> List[Skill]:
        """Sort skills by name so ties break deterministically."""
        return sorted(skills, key=str)


class RarestSkillFirst(SkillSelectionPolicy):
    """Pick the uncovered skill owned by the fewest users (as in Lappas et al.)."""

    name = "rarest-skill"

    def select(
        self,
        problem: TeamFormationProblem,
        uncovered_skills: Set[Skill],
        team: Sequence[Node],
    ) -> Skill:
        ordered = self._deterministic(uncovered_skills)
        return min(ordered, key=problem.assignment.skill_frequency)


class LeastCompatibleSkillFirst(SkillSelectionPolicy):
    """Pick the uncovered skill with the smallest compatibility degree ``cd(s)``.

    The degree is computed against the task's skills only (the skills the team
    still has to reconcile), which keeps the policy cheap and focuses it on the
    actual bottleneck: the skill whose owners are hardest to pair with owners
    of the other required skills.
    """

    name = "least-compatible-skill"

    def select(
        self,
        problem: TeamFormationProblem,
        uncovered_skills: Set[Skill],
        team: Sequence[Node],
    ) -> Skill:
        index = problem.skill_index
        task_skills = list(problem.task.skills)
        ordered = self._deterministic(uncovered_skills)
        return min(
            ordered,
            key=lambda skill: (index.skill_degree(skill, others=task_skills), str(skill)),
        )


class UserSelectionPolicy(abc.ABC):
    """Chooses which compatible candidate user to add for the selected skill."""

    name: str = "abstract-user-policy"

    def __init__(self, seed: RandomState = None) -> None:
        self._rng = ensure_rng(seed)

    @abc.abstractmethod
    def select(
        self,
        problem: TeamFormationProblem,
        candidates: FrozenSet[Node],
        team: Sequence[Node],
        uncovered_skills: Set[Skill],
    ) -> Node:
        """Return one user from ``candidates`` (which is never empty)."""

    @staticmethod
    def _deterministic(candidates: Iterable[Node]) -> List[Node]:
        """Sort candidates by repr so ties break deterministically."""
        return sorted(candidates, key=repr)


class MinimumDistanceUser(UserSelectionPolicy):
    """Pick the candidate closest to the current team (minimising the cost growth).

    The distance to the team is the largest distance to any current member —
    the same quantity the diameter cost penalises.  For an empty team the
    policy falls back to the candidate with the most skills from the task,
    although Algorithm 2 never calls it with an empty team (seeds are fixed).
    """

    name = "min-distance-user"

    def select(
        self,
        problem: TeamFormationProblem,
        candidates: FrozenSet[Node],
        team: Sequence[Node],
        uncovered_skills: Set[Skill],
    ) -> Node:
        ordered = self._deterministic(candidates)
        if not team:
            return max(
                ordered,
                key=lambda user: len(problem.assignment.skills_of(user) & problem.task.skills),
            )
        # One batched engine call scores every candidate against the team
        # (multi-source BFS + array maxima over dense rows); the stable argmin
        # over the deterministic ordering matches the legacy per-candidate
        # min() exactly.
        scores = problem.engine.distances_to_team_many(ordered, list(team))
        best = min(range(len(ordered)), key=scores.__getitem__)
        return ordered[best]


class MostCompatibleUser(UserSelectionPolicy):
    """Pick the candidate compatible with the most users holding still-needed skills.

    This is the policy that "aims at maximizing the chances of finding a group
    of compatible users": the chosen member constrains future choices as
    little as possible.

    Scoring only counts each candidate's compatible holders
    (:meth:`~repro.compatibility.engine.CompatibilityEngine.compatible_counts`):
    the SP* relations count them off their pair-rule
    masks and NNE off the candidate's enemies, so neither builds a
    compatible set here; the balanced-path relations still need one (cached)
    path search per candidate.  The ``max_candidates`` cap bounds that work
    on very frequent skills by scoring only a random subsample of the
    candidates.
    """

    name = "most-compatible-user"

    def __init__(self, seed: RandomState = None, max_candidates: int = 30) -> None:
        super().__init__(seed=seed)
        if max_candidates <= 0:
            raise ValueError(f"max_candidates must be positive, got {max_candidates}")
        self.max_candidates = max_candidates

    def select(
        self,
        problem: TeamFormationProblem,
        candidates: FrozenSet[Node],
        team: Sequence[Node],
        uncovered_skills: Set[Skill],
    ) -> Node:
        remaining_holders: Set[Node] = set()
        for skill in uncovered_skills:
            remaining_holders |= problem.candidates_for_skill(skill)
        remaining_holders -= set(team)

        ordered = self._deterministic(candidates)
        if len(ordered) > self.max_candidates:
            ordered = self._rng.sample(ordered, self.max_candidates)
        # A candidate's score is the number of *other* remaining holders it
        # is compatible with: its count against the holders, less itself when
        # it is one (every compatible set contains its source).  One batched
        # engine call counts every candidate.
        engine = problem.engine
        counts = engine.compatible_counts(ordered, remaining_holders)
        scores = [
            count - (user in remaining_holders) for user, count in zip(ordered, counts)
        ]
        # With no other holder left, the score is the candidate's degree.
        lonely = [i for i, user in enumerate(ordered) if remaining_holders <= {user}]
        if lonely:
            degrees = engine.compatibility_degrees([ordered[i] for i in lonely])
            for position, degree in zip(lonely, degrees):
                scores[position] = degree
        # max() over positions keeps the legacy first-maximum tie-break.
        best = max(range(len(ordered)), key=scores.__getitem__)
        return ordered[best]


class RandomUser(UserSelectionPolicy):
    """Pick a compatible candidate uniformly at random (the paper's RANDOM baseline)."""

    name = "random-user"

    def select(
        self,
        problem: TeamFormationProblem,
        candidates: FrozenSet[Node],
        team: Sequence[Node],
        uncovered_skills: Set[Skill],
    ) -> Node:
        ordered = self._deterministic(candidates)
        return self._rng.choice(ordered)


#: Skill policies by the short codes used in algorithm names.
SKILL_POLICIES = {
    "rarest": RarestSkillFirst,
    "least_compatible": LeastCompatibleSkillFirst,
}

#: User policies by the short codes used in algorithm names.
USER_POLICIES = {
    "min_distance": MinimumDistanceUser,
    "most_compatible": MostCompatibleUser,
    "random": RandomUser,
}
