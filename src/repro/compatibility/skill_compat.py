"""Skill compatibility degrees (Section 4 and the "comp. skills" rows of Table 2).

The paper defines the compatibility degree of a pair of skills as the number
of compatible user pairs possessing them:

    cd(s_i, s_j) = |{(u_i, u_j) : (u_i, u_j) ∈ Comp, s_i ∈ skills(u_i), s_j ∈ skills(u_j)}|

and the compatibility degree of a single skill as the sum over all other
skills: ``cd(s) = Σ_{s_j ≠ s} cd(s, s_j)``.  Two skills are *compatible* when
``cd(s_1, s_2) > 0``, i.e. at least one compatible user pair covers them
(including a single user possessing both — "self-compatibility").

These quantities drive two different queries:

* the "least compatible skill first" selection policy needs exact counts
  (:meth:`SkillCompatibilityIndex.pair_degree`): the smaller holder side is
  counted against the other side's holders in one
  :meth:`~repro.compatibility.base.CompatibilityRelation.batch_count_compatible`
  call, which the SP* relations answer off their pair-rule
  masks and NNE off the holders' enemies, building no compatible set;
* the "comp. skills" column of Table 2 and the MAX bound of Figure 2(a) only
  need ``cd > 0`` (:meth:`SkillCompatibilityIndex.skills_compatible`), which
  stops at the first compatible pair.

Only holders present in the graph count (a node removal can leave the
assignment naming users that no longer exist).  Both answers are cached per
skill pair, each skill's present holders per skill
(:meth:`SkillCompatibilityIndex.holders`, which the team-formation problems
read too), and all are dropped wholesale when the graph's generation moves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.compatibility.base import CompatibilityRelation
from repro.signed.graph import Node
from repro.skills.assignment import Skill, SkillAssignment
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class SkillPairStatistics:
    """Fraction of skill pairs with at least one compatible user pair."""

    relation_name: str
    compatible_skill_pairs: int
    evaluated_skill_pairs: int
    sampled: bool

    @property
    def fraction(self) -> float:
        """Compatible fraction in ``[0, 1]`` (0.0 when nothing was evaluated)."""
        if self.evaluated_skill_pairs == 0:
            return 0.0
        return self.compatible_skill_pairs / self.evaluated_skill_pairs

    @property
    def percentage(self) -> float:
        """Compatible fraction as a percentage, as printed in the paper."""
        return 100.0 * self.fraction


class SkillCompatibilityIndex:
    """Cached skill-pair and per-skill compatibility degrees for one relation."""

    def __init__(self, relation: CompatibilityRelation, assignment: SkillAssignment) -> None:
        """
        Parameters
        ----------
        relation:
            The user-level compatibility relation.
        assignment:
            The user ↔ skill assignment.
        """
        self._relation = relation
        self._assignment = assignment
        self._pair_cache: Dict[FrozenSet[Skill], int] = {}
        self._compatible_cache: Dict[FrozenSet[Skill], bool] = {}
        self._holders_cache: Dict[Skill, FrozenSet[Node]] = {}
        # Skill-pair answers aggregate user pairs across the whole graph, so
        # any effective mutation may change them; the caches are re-validated
        # wholesale against the graph's generation on every read.
        self._generation = relation.graph.generation

    @property
    def relation(self) -> CompatibilityRelation:
        """The user-level relation the index is built on."""
        return self._relation

    @property
    def assignment(self) -> SkillAssignment:
        """The skill assignment the index is built on."""
        return self._assignment

    def holders(self, skill: Skill) -> FrozenSet[Node]:
        """Users holding ``skill`` that are present in the graph.

        Memoised per skill until the graph's generation moves; the
        assignment is taken as fixed, as for the pair caches.  The
        team-formation problems read their per-skill candidates from here.
        """
        self._sync()
        found = self._holders_cache.get(skill)
        if found is None:
            graph = self._relation.graph
            found = self._holders_cache[skill] = frozenset(
                user for user in self._assignment.users_with(skill) if user in graph
            )
        return found

    def pair_degree(self, skill_a: Skill, skill_b: Skill) -> int:
        """``cd(skill_a, skill_b)``: number of compatible user pairs covering the two skills.

        A single user possessing both skills counts as a (self-)compatible
        pair, matching the paper's footnote on self-compatibility.
        """
        self._sync()
        return self._cached_pair_degree(skill_a, skill_b)

    def skills_compatible(self, skill_a: Skill, skill_b: Skill) -> bool:
        """True iff ``cd(skill_a, skill_b) > 0``.

        Answered from a cached :meth:`pair_degree` when there is one;
        otherwise the holders' compatible sets are fetched one at a time and
        the search stops at the first compatible pair.
        """
        self._sync()
        key = frozenset((skill_a, skill_b))
        count = self._pair_cache.get(key)
        if count is not None:
            return count > 0
        found = self._compatible_cache.get(key)
        if found is None:
            found = self._find_compatible_pair(skill_a, skill_b)
            self._compatible_cache[key] = found
        return found

    def skill_degree(self, skill: Skill, others: Optional[Iterable[Skill]] = None) -> int:
        """``cd(skill)``: sum of pair degrees against ``others`` (default: all other skills)."""
        if others is None:
            others = self._assignment.skills()
        self._sync()
        return sum(
            self._cached_pair_degree(skill, other) for other in others if other != skill
        )

    def rank_skills_by_degree(self, skills: Iterable[Skill]) -> List[Skill]:
        """Sort ``skills`` by ascending compatibility degree (least compatible first).

        Degrees are computed *within* the provided skill set, which is what
        the team-formation policy needs (the remaining uncovered skills).
        Ties are broken by skill name for determinism.
        """
        skill_list = list(skills)
        degrees = {
            skill: self.skill_degree(skill, others=skill_list) for skill in skill_list
        }
        return sorted(skill_list, key=lambda skill: (degrees[skill], str(skill)))

    # --------------------------------------------------------------- internals

    def _sync(self) -> None:
        generation = self._relation.graph.generation
        if generation != self._generation:
            self._pair_cache.clear()
            self._compatible_cache.clear()
            self._holders_cache.clear()
            self._generation = generation

    def _cached_pair_degree(self, skill_a: Skill, skill_b: Skill) -> int:
        """:meth:`pair_degree` after the caller's :meth:`_sync`."""
        key = frozenset((skill_a, skill_b))
        count = self._pair_cache.get(key)
        if count is None:
            count = self._pair_cache[key] = self._count_pair_degree(skill_a, skill_b)
        return count

    def _holders(self, skill_a: Skill, skill_b: Skill) -> Tuple[List, FrozenSet]:
        """The two skills' :meth:`holders`, smaller side first.

        The smaller side is the one whose per-user computations (BFS runs,
        enemy lists or compatible sets) the pair queries resolve.
        """
        users_a, users_b = self.holders(skill_a), self.holders(skill_b)
        if len(users_b) < len(users_a):
            users_a, users_b = users_b, users_a
        return list(users_a), users_b

    def _count_pair_degree(self, skill_a: Skill, skill_b: Skill) -> int:
        users_a, users_b = self._holders(skill_a, skill_b)
        # Every source counts itself, so a user holding both skills counts
        # once, as the (self-)compatible pair.
        return sum(self._relation.batch_count_compatible(users_a, users_b))

    def _find_compatible_pair(self, skill_a: Skill, skill_b: Skill) -> bool:
        users_a, users_b = self._holders(skill_a, skill_b)
        return any(
            not self._relation.compatible_with(user_a).isdisjoint(users_b)
            for user_a in users_a
        )


def skill_pair_statistics(
    index: SkillCompatibilityIndex,
    max_exact_skills: int = 600,
    num_sampled_pairs: int = 5_000,
    seed: RandomState = None,
) -> SkillPairStatistics:
    """Fraction of skill pairs that are compatible (Table 2, "comp. skills").

    Small skill universes are enumerated exhaustively; larger ones are
    estimated from a uniform sample of skill pairs.
    """
    skills = index.assignment.skills()
    if len(skills) < 2:
        return SkillPairStatistics(index.relation.name, 0, 0, sampled=False)
    if len(skills) <= max_exact_skills:
        pairs = list(itertools.combinations(skills, 2))
        sampled = False
    else:
        require_positive(num_sampled_pairs, "num_sampled_pairs")
        rng = ensure_rng(seed)
        pairs = [tuple(rng.sample(skills, 2)) for _ in range(num_sampled_pairs)]
        sampled = True
    compatible = sum(1 for a, b in pairs if index.skills_compatible(a, b))
    return SkillPairStatistics(
        relation_name=index.relation.name,
        compatible_skill_pairs=compatible,
        evaluated_skill_pairs=len(pairs),
        sampled=sampled,
    )


def task_has_compatible_skills(index: SkillCompatibilityIndex, skills: Iterable[Skill]) -> bool:
    """True iff every pair of task skills is compatible.

    This is the "MAX" upper bound of Figure 2(a): a necessary (not sufficient)
    condition for a compatible team covering the task to exist.
    """
    skill_list = list(skills)
    for skill_a, skill_b in itertools.combinations(skill_list, 2):
        if not index.skills_compatible(skill_a, skill_b):
            return False
    return True
