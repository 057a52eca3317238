"""Tasks: the set of skills a team must cover."""

from __future__ import annotations

from typing import FrozenSet, Hashable, Iterable, Iterator, List, Optional

from repro.skills.assignment import Skill, SkillAssignment
from repro.utils.rng import RandomState, ensure_rng


class Task:
    """An immutable set of required skills ``T ⊆ S``.

    Example
    -------
    >>> task = Task(["python", "sql"])
    >>> len(task)
    2
    >>> "sql" in task
    True
    """

    def __init__(self, skills: Iterable[Skill], name: Optional[str] = None) -> None:
        self._skills: FrozenSet[Skill] = frozenset(skills)
        if not self._skills:
            raise ValueError("a task must require at least one skill")
        self.name = name

    @property
    def skills(self) -> FrozenSet[Skill]:
        """The required skills."""
        return self._skills

    def __len__(self) -> int:
        return len(self._skills)

    def __iter__(self) -> Iterator[Skill]:
        return iter(self._skills)

    def __contains__(self, skill: Skill) -> bool:
        return skill in self._skills

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self._skills == other._skills

    def __hash__(self) -> int:
        return hash(self._skills)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Task(size={len(self._skills)}{label})"

    def is_coverable(self, assignment: SkillAssignment) -> bool:
        """True iff every required skill is possessed by at least one user."""
        return all(assignment.skill_frequency(skill) > 0 for skill in self._skills)

    def uncovered_by(self, assignment: SkillAssignment, users: Iterable[Hashable]) -> FrozenSet[Skill]:
        """The required skills not covered by ``users``."""
        return frozenset(assignment.missing_skills(users, self._skills))

    @classmethod
    def random(
        cls,
        assignment: SkillAssignment,
        size: int,
        seed: RandomState = None,
        name: Optional[str] = None,
        require_coverable: bool = True,
    ) -> "Task":
        """Sample a random task of ``size`` distinct skills from the universe.

        With ``require_coverable`` (default) only skills owned by at least one
        user are eligible — this matches the paper's workload, where tasks are
        drawn from the skills present in the dataset.
        """
        rng = ensure_rng(seed)
        return _draw_task(_task_universe(assignment, require_coverable), size, rng, name)


def _task_universe(assignment: SkillAssignment, require_coverable: bool = True) -> List[Skill]:
    """The skills a random task draws from, in ``assignment.skills()`` order.

    With ``require_coverable`` only the skills some user owns.
    """
    return [
        skill
        for skill in assignment.skills()
        if not require_coverable or assignment.skill_frequency(skill) > 0
    ]


def _draw_task(universe: List[Skill], size: int, rng, name: Optional[str]) -> Task:
    """One task of ``size`` skills sampled from ``universe`` with ``rng``."""
    if size <= 0:
        raise ValueError(f"task size must be positive, got {size}")
    if size > len(universe):
        raise ValueError(
            f"cannot sample a task of size {size} from a universe of {len(universe)} skills"
        )
    return Task(rng.sample(universe, size), name=name)


def random_tasks(
    assignment: SkillAssignment,
    size: int,
    count: int,
    seed: RandomState = None,
) -> List[Task]:
    """Sample ``count`` independent random tasks of the given ``size``.

    This reproduces the paper's workload generator: "for a given task of size
    k, we generated 50 tasks by randomly selecting k skills".  The coverable
    universe is built once per call (:func:`_task_universe`); the tasks equal
    ``count`` successive :meth:`Task.random` draws from the same generator.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = ensure_rng(seed)
    universe = _task_universe(assignment)
    return [
        _draw_task(universe, size, rng, f"task-{size}-{index}") for index in range(count)
    ]
