"""The user ↔ skill assignment (``skill(u)`` in the paper).

:class:`SkillAssignment` is a bidirectional map between users and skills.  It
answers both directions in O(1) per lookup — "which skills does user *u*
have?" (needed when growing a team) and "which users have skill *s*?" (needed
when selecting candidates for an uncovered skill).

The bulk generators hand the class grouped index arrays instead of a Python
set per user (:meth:`SkillAssignment._from_groups`).  Such an assignment
builds a key's set the first time the key is read, and answers counts, key
lists and membership from the groups without building any set.  The first
mutation, :meth:`~SkillAssignment.as_dict` or ``==`` fills both maps in full;
from then on it is an ordinary pair of dicts.  Every set is built in the same
insertion order either way, so no read, iteration order included, depends on
how the assignment was built.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.exceptions import UnknownSkillError

User = Hashable
Skill = Hashable


class _GroupedSets:
    """Read-only ``{key: set}`` map over grouped index arrays.

    Group ``g`` belongs to ``keys[g]`` and holds the member ids
    ``members[starts[g]:starts[g + 1]]`` in insertion order; ``labels[id]``
    is a member's label.  ``starts`` and ``members`` are integer arrays (this
    module never imports numpy: it only slices them and calls ``tolist``);
    ``starts`` is kept as a list, for cheap sizes.  A key's set is built by
    its first :meth:`get` and kept; its size, the keys and membership need
    no set.  The keys must be distinct.
    """

    __slots__ = ("_groups", "_starts", "_members", "_labels", "_built")

    def __init__(
        self,
        keys: Sequence[Hashable],
        starts: Any,
        members: Any,
        labels: Sequence[Hashable],
    ) -> None:
        self._groups: Dict[Hashable, int] = dict(zip(keys, range(len(keys))))
        self._starts: List[int] = starts.tolist()
        self._members = members
        self._labels = labels
        self._built: Dict[Hashable, Set[Hashable]] = {}

    def __contains__(self, key: Hashable) -> bool:
        return key in self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._groups)

    def get(self, key: Hashable, default: Any = None) -> Any:
        found = self._built.get(key)
        if found is None:
            group = self._groups.get(key)
            if group is None:
                return default
            ids = self._members[self._starts[group] : self._starts[group + 1]].tolist()
            found = self._built[key] = set(map(self._labels.__getitem__, ids))
        return found

    def size(self, key: Hashable) -> int:
        """Members of ``key``'s group (0 for unknown keys), without its set."""
        group = self._groups.get(key)
        if group is None:
            return 0
        return self._starts[group + 1] - self._starts[group]

    def filled(self) -> Dict[Hashable, Set[Hashable]]:
        """Every key's set, in key order."""
        return {key: self.get(key) for key in self._groups}


_SetMap = Union[Dict[Hashable, Set[Hashable]], _GroupedSets]


class SkillAssignment:
    """Bidirectional user ↔ skill map.

    Example
    -------
    >>> assignment = SkillAssignment({"alice": {"python", "sql"}, "bob": {"sql"}})
    >>> sorted(assignment.skills_of("alice"))
    ['python', 'sql']
    >>> sorted(assignment.users_with("sql"))
    ['alice', 'bob']
    >>> assignment.skill_frequency("sql")
    2

    An assignment from :meth:`_from_groups` builds each key's set on its
    first read; a mutation, :meth:`as_dict` or ``==`` first fills both maps.
    """

    def __init__(self, assignment: Optional[Mapping[User, Iterable[Skill]]] = None) -> None:
        self._user_skills: _SetMap = {}
        self._skill_users: _SetMap = {}
        if assignment:
            for user, skills in assignment.items():
                self.add_user(user, skills)

    # ------------------------------------------------------------------ build

    @classmethod
    def _from_groups(
        cls,
        users: Sequence[User],
        skills: Sequence[Skill],
        user_starts: Any,
        user_members: Any,
        skill_starts: Any,
        skill_members: Any,
    ) -> "SkillAssignment":
        """Adopt grouped index arrays without building a set per key.

        Internal constructor for bulk generators.  ``users[i]`` holds the
        skills ``skills[j]`` for ``j`` in
        ``user_members[user_starts[i]:user_starts[i + 1]]`` and ``skills[j]``
        is held by the users ``users[i]`` for ``i`` in
        ``skill_members[skill_starts[j]:skill_starts[j + 1]]``, each in
        insertion order.  Both groupings must list the same distinct pairs,
        ``users`` and ``skills`` must be distinct and every skill group
        non-empty (the invariant :meth:`remove_skill_from_user` maintains).
        ``users()`` and ``skills()`` follow the two lists.  A repeated user
        label raises :class:`ValueError`: its groups would disagree with the
        skill groups.
        """
        assignment = cls()
        assignment._user_skills = _GroupedSets(users, user_starts, user_members, skills)
        if len(assignment._user_skills) < len(users):
            raise ValueError("user labels must be distinct")
        assignment._skill_users = _GroupedSets(skills, skill_starts, skill_members, users)
        return assignment

    def _fill(self) -> None:
        """Build every set of a grouped assignment; a no-op once dict-built."""
        if isinstance(self._user_skills, _GroupedSets):
            self._user_skills = self._user_skills.filled()
            self._skill_users = self._skill_users.filled()

    def add_user(self, user: User, skills: Iterable[Skill] = ()) -> None:
        """Register ``user`` with the given skills (merging with existing ones)."""
        self._fill()
        self._user_skills.setdefault(user, set())
        for skill in skills:
            self.add_skill_to_user(user, skill)

    def add_skill_to_user(self, user: User, skill: Skill) -> None:
        """Give ``skill`` to ``user`` (registering both if needed)."""
        self._fill()
        self._user_skills.setdefault(user, set()).add(skill)
        self._skill_users.setdefault(skill, set()).add(user)

    def remove_skill_from_user(self, user: User, skill: Skill) -> None:
        """Remove ``skill`` from ``user`` (no-op if the user lacks the skill)."""
        self._fill()
        if user in self._user_skills:
            self._user_skills[user].discard(skill)
        if skill in self._skill_users:
            self._skill_users[skill].discard(user)
            if not self._skill_users[skill]:
                del self._skill_users[skill]

    # ------------------------------------------------------------------ query

    def __contains__(self, user: User) -> bool:
        return user in self._user_skills

    def __len__(self) -> int:
        return len(self._user_skills)

    def __iter__(self) -> Iterator[User]:
        return iter(self._user_skills)

    def users(self) -> List[User]:
        """All registered users (including users with no skills)."""
        return list(self._user_skills)

    def skills(self) -> List[Skill]:
        """The skill universe: every skill possessed by at least one user."""
        return list(self._skill_users)

    def number_of_skills(self) -> int:
        """Size of the skill universe."""
        return len(self._skill_users)

    def skills_of(self, user: User) -> FrozenSet[Skill]:
        """The skill set of ``user`` (empty frozenset for unknown users)."""
        return frozenset(self._user_skills.get(user, frozenset()))

    def users_with(self, skill: Skill) -> FrozenSet[User]:
        """The set of users possessing ``skill``; raises for unknown skills."""
        found = self._skill_users.get(skill)
        if found is None:
            raise UnknownSkillError(skill)
        return frozenset(found)

    def has_skill(self, user: User, skill: Skill) -> bool:
        """True iff ``user`` possesses ``skill``."""
        return skill in self._user_skills.get(user, ())

    def skill_frequency(self, skill: Skill) -> int:
        """Number of users possessing ``skill`` (0 for unknown skills)."""
        if isinstance(self._skill_users, _GroupedSets):
            return self._skill_users.size(skill)
        return len(self._skill_users.get(skill, ()))

    def covers(self, users: Iterable[User], skills: Iterable[Skill]) -> bool:
        """True iff the union of the users' skill sets contains all ``skills``."""
        required = set(skills)
        for user in users:
            required -= self._user_skills.get(user, set())
            if not required:
                return True
        return not required

    def covered_skills(self, users: Iterable[User]) -> Set[Skill]:
        """Union of skill sets of ``users``."""
        covered: Set[Skill] = set()
        for user in users:
            covered |= self._user_skills.get(user, set())
        return covered

    def missing_skills(self, users: Iterable[User], skills: Iterable[Skill]) -> Set[Skill]:
        """Subset of ``skills`` not covered by ``users``."""
        return set(skills) - self.covered_skills(users)

    def restricted_to(self, users: Iterable[User]) -> "SkillAssignment":
        """Return a copy containing only the given users."""
        subset = SkillAssignment()
        for user in users:
            subset.add_user(user, self._user_skills.get(user, set()))
        return subset

    def as_dict(self) -> Dict[User, Set[Skill]]:
        """Return a plain ``{user: set_of_skills}`` dictionary copy."""
        self._fill()
        return {user: set(skills) for user, skills in self._user_skills.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SkillAssignment):
            return NotImplemented
        self._fill()
        other._fill()
        return self._user_skills == other._user_skills

    def __repr__(self) -> str:
        return (
            f"SkillAssignment(users={len(self._user_skills)}, "
            f"skills={len(self._skill_users)})"
        )
