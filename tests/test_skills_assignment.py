"""Tests for SkillAssignment and Task."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import UnknownSkillError
from repro.skills import SkillAssignment, Task
from repro.skills.task import random_tasks


class TestSkillAssignment:
    def test_construction_from_mapping(self, simple_assignment):
        assert len(simple_assignment) == 5
        assert simple_assignment.number_of_skills() == 4

    def test_skills_of(self, simple_assignment):
        assert simple_assignment.skills_of("a") == frozenset({"s1", "s2"})
        assert simple_assignment.skills_of("e") == frozenset()
        assert simple_assignment.skills_of("unknown") == frozenset()

    def test_users_with(self, simple_assignment):
        assert simple_assignment.users_with("s2") == frozenset({"a", "b"})

    def test_users_with_unknown_skill_raises(self, simple_assignment):
        with pytest.raises(UnknownSkillError):
            simple_assignment.users_with("nope")

    def test_has_skill(self, simple_assignment):
        assert simple_assignment.has_skill("a", "s1")
        assert not simple_assignment.has_skill("a", "s3")
        assert not simple_assignment.has_skill("ghost", "s1")

    def test_skill_frequency(self, simple_assignment):
        assert simple_assignment.skill_frequency("s3") == 2
        assert simple_assignment.skill_frequency("missing") == 0

    def test_add_and_remove_skill(self, simple_assignment):
        simple_assignment.add_skill_to_user("e", "s9")
        assert simple_assignment.has_skill("e", "s9")
        simple_assignment.remove_skill_from_user("e", "s9")
        assert not simple_assignment.has_skill("e", "s9")
        assert simple_assignment.skill_frequency("s9") == 0

    def test_remove_missing_skill_is_noop(self, simple_assignment):
        simple_assignment.remove_skill_from_user("a", "does-not-exist")
        assert simple_assignment.skills_of("a") == frozenset({"s1", "s2"})

    def test_covers(self, simple_assignment):
        assert simple_assignment.covers(["a", "b"], ["s1", "s2", "s3"])
        assert not simple_assignment.covers(["a"], ["s3"])
        assert simple_assignment.covers([], [])

    def test_covered_and_missing_skills(self, simple_assignment):
        assert simple_assignment.covered_skills(["a", "c"]) == {"s1", "s2", "s3"}
        assert simple_assignment.missing_skills(["a"], ["s1", "s4"]) == {"s4"}

    def test_restricted_to(self, simple_assignment):
        subset = simple_assignment.restricted_to(["a", "e"])
        assert set(subset.users()) == {"a", "e"}
        assert subset.skills_of("a") == frozenset({"s1", "s2"})

    def test_as_dict_is_a_copy(self, simple_assignment):
        payload = simple_assignment.as_dict()
        payload["a"].add("tampered")
        assert "tampered" not in simple_assignment.skills_of("a")

    def test_equality(self, simple_assignment):
        clone = SkillAssignment(simple_assignment.as_dict())
        assert clone == simple_assignment

    def test_iteration_and_contains(self, simple_assignment):
        assert "a" in simple_assignment
        assert set(iter(simple_assignment)) == {"a", "b", "c", "d", "e"}



@st.composite
def pair_sequences(draw):
    """Users (int or string labels, some without a skill) and distinct
    ``(user position, skill position)`` pairs in insertion order."""
    num_users = draw(st.integers(1, 18))
    num_skills = draw(st.integers(1, 8))
    if draw(st.booleans()):
        users = [f"user-{i}" for i in range(num_users)]
    else:
        users = [7 * i - 40 for i in range(num_users)]
    users = draw(st.permutations(users))
    skills = [f"skill-{j}" for j in range(num_skills)]
    every_pair = [(i, j) for i in range(num_users) for j in range(num_skills)]
    pairs = draw(st.lists(st.sampled_from(every_pair), unique=True, max_size=len(every_pair)))
    return users, skills, pairs


def grouped_and_dict_built(users, skills, pairs):
    """The same pairs as a :meth:`SkillAssignment._from_groups` assignment
    and as a dict-built one (``add_user`` for each user, then
    ``add_skill_to_user`` pair by pair)."""
    np = pytest.importorskip("numpy")
    universe = list(dict.fromkeys(j for _, j in pairs))  # first appearance
    position = {j: p for p, j in enumerate(universe)}
    by_user = [[] for _ in users]
    by_skill = [[] for _ in universe]
    for i, j in pairs:
        by_user[i].append(position[j])
        by_skill[position[j]].append(i)

    def arrays(groups):
        starts = np.cumsum([0] + [len(group) for group in groups])
        members = np.array([m for group in groups for m in group], dtype=np.int64)
        return starts, members

    grouped = SkillAssignment._from_groups(
        users, [skills[j] for j in universe], *arrays(by_user), *arrays(by_skill)
    )
    reference = SkillAssignment()
    for user in users:
        reference.add_user(user)
    for i, j in pairs:
        reference.add_skill_to_user(users[i], skills[j])
    return grouped, reference


def mutations(users, skills):
    """Steps calling every mutator; the last one takes a skill from each
    holder, down to the last."""

    def drop_every_holder(assignment):
        if skills[0] in assignment.skills():
            for user in sorted(assignment.users_with(skills[0]), key=str):
                assignment.remove_skill_from_user(user, skills[0])

    return [
        lambda assignment: assignment.add_user("newcomer", [skills[0], "fresh-skill"]),
        lambda assignment: assignment.add_skill_to_user(users[0], "late-skill"),
        lambda assignment: assignment.add_skill_to_user(users[-1], skills[-1]),
        lambda assignment: assignment.remove_skill_from_user(users[0], "never-held"),
        lambda assignment: assignment.remove_skill_from_user("ghost", skills[0]),
        drop_every_holder,
    ]


class TestGroupedAssignment:
    """An assignment adopted from grouped index arrays reads like the
    dict-built one with the same pairs, before and after mutations."""

    @given(case=pair_sequences())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_reads_match_dict_built(self, case, assert_same_skill_reads):
        users, skills, pairs = case
        grouped, reference = grouped_and_dict_built(users, skills, pairs)
        probes_users = users + ["ghost", 10_000]
        probes_skills = skills + ["unknown-skill"]
        assert_same_skill_reads(grouped, reference, probes_users, probes_skills)

    @given(case=pair_sequences(), order=st.permutations(range(6)), read_first=st.booleans())
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_reads_match_after_mutations(
        self, case, order, read_first, assert_same_skill_reads
    ):
        users, skills, pairs = case
        grouped, reference = grouped_and_dict_built(users, skills, pairs)
        if read_first:  # sets built before the fill are the ones it keeps
            grouped.skills_of(users[0])
            if grouped.skills():
                grouped.users_with(grouped.skills()[0])
        steps = mutations(users, skills)
        for index in order:  # each mutator must fill first, whichever runs first
            steps[index](grouped)
            steps[index](reference)
        probes_users = users + ["newcomer", "ghost"]
        probes_skills = skills + ["fresh-skill", "late-skill", "unknown-skill"]
        assert_same_skill_reads(grouped, reference, probes_users, probes_skills)

    def test_group_reads_build_no_set(self):
        users, skills = ["a", "b", "c"], ["x", "y"]
        grouped, _ = grouped_and_dict_built(users, skills, [(1, 1), (0, 1), (1, 0)])
        assert grouped.users() == ["a", "b", "c"]
        assert grouped.skills() == ["y", "x"]
        assert len(grouped) == 3 and grouped.number_of_skills() == 2
        assert "c" in grouped and "z" not in grouped and list(grouped) == users
        assert grouped.skill_frequency("y") == 2 and grouped.skill_frequency("z") == 0
        assert not grouped._user_skills._built and not grouped._skill_users._built
        assert grouped.skills_of("c") == frozenset()
        assert grouped.users_with("x") == frozenset({"b"})
        assert list(grouped._user_skills._built) == ["c"]
        assert list(grouped._skill_users._built) == ["x"]

    def test_repeated_user_labels_rejected(self):
        np = pytest.importorskip("numpy")
        # Group 0 and group 2 both belong to "a": the user groups would
        # disagree with the skill groups, so the groups are refused.
        with pytest.raises(ValueError, match="distinct"):
            SkillAssignment._from_groups(
                ["a", "b", "a"],
                ["x", "y"],
                np.array([0, 1, 2, 4]),
                np.array([0, 0, 0, 1]),
                np.array([0, 3, 4]),
                np.array([0, 1, 2, 2]),
            )


class TestTask:
    def test_basic_properties(self):
        task = Task(["s1", "s2", "s2"], name="demo")
        assert len(task) == 2
        assert "s1" in task
        assert set(task) == {"s1", "s2"}

    def test_empty_task_rejected(self):
        with pytest.raises(ValueError):
            Task([])

    def test_equality_and_hash(self):
        assert Task(["a", "b"]) == Task(["b", "a"])
        assert len({Task(["a", "b"]), Task(["b", "a"])}) == 1

    def test_is_coverable(self, simple_assignment):
        assert Task(["s1", "s3"]).is_coverable(simple_assignment)
        assert not Task(["s1", "unknown"]).is_coverable(simple_assignment)

    def test_uncovered_by(self, simple_assignment):
        task = Task(["s1", "s3", "s4"])
        assert task.uncovered_by(simple_assignment, ["a"]) == frozenset({"s3", "s4"})

    def test_random_task_size_and_coverability(self, simple_assignment):
        task = Task.random(simple_assignment, 2, seed=3)
        assert len(task) == 2
        assert task.is_coverable(simple_assignment)

    def test_random_task_deterministic(self, simple_assignment):
        assert Task.random(simple_assignment, 2, seed=5) == Task.random(
            simple_assignment, 2, seed=5
        )

    def test_random_task_too_large_raises(self, simple_assignment):
        with pytest.raises(ValueError):
            Task.random(simple_assignment, 99)

    def test_random_task_invalid_size(self, simple_assignment):
        with pytest.raises(ValueError):
            Task.random(simple_assignment, 0)

    def test_random_tasks_batch(self, simple_assignment):
        tasks = random_tasks(simple_assignment, size=2, count=5, seed=1)
        assert len(tasks) == 5
        assert all(len(task) == 2 for task in tasks)
        # Deterministic given the seed.
        again = random_tasks(simple_assignment, size=2, count=5, seed=1)
        assert tasks == again

    @pytest.mark.parametrize("seed", [0, 7, 11])
    def test_random_tasks_equal_per_task_draws(self, seed, monkeypatch):
        from repro.skills import assign_skills_zipf
        from repro.utils.rng import ensure_rng

        assignment = assign_skills_zipf(list(range(40)), 30, 1.5, seed=seed)
        rng = ensure_rng(seed)
        expected = [
            Task.random(assignment, 4, seed=rng, name=f"task-4-{index}")
            for index in range(25)
        ]
        calls = []
        frequency = SkillAssignment.skill_frequency
        monkeypatch.setattr(
            SkillAssignment,
            "skill_frequency",
            lambda self, skill: calls.append(skill) or frequency(self, skill),
        )
        tasks = random_tasks(assignment, size=4, count=25, seed=seed)
        assert tasks == expected
        assert [task.name for task in tasks] == [task.name for task in expected]
        # One universe per call, not one per task.
        assert len(calls) == assignment.number_of_skills()

    def test_random_tasks_invalid_count(self, simple_assignment):
        with pytest.raises(ValueError):
            random_tasks(simple_assignment, size=1, count=0)
