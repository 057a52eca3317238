"""Tests for skill generators, statistics and serialisation."""

from __future__ import annotations

import gc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.skills.generators as generators
from repro.skills import (
    SkillAssignment,
    assign_skills_uniform,
    assign_skills_zipf,
    assignment_from_json_dict,
    assignment_to_json_dict,
    read_assignment,
    skill_statistics,
    write_assignment,
    zipf_skill_frequencies,
)
from repro.skills.generators import assign_skills_from_communities
from repro.skills.io import read_user_skill_pairs
from repro.skills.stats import skill_frequency_table


class TestZipfFrequencies:
    def test_total_and_monotonicity(self):
        frequencies = zipf_skill_frequencies(10, 100, exponent=1.0)
        assert len(frequencies) == 10
        assert all(f >= 1 for f in frequencies)
        assert frequencies == sorted(frequencies, reverse=True)

    def test_higher_exponent_concentrates_mass(self):
        flat = zipf_skill_frequencies(20, 200, exponent=0.5)
        steep = zipf_skill_frequencies(20, 200, exponent=2.0)
        assert steep[0] > flat[0]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            zipf_skill_frequencies(0, 10)
        with pytest.raises(ValueError):
            zipf_skill_frequencies(10, 0)
        with pytest.raises(ValueError):
            zipf_skill_frequencies(10, 10, exponent=0)


class TestAssignSkills:
    def test_zipf_assignment_covers_all_users(self):
        users = list(range(50))
        assignment = assign_skills_zipf(users, num_skills=20, skills_per_user=3, seed=1)
        assert set(assignment.users()) == set(users)
        assert all(assignment.skills_of(user) for user in users)

    def test_zipf_assignment_deterministic(self):
        users = list(range(30))
        first = assign_skills_zipf(users, num_skills=10, seed=7)
        second = assign_skills_zipf(users, num_skills=10, seed=7)
        assert first == second

    def test_zipf_frequencies_follow_rank(self):
        users = list(range(200))
        assignment = assign_skills_zipf(users, num_skills=30, skills_per_user=4, seed=3)
        top = assignment.skill_frequency("skill-1")
        tail = assignment.skill_frequency("skill-30")
        assert top > tail

    def test_zipf_empty_users_rejected(self):
        with pytest.raises(ValueError):
            assign_skills_zipf([], num_skills=5)

    def test_zipf_legacy_path_matches_contract(self, monkeypatch):
        # The numpy-less fallback keeps the same guarantees (coverage, rank
        # monotonicity, determinism) even though its RNG stream differs.
        import repro.skills.generators as generators

        monkeypatch.setattr(generators, "_np", None)
        users = list(range(120))
        first = assign_skills_zipf(users, num_skills=15, skills_per_user=3, seed=9)
        second = assign_skills_zipf(users, num_skills=15, skills_per_user=3, seed=9)
        assert first == second
        assert all(first.skills_of(user) for user in users)
        assert first.skill_frequency("skill-1") > first.skill_frequency("skill-15")

    @pytest.mark.parametrize("vectorised", [True, False])
    def test_zipf_repeated_user_labels_rejected(self, monkeypatch, vectorised):
        if vectorised:
            pytest.importorskip("numpy")
        else:
            monkeypatch.setattr(generators, "_np", None)
        with pytest.raises(ValueError, match="distinct"):
            assign_skills_zipf([1, 2, 1, 3] * 5, 6, 2.0, seed=3)

    def test_zipf_vectorised_maps_are_consistent(self):
        pytest.importorskip("numpy")
        users = [f"u{i}" for i in range(150)]
        assignment = assign_skills_zipf(users, num_skills=12, skills_per_user=2.5, seed=4)
        for user in users:
            for skill in assignment.skills_of(user):
                assert user in assignment.users_with(skill)
        for skill in assignment.skills():
            for user in assignment.users_with(skill):
                assert skill in assignment.skills_of(user)

    def test_uniform_assignment_exact_count(self):
        assignment = assign_skills_uniform(list(range(20)), num_skills=10, skills_per_user=3, seed=2)
        assert all(len(assignment.skills_of(user)) == 3 for user in range(20))

    def test_uniform_more_skills_than_universe_clamped(self):
        assignment = assign_skills_uniform([1, 2], num_skills=2, skills_per_user=5, seed=2)
        assert all(len(assignment.skills_of(user)) == 2 for user in (1, 2))

    def test_community_assignment_uses_community_pools(self):
        communities = {user: user % 2 for user in range(40)}
        assignment = assign_skills_from_communities(communities, skills_per_user=3, seed=5)
        for user in range(40):
            for skill in assignment.skills_of(user):
                assert str(skill).startswith((f"c{user % 2}-", "shared-"))

    def test_community_assignment_empty_rejected(self):
        with pytest.raises(ValueError):
            assign_skills_from_communities({})


def captured_pairs(module, build):
    """Run ``build()`` and return its result with the labels and pair arrays
    it handed to ``_grouped_assignment`` (looked up in ``module``)."""
    captured = []
    real = generators._grouped_assignment

    def spy(*args):
        captured.append(args)
        return real(*args)

    with mock.patch.object(module, "_grouped_assignment", spy):
        result = build()
    (args,) = captured
    return result, args


class TestGroupedGenerators:
    """The numpy generators build no set per user, yet read exactly like a
    dict-built assignment of the same pairs."""

    @given(
        num_users=st.integers(1, 70),
        num_skills=st.integers(1, 40),
        skills_per_user=st.floats(0.2, 6.0),
        labelled=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_zipf_matches_dict_built(
        self, num_users, num_skills, skills_per_user, labelled, seed, assert_same_skill_reads
    ):
        pytest.importorskip("numpy")
        users = [f"u{i}" for i in range(num_users)] if labelled else list(range(num_users))
        assignment, (labels, skills, user_idx, skill_idx) = captured_pairs(
            generators,
            lambda: assign_skills_zipf(users, num_skills, skills_per_user, seed=seed),
        )
        reference = SkillAssignment()
        for user in users:
            reference.add_user(user)
        for i, j in zip(user_idx.tolist(), skill_idx.tolist()):
            reference.add_skill_to_user(labels[i], skills[j])
        assert skills == [f"skill-{rank}" for rank in range(1, num_skills + 1)]
        probes = users + ["ghost", -1]
        assert_same_skill_reads(assignment, reference, probes, skills + ["skill-0"])

    @pytest.mark.parametrize("num_users, seed", [(1000, 43), (3000, 7), (5, None)])
    def test_million_stand_in_skills_match_legacy_build(
        self, num_users, seed, assert_same_skill_reads
    ):
        # The stand-in's dict build put each user's skills in a set by rank
        # and passed those sets to ``add_user``; the grouped build keeps
        # every resulting order.
        pytest.importorskip("numpy")
        from repro.datasets import synthetic

        assignment, (users, skills, user_idx, skill_idx) = captured_pairs(
            synthetic,
            lambda: synthetic._vectorised_zipf_skills(num_users, 120, 4.0, 1.0, seed),
        )
        pairs = sorted(
            (users[i], int(skills[j].split("-")[1]))
            for i, j in zip(user_idx.tolist(), skill_idx.tolist())
        )
        mapping = {}
        for user, rank in pairs:
            mapping.setdefault(user, set()).add(f"skill-{rank}")
        legacy = SkillAssignment()
        for user, held in mapping.items():
            legacy.add_user(user, held)
        assert users == list(range(num_users))
        probes = users[:300] + [num_users]
        assert_same_skill_reads(assignment, legacy, probes, skills + ["skill-0"])

    def test_zipf_assignment_tracks_objects_per_skill_not_per_user(self):
        pytest.importorskip("numpy")
        users = list(range(20_000))
        num_skills = 40
        assign_skills_zipf(users[:100], num_skills, 3.0, seed=0)  # warm imports
        gc.collect()
        before = len(gc.get_objects())
        assignment = assign_skills_zipf(users, num_skills, 3.0, seed=0)
        gc.collect()
        # A set per user would add 20,000 tracked objects.
        assert len(gc.get_objects()) - before < num_skills
        held = assignment.skills_of(123)
        assert held and list(assignment._user_skills._built) == [123]
        assert not assignment._skill_users._built
        assert assignment.skill_frequency("skill-1") > 0
        assert not assignment._skill_users._built


class TestSkillStatistics:
    def test_statistics_fields(self, simple_assignment):
        stats = skill_statistics(simple_assignment)
        assert stats.num_users == 5
        assert stats.num_skills == 4
        assert stats.total_assignments == 7
        assert stats.users_without_skills == 1
        assert stats.average_skills_per_user == pytest.approx(7 / 5)
        assert stats.as_dict()["#skills"] == 4

    def test_statistics_empty_assignment(self):
        stats = skill_statistics(SkillAssignment())
        assert stats.num_users == 0
        assert stats.max_skill_frequency == 0

    def test_frequency_table_sorted(self, simple_assignment):
        table = skill_frequency_table(simple_assignment)
        frequencies = list(table.values())
        assert frequencies == sorted(frequencies, reverse=True)


class TestSkillIO:
    def test_json_round_trip(self, tmp_path, simple_assignment):
        path = tmp_path / "skills.json"
        write_assignment(simple_assignment, path)
        loaded = read_assignment(path)
        assert set(loaded.users()) == set(simple_assignment.users())
        assert loaded.skills_of("a") == frozenset({"s1", "s2"})

    def test_json_dict_integer_users_round_trip(self):
        assignment = SkillAssignment({1: {"x"}, 2: {"y"}})
        payload = assignment_to_json_dict(assignment)
        restored = assignment_from_json_dict(payload)
        assert restored.skills_of(1) == frozenset({"x"})

    def test_read_missing_file_raises(self, tmp_path):
        from repro.exceptions import DatasetError

        with pytest.raises(DatasetError):
            read_assignment(tmp_path / "absent.json")

    def test_read_user_skill_pairs(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("# comment\n1 databases\n1 search engines\n2 ml\n")
        assignment = read_user_skill_pairs(path)
        assert assignment.skills_of(1) == frozenset({"databases", "search engines"})
        assert assignment.skills_of(2) == frozenset({"ml"})

    def test_read_user_skill_pairs_malformed_raises(self, tmp_path):
        from repro.exceptions import DatasetError

        path = tmp_path / "bad.txt"
        path.write_text("justoneword\n")
        with pytest.raises(DatasetError):
            read_user_skill_pairs(path)
