"""Synthetic skill generators.

The paper's Wikipedia dataset has no skill information, so the authors
"generated 500 distinct skills with frequencies following a Zipf distribution
as in real data" and assigned each skill to users uniformly at random.  The
same generator is used here for every synthetic dataset; the Zipf exponent and
the per-user skill count distribution are configurable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from repro.skills.assignment import Skill, SkillAssignment, User
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive

try:  # optional accelerator — the generators fall back to pure python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the legacy path tests
    _np = None


def zipf_skill_frequencies(
    num_skills: int,
    total_assignments: int,
    exponent: float = 1.0,
) -> List[int]:
    """Target number of users per skill under a Zipf law.

    Skill ranked ``r`` (1-based) receives a share proportional to
    ``1 / r**exponent`` of ``total_assignments``; every skill gets at least
    one assignment so the universe size is preserved.
    """
    require_positive(num_skills, "num_skills")
    require_positive(total_assignments, "total_assignments")
    require_positive(exponent, "exponent")
    weights = [1.0 / (rank**exponent) for rank in range(1, num_skills + 1)]
    normaliser = sum(weights)
    frequencies = [
        max(1, int(round(total_assignments * weight / normaliser))) for weight in weights
    ]
    return frequencies


def assign_skills_zipf(
    users: Sequence[User],
    num_skills: int,
    skills_per_user: float = 3.0,
    exponent: float = 1.0,
    skill_prefix: str = "skill",
    seed: RandomState = None,
) -> SkillAssignment:
    """Assign Zipf-distributed skills to ``users`` uniformly at random.

    Parameters
    ----------
    users:
        The user population (typically the graph's node list).
    num_skills:
        Size of the skill universe.
    skills_per_user:
        Average number of skills per user; the total number of (user, skill)
        assignments is ``len(users) * skills_per_user``.
    exponent:
        Zipf exponent — larger values concentrate assignments on the most
        popular skills.
    skill_prefix:
        Skills are named ``f"{skill_prefix}-{rank}"``.
    seed:
        Seed / generator for reproducibility.

    Every user receives at least one skill, and duplicate (user, skill)
    assignments are merged, so the realised average can be slightly below the
    requested one on small universes.  The user labels must be distinct
    (:class:`ValueError` otherwise).

    .. note:: **Seed compatibility.** When numpy is available the per-skill
       holders are drawn with a vectorised ``numpy.random.Generator`` sampler
       (the pure-python ``rng.sample`` loop dominated million-node cold
       starts).  The realised assignment for a given ``seed`` therefore
       differs from pre-vectorised releases and from the numpy-less fallback
       — the *distribution* is identical, and a given ``(seed, numpy)``
       combination remains fully deterministic.  Passing a
       :class:`random.Random` consumes 64 bits from it to derive the numpy
       seed, so interleaved callers stay reproducible too.
    """
    if not users:
        raise ValueError("users must be non-empty")
    require_positive(num_skills, "num_skills")
    require_positive(skills_per_user, "skills_per_user")

    total_assignments = max(len(users), int(round(len(users) * skills_per_user)))
    frequencies = zipf_skill_frequencies(num_skills, total_assignments, exponent=exponent)
    skill_names = [f"{skill_prefix}-{rank}" for rank in range(1, num_skills + 1)]
    user_list = list(users)

    if _np is not None:
        return _assign_zipf_vectorised(user_list, frequencies, skill_names, seed)

    rng = ensure_rng(seed)
    assignment = SkillAssignment()
    for user in user_list:
        assignment.add_user(user)
    if len(assignment) < len(user_list):
        raise ValueError("user labels must be distinct")
    for skill, frequency in zip(skill_names, frequencies):
        holders = (
            rng.sample(user_list, frequency)
            if frequency <= len(user_list)
            else list(user_list)
        )
        for user in holders:
            assignment.add_skill_to_user(user, skill)

    # Guarantee that no user is skill-less (the team-formation workload draws
    # users by skill, so a skill-less user would simply never be selected, but
    # downstream statistics are cleaner without them).
    for user in user_list:
        if not assignment.skills_of(user):
            rank = rng.randrange(num_skills)
            assignment.add_skill_to_user(user, skill_names[rank])
    return assignment


def _assign_zipf_vectorised(
    user_list: List[User],
    frequencies: List[int],
    skill_names: List[str],
    seed: RandomState,
) -> SkillAssignment:
    """Numpy fast path for :func:`assign_skills_zipf`.

    Same semantics as the legacy loop — exact per-skill frequencies (clamped
    to the population), uniform holders without replacement, no skill-less
    users — but each skill's holder set is one ``Generator.choice`` call and
    the assignment adopts the grouped index arrays of the drawn pairs
    (:func:`_grouped_assignment`): no Python set is built until a key is
    read.  Each set is built in drawing order: a user's skills by rank, then
    its fix-up skill; a skill's users as drawn, then the fixed-up users.
    """
    np = _np
    if isinstance(seed, random.Random):
        rng = np.random.default_rng(seed.getrandbits(64))
    else:
        ensure_rng(seed)  # same seed-type validation as the legacy path
        rng = np.random.default_rng(seed)

    num_users = len(user_list)
    holder_chunks: List["_np.ndarray"] = []
    for frequency in frequencies:
        if frequency >= num_users:
            holder_chunks.append(np.arange(num_users, dtype=np.int64))
        else:
            holder_chunks.append(
                rng.choice(num_users, size=frequency, replace=False).astype(np.int64)
            )

    # Each chunk holds distinct users, so membership counting is a plain
    # gather-add — no np.add.at needed.
    counts = np.zeros(num_users, dtype=np.int64)
    for chunk in holder_chunks:
        counts[chunk] += 1
    skillless = np.flatnonzero(counts == 0)
    extra_ranks = rng.integers(0, len(skill_names), size=skillless.size)

    # The skill-less fixup guarantees every user index appears, and every
    # chunk is non-empty, so each label owns a group.
    user_idx = np.concatenate(holder_chunks + [skillless])
    skill_idx = np.concatenate(
        [
            np.full(chunk.shape[0], rank, dtype=np.int64)
            for rank, chunk in enumerate(holder_chunks)
        ]
        + [extra_ranks.astype(np.int64)]
    )
    return _grouped_assignment(user_list, skill_names, user_idx, skill_idx)


def _grouped_assignment(
    users: Sequence[User],
    skills: Sequence[Skill],
    user_idx: "_np.ndarray",
    skill_idx: "_np.ndarray",
) -> SkillAssignment:
    """The assignment of the pairs ``(users[user_idx[k]], skills[skill_idx[k]])``.

    The pairs are distinct and listed in insertion order, and every index of
    both label lists occurs, so group ``g`` of either stable grouping belongs
    to label ``g``.  Builds no set: see :meth:`SkillAssignment._from_groups`.
    """
    from repro.signed.ingest import _group_keys

    np = _np
    user_order, user_starts, _ = _group_keys(user_idx, stable=True)
    skill_order, skill_starts, _ = _group_keys(skill_idx, stable=True)
    return SkillAssignment._from_groups(
        users,
        skills,
        np.append(user_starts, user_idx.size),
        skill_idx[user_order],
        np.append(skill_starts, skill_idx.size),
        user_idx[skill_order],
    )


def assign_skills_uniform(
    users: Sequence[User],
    num_skills: int,
    skills_per_user: int = 3,
    skill_prefix: str = "skill",
    seed: RandomState = None,
) -> SkillAssignment:
    """Assign exactly ``skills_per_user`` uniformly random distinct skills to every user."""
    if not users:
        raise ValueError("users must be non-empty")
    require_positive(num_skills, "num_skills")
    require_positive(skills_per_user, "skills_per_user")
    rng = ensure_rng(seed)
    skill_names = [f"{skill_prefix}-{rank}" for rank in range(1, num_skills + 1)]
    per_user = min(skills_per_user, num_skills)
    assignment = SkillAssignment()
    for user in users:
        assignment.add_user(user, rng.sample(skill_names, per_user))
    return assignment


def assign_skills_from_communities(
    communities: Dict[User, int],
    skills_per_community: int = 20,
    background_skills: int = 10,
    skills_per_user: int = 3,
    seed: RandomState = None,
) -> SkillAssignment:
    """Skill model correlated with community structure.

    Each community gets its own pool of skills plus a shared "background"
    pool; users draw most of their skills from their community pool.  This is
    used by the domain-specific examples to model organisations where
    expertise clusters with team structure.
    """
    if not communities:
        raise ValueError("communities must be non-empty")
    require_positive(skills_per_community, "skills_per_community")
    require_positive(skills_per_user, "skills_per_user")
    rng = ensure_rng(seed)
    community_ids = sorted(set(communities.values()))
    pools = {
        community: [f"c{community}-skill-{i}" for i in range(skills_per_community)]
        for community in community_ids
    }
    shared = [f"shared-skill-{i}" for i in range(background_skills)]

    assignment = SkillAssignment()
    for user, community in communities.items():
        pool = pools[community] + shared
        count = min(skills_per_user, len(pool))
        assignment.add_user(user, rng.sample(pool, count))
    return assignment
