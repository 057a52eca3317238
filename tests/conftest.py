"""Shared pytest fixtures: small deterministic graphs, datasets and helpers."""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.datasets import figure_1a_graph, figure_1b_graph, toy_dataset
from repro.exceptions import UnknownSkillError
from repro.signed import CSRSignedGraph, SignedGraph
from repro.signed.generators import planted_factions_graph
from repro.skills import SkillAssignment, Task
from repro.utils.rng import ensure_rng


@pytest.fixture
def triangle_balanced() -> SignedGraph:
    """A balanced triangle: one all-positive face (+ + +)."""
    return SignedGraph.from_edges([(0, 1, +1), (1, 2, +1), (0, 2, +1)])


@pytest.fixture
def triangle_unbalanced() -> SignedGraph:
    """An unbalanced triangle: two positive edges and one negative (+ + -)."""
    return SignedGraph.from_edges([(0, 1, +1), (1, 2, +1), (0, 2, -1)])


@pytest.fixture
def two_factions() -> SignedGraph:
    """A perfectly balanced graph with two hostile factions {0,1,2} and {3,4,5}."""
    return SignedGraph.from_edges(
        [
            (0, 1, +1),
            (1, 2, +1),
            (0, 2, +1),
            (3, 4, +1),
            (4, 5, +1),
            (3, 5, +1),
            (2, 3, -1),
            (0, 5, -1),
        ]
    )


@pytest.fixture
def figure_1a() -> SignedGraph:
    """The paper's Figure 1(a) example graph."""
    return figure_1a_graph()


@pytest.fixture
def figure_1b() -> SignedGraph:
    """The Figure 1(b)-style example graph (prefix property failure)."""
    return figure_1b_graph()


@pytest.fixture
def prefix_trap_graph() -> SignedGraph:
    """A graph where the SBPH heuristic misses a pair from *both* directions.

    The exact SBP search finds a positive structurally balanced path between
    nodes 2 and 4, but the prefix-property heuristic misses it whichever
    endpoint the search starts from — so even the symmetrised SBPH relation
    (compatible iff either direction finds a path) strictly under-approximates
    SBP here.  Found by randomised search over small dense signed graphs.
    """
    return SignedGraph.from_edges(
        [
            (0, 1, -1), (0, 4, +1), (0, 6, +1), (0, 8, +1),
            (1, 2, +1), (1, 3, +1), (1, 5, -1), (1, 6, -1), (1, 7, +1),
            (2, 5, +1), (2, 8, +1), (3, 5, -1), (4, 8, -1),
            (5, 6, +1), (6, 7, +1), (7, 8, -1),
        ]
    )


@pytest.fixture
def overflow_ladder() -> SignedGraph:
    """A 61-rung doubling ladder whose int64 guard trips on a pull level.

    Layer ``k`` holds two nodes reached by ``2**k`` shortest paths each from
    ``"s"``; both nodes of layer 60 join ``"t"``.  The maximum degree is 4,
    so the guard is ``(2**63 - 1) // 4 = 2**61 - 1``: layer 60 (``2**60``)
    passes it and ``t`` (``2**61``) trips it.  Layer 60's six adjacency
    entries outweigh ``t``'s two, so ``t``'s level is a pull level.
    """
    edges = []
    previous = ["s"]
    for layer in range(61):
        current = [(layer, 0), (layer, 1)]
        edges += [(parent, node, 1) for node in current for parent in previous]
        previous = current
    edges += [(node, "t", 1) for node in previous]
    return SignedGraph.from_edges(edges)


#: The batched dense traversals the relations and the oracle call.
_TRAVERSALS = (
    "signed_bfs_dense_batch",
    "shortest_path_lengths_dense_batch",
    "balanced_depths",
    "presence_degrees",
)


@pytest.fixture
def traversals(monkeypatch):
    """A ``Counter`` of calls to each batched traversal in
    :mod:`repro.signed.csr`, by function name (see ``_TRAVERSALS``)."""
    import repro.signed.csr as csr_module

    calls: Counter = Counter()
    for name in _TRAVERSALS:

        def recording(*args, _name=name, _function=getattr(csr_module, name), **kwargs):
            calls[_name] += 1
            return _function(*args, **kwargs)

        monkeypatch.setattr(csr_module, name, recording)
    return calls


#: The module whose ``DEFAULT_<KIND>_CACHE_SIZE`` ceiling each cache kind reads.
_CACHE_CEILING_MODULES = {
    "compatible": "repro.compatibility.base",
    "bfs": "repro.compatibility.shortest_path",
    "result": "repro.compatibility.balanced",
    "distance": "repro.compatibility.distance",
    "mask": "repro.compatibility.engine",
}


@pytest.fixture
def cache_ceilings(monkeypatch):
    """``lower(bfs=2, ...)``: lower the cache ceilings of the relations,
    oracles and engines built afterwards.

    Each keyword (``compatible``, ``bfs``, ``result``, ``distance``,
    ``mask``) replaces one ``DEFAULT_<KIND>_CACHE_SIZE`` constant, and the
    cache's entry bound is that ceiling whenever the graph is small enough.
    ``bfs`` also bounds the SP* degree memo.
    """

    def lower(**ceilings: int) -> None:
        for kind, ceiling in ceilings.items():
            module = _CACHE_CEILING_MODULES[kind]
            monkeypatch.setattr(f"{module}.DEFAULT_{kind.upper()}_CACHE_SIZE", ceiling)

    return lower


@pytest.fixture
def toy():
    """The hand-crafted 12-user dataset."""
    return toy_dataset()


@pytest.fixture
def small_random_graph() -> SignedGraph:
    """A small random planted-faction graph (deterministic seed)."""
    graph, _factions = planted_factions_graph(
        30, average_degree=3.5, sign_noise=0.1, seed=123
    )
    return graph


@pytest.fixture
def simple_assignment() -> SkillAssignment:
    """A tiny skill assignment used by the skills / team tests."""
    return SkillAssignment(
        {
            "a": {"s1", "s2"},
            "b": {"s2", "s3"},
            "c": {"s3"},
            "d": {"s1", "s4"},
            "e": set(),
        }
    )


@pytest.fixture
def line_graph() -> SignedGraph:
    """A signed path 0 -+ 1 -- 2 -+ 3 (one negative edge in the middle)."""
    return SignedGraph.from_edges([(0, 1, +1), (1, 2, -1), (2, 3, +1)])


def _install_shuffled_snapshot(graph: SignedGraph, seed: int) -> None:
    """Make ``graph.csr_view()`` a snapshot whose dense ids follow a shuffled
    order, not ``graph.nodes()`` (rows keep the graph's neighbour order)."""
    order = graph.nodes()
    ensure_rng(seed).shuffle(order)
    view = SimpleNamespace(
        nodes=lambda: order, _adjacency=graph._adjacency, generation=graph.generation
    )
    graph._csr_cache = (graph.generation, CSRSignedGraph.from_signed_graph(view))
    assert graph.csr_view()._nodes == order


@pytest.fixture(scope="session")
def install_shuffled_snapshot():
    """``install(graph, seed)``: shuffle the dense ids of ``graph``'s CSR
    snapshot, so code that assumes they follow ``graph.nodes()`` shows it."""
    return _install_shuffled_snapshot


def _assert_same_skill_reads(assignment, reference, users, skills) -> None:
    """``assignment`` answers every public read as ``reference`` does,
    iteration order included, for the probe ``users`` and ``skills`` (known
    and unknown labels).  The whole-map reads, which fill a grouped
    assignment, come last."""
    assert len(assignment) == len(reference)
    assert list(assignment) == list(reference)
    assert assignment.users() == reference.users()
    assert assignment.skills() == reference.skills()
    assert assignment.number_of_skills() == reference.number_of_skills()
    assert repr(assignment) == repr(reference)
    known_skills = set(reference.skills())
    for user in users:
        assert (user in assignment) == (user in reference)
        assert list(assignment.skills_of(user)) == list(reference.skills_of(user))
        for skill in skills:
            assert assignment.has_skill(user, skill) == reference.has_skill(user, skill)
    for skill in skills:
        assert assignment.skill_frequency(skill) == reference.skill_frequency(skill)
        if skill in known_skills:
            assert list(assignment.users_with(skill)) == list(reference.users_with(skill))
        else:
            with pytest.raises(UnknownSkillError):
                assignment.users_with(skill)
    for team in (users[::2], users[1::3], []):
        assert list(assignment.covered_skills(team)) == list(reference.covered_skills(team))
        assert assignment.missing_skills(team, skills) == reference.missing_skills(
            team, skills
        )
        for wanted in (skills[:1], skills[1:3], skills):
            assert assignment.covers(team, wanted) == reference.covers(team, wanted)
        subset, expected = assignment.restricted_to(team), reference.restricted_to(team)
        assert subset.users() == expected.users()
        assert subset.skills() == expected.skills()
        assert [list(subset.skills_of(u)) for u in team] == [
            list(expected.skills_of(u)) for u in team
        ]
    payload, expected_payload = assignment.as_dict(), reference.as_dict()
    assert payload == expected_payload
    assert [list(found) for found in payload.values()] == [
        list(found) for found in expected_payload.values()
    ]
    assert assignment == reference
    assert reference == assignment


@pytest.fixture(scope="session")
def assert_same_skill_reads():
    """``check(assignment, reference, users, skills)``: every public read of
    the two skill assignments agrees, iteration order included."""
    return _assert_same_skill_reads
