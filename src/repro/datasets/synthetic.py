"""Synthetic stand-ins for the paper's datasets (Slashdot, Epinions, Wikipedia).

The real datasets are signed networks from SNAP joined with per-user category
information; they cannot be downloaded in this offline environment, so this
module generates graphs that match the published statistics in Table 1 —
number of users and edges, fraction of negative edges, small diameter, number
of skills and Zipf-distributed skill frequencies — using a *faction-biased*
sign model: most negative edges run between two latent factions, so the signs
are largely consistent with structural balance, as they are in the real
networks.  Epinions and Wikipedia are generated at a reduced scale by default
(configurable via ``scale``) so the full experiment suite runs in minutes on a
laptop; the generator keeps the average degree and the negative-edge fraction
of the originals.

Every generator is deterministic given its ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.signed.components import largest_connected_component
from repro.signed.generators import _build_topology
from repro.signed.graph import NEGATIVE, POSITIVE, Node, SignedGraph
from repro.skills.assignment import SkillAssignment
from repro.skills.generators import _grouped_assignment, assign_skills_zipf
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive, require_probability


@dataclass
class SignedDataset:
    """A signed network together with its skill assignment.

    Attributes
    ----------
    name:
        Dataset name (e.g. ``"slashdot"``).
    graph:
        The signed graph (connected — restricted to its largest component).
    skills:
        The user ↔ skill assignment.
    factions:
        The planted faction of each node (synthetic datasets only).
    description:
        Human-readable provenance, including what the dataset stands in for.
    """

    name: str
    graph: SignedGraph
    skills: SkillAssignment
    factions: Dict[Node, int] = field(default_factory=dict)
    description: str = ""

    def __repr__(self) -> str:
        return (
            f"SignedDataset(name={self.name!r}, users={self.graph.number_of_nodes()}, "
            f"edges={self.graph.number_of_edges()}, skills={self.skills.number_of_skills()})"
        )


def faction_biased_signs(
    graph_edges: List[Tuple[Node, Node]],
    factions: Dict[Node, int],
    negative_fraction: float,
    cross_faction_bias: float = 0.9,
    seed: RandomState = None,
) -> SignedGraph:
    """Assign signs so that a target fraction of edges is negative, biased to cross-faction edges.

    Parameters
    ----------
    graph_edges:
        The unsigned edge list.
    factions:
        Node -> faction index.
    negative_fraction:
        Target fraction of negative edges (matched exactly up to rounding).
    cross_faction_bias:
        Fraction of the negative edges drawn from cross-faction edges (the
        rest are "noise" negatives inside a faction).  ``1.0`` gives signs as
        consistent with the planted partition as the edge supply allows.
    seed:
        Seed / generator for reproducibility.
    """
    require_probability(negative_fraction, "negative_fraction")
    require_probability(cross_faction_bias, "cross_faction_bias")
    rng = ensure_rng(seed)
    cross = [edge for edge in graph_edges if factions[edge[0]] != factions[edge[1]]]
    intra = [edge for edge in graph_edges if factions[edge[0]] == factions[edge[1]]]

    target_negative = int(round(negative_fraction * len(graph_edges)))
    negative_cross = min(len(cross), int(round(cross_faction_bias * target_negative)))
    negative_intra = min(len(intra), target_negative - negative_cross)
    # If one side ran short, top the other side up so the total still matches.
    shortfall = target_negative - negative_cross - negative_intra
    if shortfall > 0:
        extra_cross = min(shortfall, len(cross) - negative_cross)
        negative_cross += extra_cross
        shortfall -= extra_cross
        negative_intra += min(shortfall, len(intra) - negative_intra)

    negative_edges = set()
    if negative_cross:
        negative_edges.update(
            frozenset(edge) for edge in rng.sample(cross, negative_cross)
        )
    if negative_intra:
        negative_edges.update(
            frozenset(edge) for edge in rng.sample(intra, negative_intra)
        )

    graph = SignedGraph()
    try:
        ordered_nodes = sorted(factions)
    except TypeError:  # mixed node types: keep the factions insertion order
        ordered_nodes = list(factions)
    for node in ordered_nodes:
        graph.add_node(node)
    for u, v in graph_edges:
        if u == v:
            continue
        sign = NEGATIVE if frozenset((u, v)) in negative_edges else POSITIVE
        graph.add_edge(u, v, sign)
    return graph


def synthetic_signed_network(
    num_nodes: int,
    average_degree: float,
    negative_fraction: float,
    num_factions: int = 2,
    faction_sizes: Optional[List[float]] = None,
    cross_faction_bias: float = 0.9,
    topology: str = "scale_free",
    seed: RandomState = None,
) -> Tuple[SignedGraph, Dict[Node, int]]:
    """Generate a connected signed network with a target negative-edge fraction.

    The topology is generated first (scale-free by default, like real social
    networks), nodes are split into factions, signs are drawn with
    :func:`faction_biased_signs`, and the result is restricted to its largest
    connected component.
    """
    require_positive(num_nodes, "num_nodes")
    require_positive(average_degree, "average_degree")
    rng = ensure_rng(seed)

    topology_graph = _build_topology(num_nodes, average_degree, topology, rng)
    nodes = list(topology_graph.nodes())
    factions = _split_into_factions(nodes, num_factions, faction_sizes, rng)
    edges = [(u, v) for u, v in topology_graph.edges() if u != v]
    signed = faction_biased_signs(
        edges,
        factions,
        negative_fraction=negative_fraction,
        cross_faction_bias=cross_faction_bias,
        seed=rng,
    )
    component = largest_connected_component(signed)
    surviving_factions = {node: factions[node] for node in component.nodes()}
    return component, surviving_factions


def slashdot_like(seed: RandomState = 13, scale: float = 1.0) -> SignedDataset:
    """Synthetic stand-in for the paper's Slashdot subset.

    Target statistics (Table 1): 214 users, 304 edges, 29.2 % negative edges,
    diameter ≈ 9, 1 024 skills (post categories).  The graph is sparse, so an
    Erdős–Rényi topology restricted to its giant component reproduces the
    long, thin shape (large diameter) of the original subset.
    """
    require_probability(min(1.0, scale), "scale")
    rng = ensure_rng(seed)
    num_nodes = max(20, int(round(235 * scale)))
    graph, factions = synthetic_signed_network(
        num_nodes=num_nodes,
        average_degree=2.9,
        negative_fraction=0.292,
        num_factions=2,
        faction_sizes=[0.6, 0.4],
        cross_faction_bias=0.85,
        topology="erdos_renyi",
        seed=rng,
    )
    skills = assign_skills_zipf(
        graph.nodes(),
        num_skills=max(32, int(round(1024 * scale))),
        skills_per_user=12.0,
        exponent=1.1,
        skill_prefix="category",
        seed=rng,
    )
    return SignedDataset(
        name="slashdot",
        graph=graph,
        skills=skills,
        factions=factions,
        description=(
            "Synthetic stand-in for the Slashdot friend/foe subset used in the paper "
            "(214 users, 304 edges, 29.2% negative); skills model post categories."
        ),
    )


def epinions_like(seed: RandomState = 17, scale: float = 0.08) -> SignedDataset:
    """Synthetic stand-in for the Epinions signed network joined with RED categories.

    The original has 28 854 users, 208 778 edges (16.7 % negative) and 523
    product-category skills.  The default ``scale`` of 0.08 yields roughly
    2 300 users while preserving the average degree, the negative-edge
    fraction and the skill universe size.
    """
    require_positive(scale, "scale")
    rng = ensure_rng(seed)
    num_nodes = max(50, int(round(28_854 * scale)))
    graph, factions = synthetic_signed_network(
        num_nodes=num_nodes,
        average_degree=14.5,
        negative_fraction=0.167,
        num_factions=2,
        faction_sizes=[0.7, 0.3],
        cross_faction_bias=0.9,
        topology="scale_free",
        seed=rng,
    )
    skills = assign_skills_zipf(
        graph.nodes(),
        num_skills=523,
        skills_per_user=6.0,
        exponent=1.0,
        skill_prefix="product",
        seed=rng,
    )
    return SignedDataset(
        name="epinions",
        graph=graph,
        skills=skills,
        factions=factions,
        description=(
            "Synthetic stand-in for the Epinions trust/distrust network joined with the "
            "RED product categories (28,854 users, 208,778 edges, 16.7% negative), "
            f"generated at scale={scale}."
        ),
    )


def wikipedia_like(seed: RandomState = 19, scale: float = 0.15) -> SignedDataset:
    """Synthetic stand-in for the Wikipedia adminship-election signed network.

    The original has 7 066 users and 100 790 edges (21.5 % negative); skills
    are synthetic in the paper as well (500 Zipf-distributed skills assigned
    uniformly at random), so the skill model here is identical to the paper's.
    """
    require_positive(scale, "scale")
    rng = ensure_rng(seed)
    num_nodes = max(50, int(round(7_066 * scale)))
    graph, factions = synthetic_signed_network(
        num_nodes=num_nodes,
        average_degree=14.0,
        negative_fraction=0.215,
        num_factions=2,
        faction_sizes=[0.55, 0.45],
        cross_faction_bias=0.9,
        topology="scale_free",
        seed=rng,
    )
    skills = assign_skills_zipf(
        graph.nodes(),
        num_skills=500,
        skills_per_user=4.0,
        exponent=1.0,
        skill_prefix="skill",
        seed=rng,
    )
    return SignedDataset(
        name="wikipedia",
        graph=graph,
        skills=skills,
        factions=factions,
        description=(
            "Synthetic stand-in for the Wikipedia admin-election signed network "
            "(7,066 users, 100,790 edges, 21.5% negative) with the paper's own "
            f"synthetic Zipf skill model, generated at scale={scale}."
        ),
    )


def toy_dataset(seed: RandomState = 7) -> SignedDataset:
    """A tiny deterministic dataset for quickstarts, tests and documentation.

    Twelve users in two friendly clusters joined by a few negative edges, with
    a handful of named skills spread so that small tasks are solvable.
    """
    edges = [
        ("ana", "bob", POSITIVE),
        ("ana", "cat", POSITIVE),
        ("bob", "cat", POSITIVE),
        ("cat", "dan", POSITIVE),
        ("dan", "eve", POSITIVE),
        ("eve", "ana", POSITIVE),
        ("fay", "gus", POSITIVE),
        ("gus", "hal", POSITIVE),
        ("hal", "ivy", POSITIVE),
        ("ivy", "fay", POSITIVE),
        ("ivy", "jon", POSITIVE),
        ("jon", "kim", POSITIVE),
        ("kim", "lee", POSITIVE),
        ("lee", "jon", POSITIVE),
        ("dan", "fay", NEGATIVE),
        ("eve", "gus", NEGATIVE),
        ("cat", "jon", POSITIVE),
        ("bob", "kim", NEGATIVE),
    ]
    graph = SignedGraph.from_edges(edges)
    skills = SkillAssignment(
        {
            "ana": {"python", "statistics"},
            "bob": {"python", "databases"},
            "cat": {"visualisation", "databases"},
            "dan": {"statistics", "devops"},
            "eve": {"frontend", "python"},
            "fay": {"devops", "databases"},
            "gus": {"frontend", "design"},
            "hal": {"design", "writing"},
            "ivy": {"writing", "statistics"},
            "jon": {"python", "design"},
            "kim": {"databases", "writing"},
            "lee": {"visualisation", "frontend"},
        }
    )
    return SignedDataset(
        name="toy",
        graph=graph,
        skills=skills,
        factions={},
        description="Hand-crafted 12-user example used by the quickstart and the tests.",
    )


def figure_1a_graph() -> SignedGraph:
    """The example of Figure 1(a): ``u`` and ``v`` are SBP- but not SP-compatible.

    The only shortest path ``(u, x1, v)`` is negative, so no SP relation holds.
    The path ``(u, x2, x3, x4, v)`` is positive and structurally balanced, so
    SBP holds; the shorter positive path ``(u, x2, x1, v)`` is *not*
    structurally balanced because the shortcut edge ``(u, x1)`` closes the
    unbalanced triangle ``(u, x1, x2)``.
    """
    return SignedGraph.from_edges(
        [
            ("u", "x1", NEGATIVE),
            ("x1", "v", POSITIVE),
            ("u", "x2", POSITIVE),
            ("x2", "x1", POSITIVE),
            ("x2", "x3", NEGATIVE),
            ("x3", "x4", NEGATIVE),
            ("x4", "v", POSITIVE),
        ]
    )


def figure_1b_graph() -> SignedGraph:
    """An example in the spirit of Figure 1(b): the prefix property fails.

    The shortest positive structurally balanced path from ``u`` to ``x4`` is
    ``(u, x3, x4)``, yet it cannot be extended towards ``v`` — adding ``x5``
    closes the unbalanced triangle ``(x3, x4, x5)``.  The only positive
    structurally balanced path from ``u`` to ``v`` is the longer
    ``(u, x1, x2, x4, x5, v)``, whose prefix to ``x4`` is *not* the shortest
    balanced one.  Consequently the SBPH heuristic (which keeps a single
    representative path per node and sign) misses the ``(u, v)`` pair while
    the exact SBP relation contains it.
    """
    return SignedGraph.from_edges(
        [
            ("u", "x1", POSITIVE),
            ("x1", "x2", POSITIVE),
            ("x2", "x4", POSITIVE),
            ("u", "x3", POSITIVE),
            ("x3", "x4", POSITIVE),
            ("x3", "x5", NEGATIVE),
            ("x4", "x5", POSITIVE),
            ("x5", "v", POSITIVE),
        ]
    )


# --------------------------------------------------------------------------- internals


def _split_into_factions(
    nodes: List[Node],
    num_factions: int,
    faction_sizes: Optional[List[float]],
    rng,
) -> Dict[Node, int]:
    require_positive(num_factions, "num_factions")
    if faction_sizes is None:
        weights = [1.0] * num_factions
    else:
        if len(faction_sizes) != num_factions:
            raise ValueError(
                f"faction_sizes has {len(faction_sizes)} entries, expected {num_factions}"
            )
        weights = list(faction_sizes)
    total = sum(weights)
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    factions: Dict[Node, int] = {}
    start = 0
    for index, weight in enumerate(weights):
        count = int(round(len(shuffled) * weight / total))
        if index == len(weights) - 1:
            count = len(shuffled) - start
        for node in shuffled[start : start + count]:
            factions[node] = index
        start += count
    # Any rounding leftovers land in the last faction.
    for node in shuffled[start:]:
        factions[node] = num_factions - 1
    return factions


# ------------------------------------------------------------------ CSR scale


def synthetic_csr_network(
    num_nodes: int,
    average_degree: float = 20.0,
    negative_fraction: float = 0.17,
    num_factions: int = 8,
    cross_faction_bias: float = 0.9,
    seed: Optional[int] = 0,
):
    """Generate a connected signed network straight into CSR planes.

    This is the million-node counterpart of :func:`synthetic_signed_network`:
    the whole pipeline is vectorised numpy and never touches the dict
    :class:`~repro.signed.graph.SignedGraph`, so a 1M-node / 10M-edge graph
    builds in seconds within a few hundred MB.

    The topology is a random Hamiltonian path (guaranteeing connectivity, so
    no LCC pass is needed) plus uniform random extra edges up to the target
    edge count.  Signs follow the same planted-partition semantics as
    :func:`faction_biased_signs`: ``negative_fraction`` of the edges are
    negative, with ``cross_faction_bias`` of those drawn from cross-faction
    edges (topped up from the other pool when one runs short).

    Returns ``(csr, factions)`` where ``csr`` is a
    :class:`~repro.signed.csr.CSRSignedGraph` whose nodes are ``0..n-1`` (in
    order, so ``.store`` snapshots use the zero-byte ``range`` node table) and
    ``factions`` is an ``int64`` array of per-node faction indices.
    """
    import numpy as np

    from repro.signed.csr import CSRSignedGraph
    from repro.signed.ingest import _group_keys, build_csr_planes

    require_positive(num_nodes, "num_nodes")
    require_positive(average_degree, "average_degree")
    require_positive(num_factions, "num_factions")
    require_probability(negative_fraction, "negative_fraction")
    require_probability(cross_faction_bias, "cross_faction_bias")
    rng = np.random.default_rng(seed)
    n = int(num_nodes)

    # Backbone: a random permutation path keeps every node in one component.
    perm = rng.permutation(n).astype(np.int64)
    target_edges = max(n - 1, int(round(n * average_degree / 2.0)))
    extra = target_edges - (n - 1)
    eu = np.concatenate((perm[:-1], rng.integers(0, n, size=extra, dtype=np.int64)))
    ev = np.concatenate((perm[1:], rng.integers(0, n, size=extra, dtype=np.int64)))

    # Drop self-loops, then dedupe unordered pairs keeping first appearance
    # (so the backbone edges, listed first, always survive).
    keep = eu != ev
    eu, ev = eu[keep], ev[keep]
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    first_idx = np.sort(_group_keys(lo * n + hi)[2])
    eu, ev = eu[first_idx], ev[first_idx]
    m = eu.size

    factions = rng.integers(0, num_factions, size=n, dtype=np.int64)
    cross = factions[eu] != factions[ev]
    cross_idx = np.flatnonzero(cross)
    intra_idx = np.flatnonzero(~cross)

    target_negative = int(round(negative_fraction * m))
    negative_cross = min(cross_idx.size, int(round(cross_faction_bias * target_negative)))
    negative_intra = min(intra_idx.size, target_negative - negative_cross)
    shortfall = target_negative - negative_cross - negative_intra
    if shortfall > 0:
        extra_cross = min(shortfall, cross_idx.size - negative_cross)
        negative_cross += extra_cross
        shortfall -= extra_cross
        negative_intra += min(shortfall, intra_idx.size - negative_intra)

    signs = np.ones(m, dtype=np.int64)
    if negative_cross:
        signs[rng.choice(cross_idx, size=negative_cross, replace=False)] = -1
    if negative_intra:
        signs[rng.choice(intra_idx, size=negative_intra, replace=False)] = -1

    indptr, indices, sign_plane = build_csr_planes(n, eu, ev, signs)
    return CSRSignedGraph(indptr, indices, sign_plane, list(range(n))), factions


def _vectorised_zipf_skills(
    num_users: int,
    num_skills: int,
    skills_per_user: float,
    exponent: float,
    seed: Optional[int],
) -> SkillAssignment:
    """Zipf-popularity skills for dense ``0..n-1`` users, vectorised.

    Matches the spirit (and the ``skill-<rank>`` naming) of
    :func:`~repro.skills.generators.assign_skills_zipf` without its per-user
    Python sampling loop: per-user skill counts are ``1 + Poisson(mean - 1)``
    and each draw picks a skill rank from the Zipf law.  Every user keeps at
    least one skill.
    """
    import numpy as np

    rng = np.random.default_rng(None if seed is None else seed + 0x5B1F)
    ranks = np.arange(1, num_skills + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    probabilities = weights / weights.sum()

    counts = 1 + rng.poisson(max(0.0, skills_per_user - 1.0), size=num_users)
    draws = rng.choice(num_skills, size=int(counts.sum()), p=probabilities)
    users = np.repeat(np.arange(num_users, dtype=np.int64), counts)
    # Collapse duplicate (user, skill) draws (a sort and a mask: numpy's
    # hashing ``np.unique`` is several times slower here); every user keeps
    # one, so the users' runs of pairs are contiguous and in user order.
    pair_key = np.sort(users * num_skills + draws)
    pair_key = pair_key[np.concatenate(([True], pair_key[1:] != pair_key[:-1]))]
    pair_users = pair_key // num_skills
    bounds = np.searchsorted(pair_users, np.arange(num_users + 1)).tolist()
    ranks = (pair_key % num_skills).tolist()

    # A user's skills go in the iteration order of a set built by rank, and
    # the skill universe in their first appearance: the orders this dataset
    # has always had, those of ``SkillAssignment({user: set_by_rank})``.
    names = [f"skill-{rank}" for rank in range(1, num_skills + 1)]
    ordered: List[str] = []
    for start, end in zip(bounds, bounds[1:]):
        ordered.extend(set(map(names.__getitem__, ranks[start:end])))
    skills = list(dict.fromkeys(ordered))
    position = dict(zip(skills, range(len(skills))))
    skill_idx = np.fromiter(map(position.__getitem__, ordered), np.int64, len(ordered))
    return _grouped_assignment(list(range(num_users)), skills, pair_users, skill_idx)


def million_scale_dataset(
    seed: Optional[int] = 43,
    scale: float = 1.0,
    average_degree: float = 20.0,
    negative_fraction: float = 0.17,
    num_skills: int = 500,
    skills_per_user: float = 4.0,
) -> SignedDataset:
    """A CSR-only synthetic dataset sized for the million-node experiments.

    ``scale=1.0`` is 1M nodes / ~10M undirected edges; smaller scales shrink
    proportionally (floor 1 000 nodes) so the same dataset name works in
    tests.  The graph is served through
    :func:`~repro.signed.lazy.as_signed_graph`, so consumers that stay on the
    CSR fast paths never materialise dict adjacency.  Factions are left out of
    the dataset record: a 1M-entry dict would defeat the point of the CSR-only
    path (use :func:`synthetic_csr_network` directly if you need them).
    """
    from repro.signed.lazy import as_signed_graph

    num_nodes = max(1000, int(round(1_000_000 * scale)))
    csr, _ = synthetic_csr_network(
        num_nodes,
        average_degree=average_degree,
        negative_fraction=negative_fraction,
        seed=seed,
    )
    skills = _vectorised_zipf_skills(
        num_nodes, num_skills, skills_per_user, exponent=1.0, seed=seed
    )
    return SignedDataset(
        name="million",
        graph=as_signed_graph(csr),
        skills=skills,
        description=(
            f"CSR-only synthetic benchmark graph: {num_nodes} nodes at average "
            f"degree {average_degree:g}, planted-partition signs "
            f"({negative_fraction:.0%} negative). Built without the dict graph."
        ),
    )
