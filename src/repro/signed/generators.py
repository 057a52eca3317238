"""Random signed-graph generators.

Real signed social networks (the paper's Slashdot, Epinions and Wikipedia
datasets) share three structural traits the generators below reproduce:

* heavy-tailed degree distributions and small diameters;
* a minority of negative edges (roughly 17–30 %);
* signs that are largely consistent with structural balance — most triangles
  are balanced, because communities of mutual friends antagonise each other.

The main generator, :func:`planted_factions_graph`, takes a topology (scale-
free, small-world or Erdős–Rényi), plants latent "factions", and signs edges
positively inside a faction and negatively across factions, with a
configurable noise level.  With zero noise the result is perfectly balanced;
with noise around 0.05–0.15 the balance statistics resemble the real networks.

All generators accept a seed and are fully deterministic given one.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.signed.components import largest_connected_component
from repro.signed.graph import NEGATIVE, POSITIVE, Node, SignedGraph
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive, require_probability

#: Topology names accepted by :func:`planted_factions_graph`.
TOPOLOGIES = ("scale_free", "small_world", "erdos_renyi")


def signed_erdos_renyi(
    num_nodes: int,
    edge_probability: float,
    negative_fraction: float = 0.2,
    seed: RandomState = None,
) -> SignedGraph:
    """Erdős–Rényi topology with independently random signs.

    Every potential edge appears with ``edge_probability``; each existing edge
    is negative with probability ``negative_fraction``.  This is the
    "unstructured" null model — its triangles are *not* biased towards
    balance, which makes it a useful contrast to
    :func:`planted_factions_graph` in tests and ablations.
    """
    require_positive(num_nodes, "num_nodes")
    require_probability(edge_probability, "edge_probability")
    require_probability(negative_fraction, "negative_fraction")
    rng = ensure_rng(seed)
    topology = nx.gnp_random_graph(num_nodes, edge_probability, seed=rng.randrange(2**32))
    return _sign_uniformly(topology, negative_fraction, rng)


def signed_barabasi_albert(
    num_nodes: int,
    edges_per_node: int,
    negative_fraction: float = 0.2,
    seed: RandomState = None,
) -> SignedGraph:
    """Scale-free (Barabási–Albert) topology with independently random signs."""
    require_positive(num_nodes, "num_nodes")
    require_positive(edges_per_node, "edges_per_node")
    require_probability(negative_fraction, "negative_fraction")
    rng = ensure_rng(seed)
    topology = nx.barabasi_albert_graph(
        num_nodes, min(edges_per_node, num_nodes - 1), seed=rng.randrange(2**32)
    )
    return _sign_uniformly(topology, negative_fraction, rng)


def signed_watts_strogatz(
    num_nodes: int,
    nearest_neighbors: int,
    rewiring_probability: float = 0.1,
    negative_fraction: float = 0.2,
    seed: RandomState = None,
) -> SignedGraph:
    """Small-world (Watts–Strogatz) topology with independently random signs."""
    require_positive(num_nodes, "num_nodes")
    require_positive(nearest_neighbors, "nearest_neighbors")
    require_probability(rewiring_probability, "rewiring_probability")
    require_probability(negative_fraction, "negative_fraction")
    rng = ensure_rng(seed)
    topology = nx.connected_watts_strogatz_graph(
        num_nodes,
        min(nearest_neighbors, num_nodes - 1),
        rewiring_probability,
        seed=rng.randrange(2**32),
    )
    return _sign_uniformly(topology, negative_fraction, rng)


def planted_factions_graph(
    num_nodes: int,
    average_degree: float = 6.0,
    num_factions: int = 2,
    sign_noise: float = 0.1,
    topology: str = "scale_free",
    faction_sizes: Optional[Sequence[float]] = None,
    seed: RandomState = None,
) -> Tuple[SignedGraph, Dict[Node, int]]:
    """Generate a signed graph with planted factions (balance-biased signs).

    Parameters
    ----------
    num_nodes:
        Number of nodes.
    average_degree:
        Target mean degree; converted into the topology generator's native
        parameter.
    num_factions:
        Number of latent camps.  Two camps give a (noisy) structurally
        balanced graph; more camps give a "weakly balanced" graph.
    sign_noise:
        Probability that an edge receives the sign *opposite* to what the
        faction structure dictates (intra-faction negative / inter-faction
        positive).  ``0.0`` yields a perfectly balanced graph when
        ``num_factions == 2``.
    topology:
        One of ``'scale_free'``, ``'small_world'``, ``'erdos_renyi'``.
    faction_sizes:
        Optional relative faction sizes (normalised internally); uniform by
        default.
    seed:
        Seed / generator for reproducibility.

    Returns
    -------
    (graph, factions):
        The signed graph and the planted node -> faction-index assignment.
    """
    require_positive(num_nodes, "num_nodes")
    require_positive(average_degree, "average_degree")
    require_positive(num_factions, "num_factions")
    require_probability(sign_noise, "sign_noise")
    if topology not in TOPOLOGIES:
        raise ValueError(f"topology must be one of {TOPOLOGIES}, got {topology!r}")
    rng = ensure_rng(seed)

    topology_graph = _build_topology(num_nodes, average_degree, topology, rng)
    factions = _assign_factions(list(topology_graph.nodes()), num_factions, faction_sizes, rng)

    graph = SignedGraph()
    for node in topology_graph.nodes():
        graph.add_node(node)
    for u, v in topology_graph.edges():
        if u == v:
            continue
        same_faction = factions[u] == factions[v]
        sign = POSITIVE if same_faction else NEGATIVE
        if rng.random() < sign_noise:
            sign = -sign
        graph.add_edge(u, v, sign)
    return graph, factions


def balanced_graph(
    num_nodes: int,
    average_degree: float = 6.0,
    topology: str = "scale_free",
    seed: RandomState = None,
) -> Tuple[SignedGraph, Dict[Node, int]]:
    """Generate a perfectly structurally balanced two-faction graph."""
    return planted_factions_graph(
        num_nodes,
        average_degree=average_degree,
        num_factions=2,
        sign_noise=0.0,
        topology=topology,
        seed=seed,
    )


def all_positive_graph(
    num_nodes: int,
    average_degree: float = 6.0,
    topology: str = "scale_free",
    seed: RandomState = None,
) -> SignedGraph:
    """Generate a graph whose edges are all positive (classic team-formation setting)."""
    graph, _ = planted_factions_graph(
        num_nodes,
        average_degree=average_degree,
        num_factions=1,
        sign_noise=0.0,
        topology=topology,
        seed=seed,
    )
    return graph


def flip_random_signs(
    graph: SignedGraph, fraction: float, seed: RandomState = None
) -> SignedGraph:
    """Return a copy of ``graph`` with a random ``fraction`` of edge signs flipped."""
    require_probability(fraction, "fraction")
    rng = ensure_rng(seed)
    perturbed = graph.copy()
    edges = list(perturbed.edge_triples())
    flip_count = int(round(fraction * len(edges)))
    for u, v, sign in rng.sample(edges, flip_count):
        perturbed.set_sign(u, v, -sign)
    return perturbed


def connected_planted_factions_graph(
    num_nodes: int,
    average_degree: float = 6.0,
    num_factions: int = 2,
    sign_noise: float = 0.1,
    topology: str = "scale_free",
    seed: RandomState = None,
) -> Tuple[SignedGraph, Dict[Node, int]]:
    """Like :func:`planted_factions_graph` but restricted to the largest component.

    The paper assumes a connected input graph; this helper is what the
    synthetic datasets use.  The returned faction map is restricted to the
    surviving nodes.
    """
    graph, factions = planted_factions_graph(
        num_nodes,
        average_degree=average_degree,
        num_factions=num_factions,
        sign_noise=sign_noise,
        topology=topology,
        seed=seed,
    )
    component = largest_connected_component(graph)
    surviving = {node: factions[node] for node in component.nodes()}
    return component, surviving


# --------------------------------------------------------------------------- internals


def _build_topology(
    num_nodes: int, average_degree: float, topology: str, rng: random.Random
) -> nx.Graph:
    """Instantiate the unsigned topology with roughly the requested mean degree."""
    nx_seed = rng.randrange(2**32)
    if topology == "scale_free":
        attachment = max(1, int(round(average_degree / 2.0)))
        attachment = min(attachment, max(1, num_nodes - 1))
        return nx.barabasi_albert_graph(num_nodes, attachment, seed=nx_seed)
    if topology == "small_world":
        neighbors = max(2, int(round(average_degree)))
        if num_nodes <= neighbors:
            return nx.complete_graph(num_nodes)
        return nx.connected_watts_strogatz_graph(num_nodes, neighbors, 0.1, seed=nx_seed)
    edge_probability = min(1.0, average_degree / max(1, num_nodes - 1))
    return nx.gnp_random_graph(num_nodes, edge_probability, seed=nx_seed)


def _assign_factions(
    nodes: List[Node],
    num_factions: int,
    faction_sizes: Optional[Sequence[float]],
    rng: random.Random,
) -> Dict[Node, int]:
    """Randomly assign each node to a faction, respecting relative sizes."""
    if faction_sizes is None:
        weights = [1.0] * num_factions
    else:
        if len(faction_sizes) != num_factions:
            raise ValueError(
                f"faction_sizes has {len(faction_sizes)} entries but num_factions={num_factions}"
            )
        if any(size <= 0 for size in faction_sizes):
            raise ValueError("faction_sizes entries must be positive")
        weights = list(faction_sizes)
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)

    factions: Dict[Node, int] = {}
    for node in nodes:
        draw = rng.random()
        for index, threshold in enumerate(cumulative):
            if draw <= threshold:
                factions[node] = index
                break
        else:
            factions[node] = num_factions - 1
    return factions


def _sign_uniformly(
    topology: nx.Graph, negative_fraction: float, rng: random.Random
) -> SignedGraph:
    graph = SignedGraph()
    for node in topology.nodes():
        graph.add_node(node)
    for u, v in topology.edges():
        if u == v:
            continue
        sign = NEGATIVE if rng.random() < negative_fraction else POSITIVE
        graph.add_edge(u, v, sign)
    return graph
