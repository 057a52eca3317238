"""Pairwise compatibility statistics (the "comp. users" rows of Table 2).

For small graphs the statistics are computed exactly over all unordered node
pairs; for larger graphs a uniform random sample of pairs gives an unbiased
estimate of the same percentage.  Both paths share the :class:`PairStatistics`
result type so the experiment code does not care which one was used.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.compatibility.base import CompatibilityRelation

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids a cycle)
    from repro.compatibility.engine import CompatibilityEngine
from repro.exceptions import NodeNotFoundError
from repro.signed.graph import Node, SignedGraph
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class PairStatistics:
    """Fraction of compatible (unordered, distinct) node pairs.

    Attributes
    ----------
    relation_name:
        Name of the compatibility relation the statistics refer to.
    compatible_pairs / evaluated_pairs:
        Raw counts; ``fraction`` is their ratio.
    sampled:
        ``True`` when the pairs were sampled rather than enumerated.
    """

    relation_name: str
    compatible_pairs: int
    evaluated_pairs: int
    sampled: bool

    @property
    def fraction(self) -> float:
        """Compatible fraction in ``[0, 1]`` (0.0 when nothing was evaluated)."""
        if self.evaluated_pairs == 0:
            return 0.0
        return self.compatible_pairs / self.evaluated_pairs

    @property
    def percentage(self) -> float:
        """Compatible fraction as a percentage, as printed in the paper."""
        return 100.0 * self.fraction


class CompatibilityMatrix:
    """Materialised compatible sets for every node of a (small) graph.

    Mostly a convenience for tests, examples and exhaustive experiments; the
    sampled estimators below should be preferred for large graphs.
    """

    def __init__(self, relation: CompatibilityRelation) -> None:
        self._relation = relation
        self._sets: Dict[Node, FrozenSet[Node]] = {
            node: relation.compatible_with(node) for node in relation.graph.nodes()
        }
        # Dense positions (graph insertion order) give a canonical unordered-pair
        # orientation without relying on node comparability or repr uniqueness.
        self._positions: Dict[Node, int] = {
            node: position for position, node in enumerate(self._sets)
        }

    @property
    def relation(self) -> CompatibilityRelation:
        """The relation this matrix was built from."""
        return self._relation

    def compatible_with(self, node: Node) -> FrozenSet[Node]:
        """The compatible set of ``node`` (materialised)."""
        try:
            return self._sets[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def are_compatible(self, u: Node, v: Node) -> bool:
        """Pair query answered from the materialised sets."""
        if u not in self._sets:
            raise NodeNotFoundError(u)
        if v not in self._sets:
            raise NodeNotFoundError(v)
        return u == v or v in self._sets[u]

    def compatible_pairs(self) -> Set[Tuple[Node, Node]]:
        """All unordered compatible pairs of distinct nodes.

        Pairs are oriented by dense node position, so the result is
        well-defined for any hashable node type (no reliance on ``repr``).
        """
        positions = self._positions
        pairs: Set[Tuple[Node, Node]] = set()
        for node, compatible in self._sets.items():
            for other in compatible:
                if other == node:
                    continue
                if positions[node] < positions[other]:
                    pairs.add((node, other))
                else:
                    pairs.add((other, node))
        return pairs

    def statistics(self) -> PairStatistics:
        """Exact :class:`PairStatistics` over all unordered pairs."""
        num_nodes = len(self._sets)
        total_pairs = num_nodes * (num_nodes - 1) // 2
        return PairStatistics(
            relation_name=self._relation.name,
            compatible_pairs=len(self.compatible_pairs()),
            evaluated_pairs=total_pairs,
            sampled=False,
        )


def exact_pair_statistics(relation: CompatibilityRelation) -> PairStatistics:
    """Exact compatible-pair fraction over all unordered pairs.

    One batched :meth:`~CompatibilityRelation.batch_compatibility_degrees`
    sweep over every node; the relation is symmetric, so each compatible
    pair is counted twice and the sum is halved.
    """
    return _degree_statistics(relation, relation.graph.nodes(), sampled=False)


def sampled_pair_statistics(
    relation: CompatibilityRelation,
    num_pairs: int,
    seed: RandomState = None,
) -> PairStatistics:
    """Estimate the compatible-pair fraction from ``num_pairs`` uniform random pairs."""
    require_positive(num_pairs, "num_pairs")
    rng = ensure_rng(seed)
    nodes = relation.graph.nodes()
    if len(nodes) < 2:
        return PairStatistics(relation.name, 0, 0, sampled=True)
    compatible = 0
    for _ in range(num_pairs):
        u, v = rng.sample(nodes, 2)
        if relation.are_compatible(u, v):
            compatible += 1
    return PairStatistics(
        relation_name=relation.name,
        compatible_pairs=compatible,
        evaluated_pairs=num_pairs,
        sampled=True,
    )


def source_sampled_pair_statistics(
    relation: CompatibilityRelation,
    num_sources: int,
    seed: RandomState = None,
    engine: Optional["CompatibilityEngine"] = None,
) -> PairStatistics:
    """Estimate the compatible-pair fraction from a uniform sample of *sources*.

    For every sampled source the full compatible set is computed and compared
    against all other nodes, so the estimate averages ``num_sources`` exact
    per-source fractions.  This amortises the per-source work (one signed BFS
    or balanced-path search) over ``n - 1`` pairs, which is far cheaper than
    sampling independent pairs for relations with expensive per-source
    pre-computation (SBP/SBPH).  The estimator is unbiased because the
    compatible-pair indicator is symmetric in the pair.

    The sample is answered through the relation's batched strategy: the SP*
    family runs one multi-source CSR BFS, the balanced relations
    resolve the whole sample with one shared reverse sweep, and the
    base-class default loops ``compatible_with``.  Passing an ``engine``
    routes the sweep through
    :meth:`~repro.compatibility.engine.CompatibilityEngine.compatibility_degrees`
    (a subclass may answer per source, as the equivalence tests' per-pair
    reference does).  The counts — and therefore the returned statistics —
    are identical across strategies.
    """
    require_positive(num_sources, "num_sources")
    if engine is not None and engine.relation is not relation:
        raise ValueError("the engine must be built on the given relation")
    rng = ensure_rng(seed)
    nodes = relation.graph.nodes()
    if len(nodes) < 2:
        return PairStatistics(relation.name, 0, 0, sampled=True)
    sources = rng.sample(nodes, min(num_sources, len(nodes)))
    return _degree_statistics(relation, sources, engine=engine)


def _degree_statistics(
    relation: CompatibilityRelation,
    sources: List[Node],
    engine: Optional["CompatibilityEngine"] = None,
    sampled: bool = True,
) -> PairStatistics:
    """Sum the sources' compatibility degrees in one batched sweep.

    Only the pair normaliser differs: a sample evaluates ``n - 1`` pairs per
    source, while the exact statistics over all ``n`` nodes count each
    unordered pair from both ends, so the sum is halved.
    """
    if engine is not None:
        compatible = sum(engine.compatibility_degrees(sources))
    else:
        compatible = sum(relation.batch_compatibility_degrees(sources))
    others = relation.graph.number_of_nodes() - 1
    if sampled:
        return PairStatistics(relation.name, compatible, len(sources) * others, sampled=True)
    return PairStatistics(
        relation.name, compatible // 2, len(sources) * others // 2, sampled=False
    )


def pair_statistics(
    relation: CompatibilityRelation,
    max_exact_nodes: int = 500,
    num_sampled_sources: int = 200,
    seed: RandomState = None,
    engine: Optional["CompatibilityEngine"] = None,
) -> PairStatistics:
    """Exact statistics for small graphs, source-sampled statistics otherwise.

    ``max_exact_nodes`` controls the cut-over: graphs with at most that many
    nodes are enumerated exhaustively (like the paper does for Slashdot),
    larger graphs are estimated from ``num_sampled_sources`` random sources
    (routed through ``engine`` when one is given).
    """
    if relation.graph.number_of_nodes() <= max_exact_nodes:
        return exact_pair_statistics(relation)
    return source_sampled_pair_statistics(
        relation, num_sampled_sources, seed=seed, engine=engine
    )


def relation_overlap(
    first: CompatibilityRelation,
    second: CompatibilityRelation,
    pairs: Optional[Iterable[Tuple[Node, Node]]] = None,
    num_sampled_pairs: int = 20_000,
    seed: RandomState = None,
) -> float:
    """Fraction of evaluated pairs on which the two relations agree.

    Used by the SBP-vs-SBPH ablation (the paper reports a ~2.5 % disagreement
    on Slashdot).  When ``pairs`` is not given, pairs are either enumerated
    (small graphs) or sampled.
    """
    if first.graph is not second.graph and first.graph != second.graph:
        raise ValueError("relations must be defined over the same graph")
    if pairs is None:
        nodes = first.graph.nodes()
        if len(nodes) <= 500:
            pairs = list(itertools.combinations(nodes, 2))
        else:
            rng = ensure_rng(seed)
            pairs = [tuple(rng.sample(nodes, 2)) for _ in range(num_sampled_pairs)]
    pair_list: List[Tuple[Node, Node]] = list(pairs)
    if not pair_list:
        return 1.0
    agreements = sum(
        1
        for u, v in pair_list
        if first.are_compatible(u, v) == second.are_compatible(u, v)
    )
    return agreements / len(pair_list)
