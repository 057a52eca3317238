"""Streaming-update workload: edge churn interleaved with team formation.

The paper evaluates team formation over a *fixed* signed network; real
trust/distrust networks mutate continuously.  This workload exercises the
dynamic-graph subsystem end to end: each round applies a batch of random edge
events (additions, removals, sign flips) to the dataset's graph, refreshes
the problem (delta-applied CSR snapshot rebuild + targeted cache
invalidation), and then answers a batch of team-formation queries with the
paper's deterministic algorithms (LCMD / LCMC / RFMD / RFMC by default).

Because every cache in the stack is generation-keyed, the queries after a
churn batch are answered from whatever cached work survived the batch —
results are identical to a cold engine on a freshly built copy of the mutated
graph (asserted by ``tests/test_streaming.py``), but the incremental cost per
round is far below a cold start.

Run it via ``repro-teams streaming <dataset>`` or
:func:`run_streaming` directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.compatibility import (
    CompatibilityEngine,
    DistanceOracle,
    SkillCompatibilityIndex,
    make_relation,
)
from repro.datasets import load_dataset
from repro.signed.graph import NEGATIVE, POSITIVE, SignedGraph
from repro.skills.task import Task, random_tasks
from repro.teams import TeamFormationProblem, run_algorithm
from repro.utils.rng import ensure_rng
from repro.utils.tables import format_table
from repro.utils.validation import require_positive, require_probability


@dataclass(frozen=True)
class StreamingConfig:
    """Parameters of one streaming run."""

    #: Dataset name (see :func:`repro.datasets.available`).
    dataset: str = "epinions"
    #: Generation seed / scale overrides for the dataset.
    dataset_seed: Optional[int] = None
    scale: Optional[float] = None
    #: Compatibility relation the queries run under.
    relation: str = "SPO"
    #: Deterministic algorithms evaluated each round.
    algorithms: Tuple[str, ...] = ("LCMD", "LCMC", "RFMD", "RFMC")
    #: Number of churn+query rounds.
    num_rounds: int = 8
    #: Edge events applied per round.
    churn_per_round: int = 40
    #: Fractions of the churn batch that add / remove edges (the remainder
    #: flips signs in place).
    add_fraction: float = 0.4
    remove_fraction: float = 0.3
    #: Probability that an added edge is negative.
    negative_fraction: float = 0.2
    #: Team-formation queries per round and their task size.
    tasks_per_round: int = 2
    task_size: int = 3
    #: Cap on Algorithm 2 seeds per query (None = all).
    max_seeds: Optional[int] = 10
    #: Master seed for churn and task generation.
    seed: int = 2020
    #: Require the whole run to stay dict-free: the dataset graph must be a
    #: :class:`~repro.signed.lazy.CSRBackedSignedGraph` and the run fails if
    #: any code path materialises its adjacency dicts.  ``None`` (the
    #: default) enables the check automatically whenever the dataset loads
    #: as a CSR facade (e.g. ``million`` or ``csr_only`` loader datasets);
    #: ``True`` additionally fails if the dataset is dict-backed.
    csr_only: Optional[bool] = None


@dataclass(frozen=True)
class StreamingQueryResult:
    """One (algorithm, task) answer within a round."""

    algorithm: str
    task: Task
    solved: bool
    cost: float
    team_size: int
    seconds: float


@dataclass(frozen=True)
class StreamingRoundResult:
    """Churn applied and queries answered in one round."""

    round_index: int
    edges_added: int
    edges_removed: int
    signs_flipped: int
    #: Wall-clock of ``problem.refresh()`` after the churn batch (delta-applied
    #: snapshot rebuild + targeted cache invalidation).
    refresh_seconds: float
    #: Graph generation after the round's churn.
    generation: int
    queries: Tuple[StreamingQueryResult, ...]


@dataclass
class StreamingReport:
    """All rounds of one streaming run."""

    config: StreamingConfig
    rounds: List[StreamingRoundResult] = field(default_factory=list)

    def as_text(self) -> str:
        """Render one row per (round, algorithm) plus a per-algorithm summary."""
        rows = []
        for round_result in self.rounds:
            per_algorithm: dict = {}
            for query in round_result.queries:
                per_algorithm.setdefault(query.algorithm, []).append(query)
            for algorithm, queries in per_algorithm.items():
                solved = sum(1 for query in queries if query.solved)
                costs = [query.cost for query in queries if query.solved]
                rows.append(
                    [
                        round_result.round_index,
                        f"+{round_result.edges_added}/-{round_result.edges_removed}"
                        f"/~{round_result.signs_flipped}",
                        algorithm,
                        f"{solved}/{len(queries)}",
                        f"{sum(costs) / len(costs):.2f}" if costs else "-",
                        f"{sum(query.seconds for query in queries):.3f}",
                    ]
                )
        headers = ["round", "churn", "algorithm", "solved", "avg cost", "query s"]
        title = (
            f"Streaming workload on {self.config.dataset} under "
            f"{self.config.relation} ({self.config.num_rounds} rounds, "
            f"{self.config.churn_per_round} edge events/round)"
        )
        table = format_table(headers, rows, title=title)
        summary_lines = []
        totals: dict = {}
        for round_result in self.rounds:
            for query in round_result.queries:
                record = totals.setdefault(query.algorithm, [0, 0, 0.0])
                record[0] += query.solved
                record[1] += 1
                record[2] += query.seconds
        for algorithm, (solved, asked, seconds) in totals.items():
            summary_lines.append(
                f"  {algorithm}: solved {solved}/{asked}, total query time {seconds:.3f}s"
            )
        refresh_total = sum(round_result.refresh_seconds for round_result in self.rounds)
        summary_lines.append(f"  refresh (snapshot + invalidation): {refresh_total:.3f}s")
        return table + "\nTotals\n" + "\n".join(summary_lines)


class _ListEdgeCandidates:
    """Candidate edge pairs for the churn sampler, dict-backend reference.

    A plain list of ``(u, v)`` tuples in :meth:`SignedGraph.edges` order,
    maintained exactly (append on add, swap-pop on remove), so after any
    number of events it is still precisely the graph's edge set.
    """

    __slots__ = ("pairs",)

    def __init__(self, graph: SignedGraph) -> None:
        self.pairs = [(edge.u, edge.v) for edge in graph.edges()]

    def __len__(self) -> int:
        return len(self.pairs)

    def get(self, position: int):
        return self.pairs[position]

    def swap_pop(self, position: int) -> None:
        pairs = self.pairs
        pairs[position] = pairs[-1]
        pairs.pop()

    def append(self, u, v) -> None:
        self.pairs.append((u, v))


class _PlaneEdgeCandidates:
    """Array-backed candidate edges, built vectorised from the CSR planes.

    One ``row < col`` mask over the planes replaces the O(m) Python edge
    enumeration.  ``edge_arrays`` order equals the dict ``edges()`` order and
    the list operations mirror :class:`_ListEdgeCandidates` position for
    position, so a run sampled through this variant draws the exact same
    event sequence as the dict-backend reference under the same ``rng``.
    """

    __slots__ = ("us", "vs", "count", "nodes", "index")

    def __init__(self, csr) -> None:
        us, vs, _signs = csr.edge_arrays()
        self.us = us
        self.vs = vs
        self.count = len(us)
        self.nodes = csr._nodes
        self.index = csr._index

    def __len__(self) -> int:
        return self.count

    def get(self, position: int):
        nodes = self.nodes
        return nodes[self.us[position]], nodes[self.vs[position]]

    def swap_pop(self, position: int) -> None:
        last = self.count - 1
        self.us[position] = self.us[last]
        self.vs[position] = self.vs[last]
        self.count = last

    def append(self, u, v) -> None:
        position = self.count
        if position == len(self.us):
            import numpy as np

            capacity = max(64, 2 * len(self.us))
            grown_us = np.empty(capacity, dtype=self.us.dtype)
            grown_vs = np.empty(capacity, dtype=self.vs.dtype)
            grown_us[:position] = self.us[:position]
            grown_vs[:position] = self.vs[:position]
            self.us, self.vs = grown_us, grown_vs
        self.us[position] = self.index[u]
        self.vs[position] = self.index[v]
        self.count = position + 1


def _edge_candidates(graph: SignedGraph):
    """The candidate edge list for ``graph``, reused across churn calls.

    Cached on the graph keyed by its generation: consecutive churn rounds
    with no interleaved foreign mutation skip the O(m) rebuild entirely (on
    both backends — the dict path, too, only re-enumerates after a cache
    miss).  CSR-preferring graphs (the dict-free facade) build the list
    vectorised from the planes instead of enumerating Python edge objects.
    """
    cached = getattr(graph, "_churn_candidates", None)
    if cached is not None and cached[0] == graph.generation:
        return cached[1]
    if getattr(graph, "prefers_csr", False):
        return _PlaneEdgeCandidates(graph.csr_view())
    return _ListEdgeCandidates(graph)


def apply_edge_churn(
    graph: SignedGraph,
    count: int,
    rng,
    add_fraction: float = 0.4,
    remove_fraction: float = 0.3,
    negative_fraction: float = 0.2,
) -> Tuple[int, int, int]:
    """Apply ``count`` random edge events to ``graph``; returns the op counts.

    Events are drawn independently: with probability ``add_fraction`` a new
    edge between two random non-adjacent nodes is added (negative with
    probability ``negative_fraction``), with ``remove_fraction`` a random
    existing edge is removed, otherwise a random existing edge flips its
    sign.  Nodes are never added or removed, so skill assignments (and task
    feasibility) are preserved.  All randomness comes from ``rng``, so a
    round is reproducible from the workload seed.

    The candidate edge list is maintained incrementally and cached on the
    graph across calls (invalidated by generation), so a streaming run pays
    the edge enumeration once, not once per round — and on a CSR-preferring
    graph that one enumeration is a vectorised mask over the planes rather
    than a Python loop.  The two backends draw from candidate lists that are
    equal position for position, so the same ``rng`` produces the same event
    sequence on the dict graph and the dict-free facade (the bit-identity
    contract ``tests/test_streaming.py`` asserts).
    """
    require_probability(add_fraction, "add_fraction")
    require_probability(remove_fraction, "remove_fraction")
    if add_fraction + remove_fraction > 1.0:
        raise ValueError("add_fraction + remove_fraction must be at most 1")
    nodes = graph.nodes()
    edges = _edge_candidates(graph)
    added = removed = flipped = 0
    for _ in range(count):
        roll = rng.random()
        if roll < add_fraction and len(nodes) >= 2:
            for _attempt in range(32):
                u, v = rng.sample(nodes, 2)
                if not graph.has_edge(u, v):
                    sign = NEGATIVE if rng.random() < negative_fraction else POSITIVE
                    graph.add_edge(u, v, sign)
                    edges.append(u, v)
                    added += 1
                    break
        elif roll < add_fraction + remove_fraction and len(edges):
            position = rng.randrange(len(edges))
            u, v = edges.get(position)
            edges.swap_pop(position)
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
                removed += 1
        elif len(edges):
            u, v = edges.get(rng.randrange(len(edges)))
            if graph.has_edge(u, v):
                current = graph.sign(u, v)
                graph.set_sign(u, v, POSITIVE if current == NEGATIVE else NEGATIVE)
                flipped += 1
    graph._churn_candidates = (graph.generation, edges)
    return added, removed, flipped


def run_streaming(
    config: Optional[StreamingConfig] = None, verbose: bool = False
) -> StreamingReport:
    """Run the streaming workload described by ``config``.

    One relation / oracle / engine / skill index is built up front and shared
    by every query of every round, exactly like a long-lived serving process:
    the generation-keyed caches carry whatever survives each churn batch into
    the next round.
    """
    config = config or StreamingConfig()
    require_positive(config.num_rounds, "num_rounds")
    require_positive(config.tasks_per_round, "tasks_per_round")
    dataset = load_dataset(
        config.dataset, seed=config.dataset_seed, scale=config.scale
    )
    graph = dataset.graph
    from repro.signed.lazy import CSRBackedSignedGraph

    if config.csr_only and not isinstance(graph, CSRBackedSignedGraph):
        raise ValueError(
            "csr_only streaming requires a CSR-backed dataset graph "
            f"(dataset {config.dataset!r} loaded a "
            f"{type(graph).__name__}); use a csr_only loader or the "
            "'million' dataset"
        )
    csr_only = (
        isinstance(graph, CSRBackedSignedGraph)
        if config.csr_only is None
        else config.csr_only
    )
    relation = make_relation(config.relation, graph)
    oracle = DistanceOracle(relation)
    engine = CompatibilityEngine(relation, oracle=oracle)
    skill_index = SkillCompatibilityIndex(relation, dataset.skills)
    rng = ensure_rng(config.seed)
    report = StreamingReport(config=config)
    for round_index in range(config.num_rounds):
        added, removed, flipped = apply_edge_churn(
            graph,
            config.churn_per_round,
            rng,
            add_fraction=config.add_fraction,
            remove_fraction=config.remove_fraction,
            negative_fraction=config.negative_fraction,
        )
        tasks = random_tasks(
            dataset.skills,
            size=config.task_size,
            count=config.tasks_per_round,
            seed=config.seed + 7919 * (round_index + 1),
        )
        queries: List[StreamingQueryResult] = []
        refresh_seconds = 0.0
        for task in tasks:
            problem = TeamFormationProblem(
                graph,
                dataset.skills,
                relation,
                task,
                engine=engine,
                skill_index=skill_index,
            )
            start = time.perf_counter()
            problem.refresh()
            refresh_seconds += time.perf_counter() - start
            for algorithm in config.algorithms:
                start = time.perf_counter()
                result = run_algorithm(
                    algorithm,
                    problem,
                    max_seeds=config.max_seeds,
                    seed=config.seed + round_index,
                )
                elapsed = time.perf_counter() - start
                queries.append(
                    StreamingQueryResult(
                        algorithm=algorithm,
                        task=task,
                        solved=result.solved,
                        cost=result.cost,
                        team_size=result.team_size,
                        seconds=elapsed,
                    )
                )
        report.rounds.append(
            StreamingRoundResult(
                round_index=round_index,
                edges_added=added,
                edges_removed=removed,
                signs_flipped=flipped,
                refresh_seconds=refresh_seconds,
                generation=graph.generation,
                queries=tuple(queries),
            )
        )
        if verbose:
            print(
                f"[streaming] round {round_index}: +{added}/-{removed}/~{flipped} "
                f"edges, {len(queries)} queries, generation {graph.generation}",
                flush=True,
            )
        if csr_only and graph.materialised:
            raise RuntimeError(
                f"csr_only streaming run materialised the dict adjacency "
                f"during round {round_index} — a dict-only code path leaked "
                "into the CSR-native stack"
            )
    return report
