"""The benchmark's four workloads, run inside one fresh interpreter each.

Every workload is closed-loop and single-client: the next query starts when
the previous one returns.  Each takes the workload seed and feeds it into the
dataset, task and churn seeds through the program's public config objects;
seed 0 leaves every configured seed unchanged, so ``paper-fast`` at seed 0
is exactly ``repro-teams reproduce --fast``.

A workload returns an :class:`Outcome`: set-up times, the measured phase's
wall time, per-query and per-update latencies, and ``answers`` — one JSON
value per checked operation, compared against the golden capture.  The
program's functions are imported inside the workload functions, after the
child has patched them, so calls made here go through the wrappers too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

#: Worker processes for the pooled workload (at most the two cores the
#: benchmark is sized for).
POOL_WORKERS = 2
#: Team queries after the statistics in ``scale-million``.  They run RFMD
#: with two seeds on two-skill tasks: LCMD's skill-compatibility degrees
#: take about a minute per query at 100k nodes.
QUERIES_MILLION = 24


def derive_seed(base: int, seed: int) -> int:
    """The configured seed ``base`` moved by the workload seed (0 keeps it)."""
    return (base + 1000 * seed) % (2**31)


@dataclass
class Outcome:
    """What one repetition of a workload measured and answered."""

    setup_s: List[float]
    wall_s: float
    query_s: List[float] = field(default_factory=list)
    update_s: List[float] = field(default_factory=list)
    #: Operation id -> JSON-able answer, compared against the golden capture.
    answers: Dict[str, object] = field(default_factory=dict)
    #: Post-run checks for seeds without a golden capture: op id -> ok.
    invariants: Callable[[], Dict[str, bool]] = lambda: {}


def _seeded_experiment(config, seed: int):
    return replace(
        config,
        datasets=tuple(
            replace(dataset, seed=derive_seed(dataset.seed, seed)) for dataset in config.datasets
        ),
        workload_seed=derive_seed(config.workload_seed, seed),
    )


def _query_answer(result) -> list:
    cost = result.cost if math.isfinite(result.cost) else None
    return [bool(result.solved), cost, int(result.team_size)]


def _query_answers(recorder) -> Dict[str, list]:
    return {
        f"query.{index:04d}": _query_answer(record[2])
        for index, record in enumerate(recorder.calls["query"])
    }


def _team_checks(recorder, full: bool) -> Dict[str, bool]:
    """Every recorded query's team covers its task; ``full`` also checks
    pairwise compatibility and the reported cost (static graphs only)."""
    from repro.teams.validation import validate_team

    checks = {}
    for index, (_seconds, args, result) in enumerate(recorder.calls["query"]):
        problem = args[1]
        if not result.solved:
            ok = not math.isfinite(result.cost)
        elif full:
            report = validate_team(
                result.team, problem.task, problem.assignment, problem.relation, problem.oracle
            )
            ok = report.is_valid and report.cost == result.cost
        else:
            ok = (
                problem.assignment.covers(result.team, problem.task.skills)
                and result.team_size <= len(problem.task.skills)
                and result.cost >= 0
            )
        checks[f"query.{index:04d}"] = ok
    return checks


def _chain_ok(percentages: List[float]) -> bool:
    """Containment SPA <= SPM <= SPO <= SBPH <= NNE, as compatible-pair shares."""
    return all(a <= b + 1e-9 for a, b in zip(percentages, percentages[1:]))


def _table2_checks(table2, order) -> Dict[str, bool]:
    checks = {}
    for dataset_result in table2.datasets:
        shares = [
            dataset_result.cells[name].compatible_users_pct
            for name in order
            if dataset_result.cells.get(name) is not None
        ]
        checks[f"table2.{dataset_result.dataset}"] = _chain_ok(shares)
    return checks


def _figure2ab_checks(figure) -> Dict[str, bool]:
    """No algorithm solves more tasks than have pairwise-compatible skills."""
    return {
        f"figure2ab.{relation}": all(
            series.solved_pct <= figure.max_upper_bound[relation] + 1e-9
            for series in figure.series[relation].values()
        )
        for relation in figure.relations
    }


def paper_fast(seed: int, recorder, patcher, setup_reps: int) -> Outcome:
    """``run_all(fast_config())``: Tables 1-3 and Figure 2 on the small stand-ins."""
    from repro.experiments import runner
    from repro.experiments.config import fast_config

    patcher.patch(
        "repro.experiments.workloads:build_all_dataset_contexts", recorder.wrapper_for("setup")
    )
    patcher.patch("repro.teams.algorithms:run_algorithm", recorder.wrapper_for("query"))
    config = _seeded_experiment(fast_config(), seed)
    for _ in range(setup_reps - 1):
        runner.build_all_dataset_contexts(config)
    start = time.perf_counter()
    report = runner.run_all(config, verbose=False)
    elapsed = time.perf_counter() - start
    setup = recorder.seconds("setup")
    artefacts = {
        "table1": report.table1,
        "table2": report.table2,
        "table3": report.table3,
        "figure2ab": report.figure2ab,
        "figure2cd": report.figure2cd,
    }

    def invariants() -> Dict[str, bool]:
        checks = _table2_checks(report.table2, ("SPA", "SPM", "SPO", "SBPH", "NNE"))
        checks.update(_figure2ab_checks(report.figure2ab))
        return checks

    return Outcome(
        setup_s=setup,
        wall_s=elapsed - setup[-1],
        query_s=recorder.seconds("query"),
        answers={name: artefact.as_text() for name, artefact in artefacts.items()},
        invariants=invariants,
    )


def teams_epinions(seed: int, recorder, patcher, setup_reps: int) -> Outcome:
    """Figure 2(a)/(b) on the default epinions stand-in, SBPH left out."""
    from repro.experiments.config import default_config
    from repro.experiments.figure2 import run_figure2ab
    from repro.experiments.workloads import build_dataset_context

    patcher.patch("repro.teams.algorithms:run_algorithm", recorder.wrapper_for("query"))
    config = replace(
        _seeded_experiment(default_config(), seed),
        team_relations=("SPA", "SPM", "SPO", "NNE"),
    )
    setup = []
    for _ in range(setup_reps):
        start = time.perf_counter()
        context = build_dataset_context(config, "epinions")
        setup.append(time.perf_counter() - start)
    tasks = context.generate_tasks(
        size=config.task_size, count=config.num_tasks, seed=config.workload_seed
    )
    start = time.perf_counter()
    figure = run_figure2ab(config, context, tasks)
    elapsed = time.perf_counter() - start
    answers = _query_answers(recorder)
    answers["figure2ab"] = figure.as_text()

    def invariants() -> Dict[str, bool]:
        checks = _team_checks(recorder, full=True)
        checks.update(_figure2ab_checks(figure))
        return checks

    return Outcome(
        setup_s=setup,
        wall_s=elapsed,
        query_s=recorder.seconds("query"),
        answers=answers,
        invariants=invariants,
    )


def stream_epinions(seed: int, recorder, patcher, setup_reps: int) -> Outcome:
    """Edge churn between team queries on the default epinions stand-in."""
    patcher.patch("repro.datasets:load_dataset", recorder.wrapper_for("setup"))
    patcher.patch("repro.teams.algorithms:run_algorithm", recorder.wrapper_for("query"))
    patcher.patch("repro.experiments.streaming:apply_edge_churn", recorder.wrapper_for("churn"))
    patcher.patch(
        "repro.teams.problem:TeamFormationProblem.refresh", recorder.wrapper_for("refresh")
    )
    from repro.datasets import load_dataset
    from repro.experiments.streaming import StreamingConfig, run_streaming

    config = StreamingConfig(
        dataset="epinions",
        dataset_seed=derive_seed(17, seed),
        relation="SPO",
        num_rounds=24,
        churn_per_round=200,
        tasks_per_round=4,
        task_size=3,
        seed=derive_seed(2020, seed),
    )
    for _ in range(setup_reps - 1):
        load_dataset(config.dataset, seed=config.dataset_seed)
    start = time.perf_counter()
    report = run_streaming(config)
    elapsed = time.perf_counter() - start
    setup = recorder.seconds("setup")
    churn = recorder.seconds("churn")
    refresh = recorder.seconds("refresh")
    per_round = config.tasks_per_round
    updates = [
        churn[index] + sum(refresh[index * per_round : (index + 1) * per_round])
        for index in range(len(churn))
    ]
    answers = _query_answers(recorder)
    for round_result in report.rounds:
        answers[f"round.{round_result.round_index:02d}"] = [
            round_result.edges_added,
            round_result.edges_removed,
            round_result.signs_flipped,
            round_result.generation,
        ]
    return Outcome(
        setup_s=setup,
        wall_s=elapsed - setup[-1],
        query_s=recorder.seconds("query"),
        update_s=updates,
        answers=answers,
        invariants=lambda: _team_checks(recorder, full=False),
    )


def write_million_edges(seed: int, path: str) -> None:
    """Write the ``million`` dataset at scale 0.1 as a SNAP-style edge list."""
    from repro.datasets import load_dataset

    dataset = load_dataset("million", seed=derive_seed(43, seed), scale=0.1)
    us, vs, signs = dataset.graph.csr_view().edge_arrays()
    with open(path, "w", encoding="ascii") as handle:
        handle.write("# million stand-in, scale 0.1: source target sign\n")
        handle.write(
            "".join(
                f"{u}\t{v}\t{sign}\n"
                for u, v, sign in zip(us.tolist(), vs.tolist(), signs.tolist())
            )
        )


def scale_million(seed: int, recorder, patcher, setup_reps: int, edges_path: str) -> Outcome:
    """Ingest a 100k-node edge list, sampled pair statistics, RFMD queries."""
    patcher.patch("repro.teams.algorithms:run_algorithm", recorder.wrapper_for("query"))
    from repro.compatibility import source_sampled_pair_statistics
    from repro.datasets import load_snap_dataset
    from repro.experiments.config import DatasetConfig
    from repro.experiments.workloads import DatasetContext
    from repro.teams import TeamFormationProblem, run_algorithm

    dataset_config = DatasetConfig(
        name="million",
        seed=derive_seed(43, seed),
        num_sampled_sources=64,
        workers=POOL_WORKERS,
    )
    workload_seed = derive_seed(2020, seed)
    setup = []
    for _ in range(min(setup_reps, 3)):  # each parse takes about two seconds
        start = time.perf_counter()
        dataset = load_snap_dataset(
            "million", edges_path, seed=dataset_config.seed, csr_only=True
        )
        setup.append(time.perf_counter() - start)
    context = DatasetContext(dataset, dataset_config)
    tasks = context.generate_tasks(size=2, count=QUERIES_MILLION, seed=workload_seed)
    answers: Dict[str, object] = {}
    start = time.perf_counter()
    for name in ("SPA", "SPO", "NNE"):
        relation_context = context.relation_context(name)
        statistics = source_sampled_pair_statistics(
            relation_context.relation,
            dataset_config.num_sampled_sources,
            seed=dataset_config.seed,
            engine=relation_context.engine,
        )
        answers[f"users.{name}"] = [statistics.compatible_pairs, statistics.evaluated_pairs]
    relation_context = context.relation_context("SPO")
    for task in tasks:
        problem = TeamFormationProblem(
            dataset.graph,
            dataset.skills,
            relation_context.relation,
            task,
            skill_index=relation_context.skill_index,
            engine=relation_context.engine,
        )
        run_algorithm("RFMD", problem, max_seeds=2, seed=workload_seed)
    elapsed = time.perf_counter() - start
    answers.update(_query_answers(recorder))

    def invariants() -> Dict[str, bool]:
        checks = _team_checks(recorder, full=True)
        shares = [answers[f"users.{name}"][0] for name in ("SPA", "SPO", "NNE")]
        checks["users"] = _chain_ok(shares)
        return checks

    return Outcome(
        setup_s=setup,
        wall_s=elapsed,
        query_s=recorder.seconds("query"),
        answers=answers,
        invariants=invariants,
    )


WORKLOADS = {
    "paper-fast": paper_fast,
    "teams-epinions": teams_epinions,
    "stream-epinions": stream_epinions,
    "scale-million": scale_million,
}
