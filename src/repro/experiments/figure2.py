"""Experiment F2 — Figure 2: team-formation success rate and cost.

Four panels, all on the team dataset (Epinions in the paper):

* **(a)** percentage of tasks (k = 5) for which each algorithm (LCMD, LCMC,
  RANDOM) finds a compatible team, per compatibility relation, together with
  the MAX upper bound (tasks whose skills are pairwise compatible);
* **(b)** average team diameter of the solved tasks, per algorithm and
  relation;
* **(c)** percentage of solved tasks as the task size k grows (LCMD only);
* **(d)** average team diameter as the task size grows (LCMD only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compatibility.skill_compat import task_has_compatible_skills
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.workloads import DatasetContext, build_dataset_context
from repro.skills.task import Task
from repro.teams.algorithms import run_algorithm
from repro.teams.problem import TeamFormationProblem, TeamFormationResult
from repro.utils.rng import ensure_rng
from repro.utils.tables import format_table


@dataclass(frozen=True)
class AlgorithmSeries:
    """Aggregate outcome of one algorithm over a batch of tasks."""

    algorithm: str
    relation: str
    tasks: int
    solved: int
    average_diameter: float

    @property
    def solved_pct(self) -> float:
        """Percentage of tasks solved."""
        if self.tasks == 0:
            return 0.0
        return 100.0 * self.solved / self.tasks


@dataclass
class Figure2ABResult:
    """Panels (a) and (b): per-relation, per-algorithm aggregates at fixed k."""

    dataset: str
    task_size: int
    relations: Tuple[str, ...]
    algorithms: Tuple[str, ...]
    #: relation -> algorithm -> series.
    series: Dict[str, Dict[str, AlgorithmSeries]] = field(default_factory=dict)
    #: relation -> MAX upper bound (percentage of tasks with compatible skills).
    max_upper_bound: Dict[str, float] = field(default_factory=dict)

    def as_text(self) -> str:
        """Render panels (a) and (b) as two text tables."""
        headers = ["relation"] + [f"{algo} %solved" for algo in self.algorithms] + ["MAX %"]
        solved_rows = []
        for relation in self.relations:
            row: List[object] = [relation]
            for algorithm in self.algorithms:
                series = self.series[relation][algorithm]
                row.append(round(series.solved_pct, 1))
            row.append(round(self.max_upper_bound.get(relation, 0.0), 1))
            solved_rows.append(row)
        text_a = format_table(
            headers,
            solved_rows,
            title=f"Figure 2(a): % of solved tasks (dataset={self.dataset}, k={self.task_size})",
        )

        headers_b = ["relation"] + [f"{algo} diameter" for algo in self.algorithms]
        diameter_rows = []
        for relation in self.relations:
            row = [relation]
            for algorithm in self.algorithms:
                series = self.series[relation][algorithm]
                row.append(round(series.average_diameter, 2))
            diameter_rows.append(row)
        text_b = format_table(
            headers_b,
            diameter_rows,
            title=f"Figure 2(b): average team diameter (dataset={self.dataset}, k={self.task_size})",
        )
        return text_a + "\n\n" + text_b


@dataclass
class Figure2CDResult:
    """Panels (c) and (d): LCMD success rate and diameter versus task size."""

    dataset: str
    algorithm: str
    relations: Tuple[str, ...]
    task_sizes: Tuple[int, ...]
    #: relation -> task size -> series.
    series: Dict[str, Dict[int, AlgorithmSeries]] = field(default_factory=dict)

    def as_text(self) -> str:
        """Render panels (c) and (d) as two text tables."""
        headers = ["relation"] + [f"k={k} %solved" for k in self.task_sizes]
        solved_rows = []
        for relation in self.relations:
            row: List[object] = [relation]
            for k in self.task_sizes:
                row.append(round(self.series[relation][k].solved_pct, 1))
            solved_rows.append(row)
        text_c = format_table(
            headers,
            solved_rows,
            title=f"Figure 2(c): % solved vs task size ({self.algorithm}, dataset={self.dataset})",
        )

        headers_d = ["relation"] + [f"k={k} diameter" for k in self.task_sizes]
        diameter_rows = []
        for relation in self.relations:
            row = [relation]
            for k in self.task_sizes:
                row.append(round(self.series[relation][k].average_diameter, 2))
            diameter_rows.append(row)
        text_d = format_table(
            headers_d,
            diameter_rows,
            title=f"Figure 2(d): average diameter vs task size ({self.algorithm}, dataset={self.dataset})",
        )
        return text_c + "\n\n" + text_d


def _run_batch(
    context: DatasetContext,
    relation_name: str,
    algorithm: str,
    tasks: Sequence[Task],
    config: ExperimentConfig,
) -> AlgorithmSeries:
    """Run one algorithm over a batch of tasks under one relation."""
    relation_context = context.relation_context(relation_name)
    rng = ensure_rng(config.workload_seed)
    solved = 0
    diameters: List[float] = []
    for task in tasks:
        problem = TeamFormationProblem(
            context.dataset.graph,
            context.dataset.skills,
            relation_context.relation,
            task,
            skill_index=relation_context.skill_index,
            engine=relation_context.engine,
        )
        result: TeamFormationResult = run_algorithm(
            algorithm,
            problem,
            max_seeds=config.max_seeds,
            seed=rng,
        )
        if result.solved:
            solved += 1
            diameters.append(result.cost)
    average_diameter = sum(diameters) / len(diameters) if diameters else 0.0
    return AlgorithmSeries(
        algorithm=algorithm,
        relation=relation_name,
        tasks=len(tasks),
        solved=solved,
        average_diameter=average_diameter,
    )


def _max_upper_bound(
    context: DatasetContext, relation_name: str, tasks: Sequence[Task]
) -> float:
    """Percentage of tasks whose skills are pairwise compatible (the MAX bar).

    Reuses the relation context's skill index, so pairs whose degree the
    LCMD/LCMC runs already counted are answered from the cache.
    """
    index = context.relation_context(relation_name).skill_index
    compatible_tasks = sum(
        1 for task in tasks if task_has_compatible_skills(index, task.skills)
    )
    if not tasks:
        return 0.0
    return 100.0 * compatible_tasks / len(tasks)


def run_figure2ab(
    config: Optional[ExperimentConfig] = None,
    context: Optional[DatasetContext] = None,
    tasks: Optional[Sequence[Task]] = None,
) -> Figure2ABResult:
    """Panels (a) and (b): compare LCMD / LCMC / RANDOM at fixed task size."""
    config = config or default_config()
    context = context or build_dataset_context(config, config.team_dataset)
    if tasks is None:
        tasks = context.generate_tasks(
            size=config.task_size, count=config.num_tasks, seed=config.workload_seed
        )
    result = Figure2ABResult(
        dataset=context.name,
        task_size=config.task_size,
        relations=tuple(config.team_relations),
        algorithms=tuple(config.team_algorithms),
    )
    for relation_name in config.team_relations:
        result.series[relation_name] = {}
        for algorithm in config.team_algorithms:
            result.series[relation_name][algorithm] = _run_batch(
                context, relation_name, algorithm, tasks, config
            )
        result.max_upper_bound[relation_name] = _max_upper_bound(
            context, relation_name, tasks
        )
    return result


def run_figure2cd(
    config: Optional[ExperimentConfig] = None,
    context: Optional[DatasetContext] = None,
    algorithm: str = "LCMD",
) -> Figure2CDResult:
    """Panels (c) and (d): sweep the task size with a single algorithm."""
    config = config or default_config()
    context = context or build_dataset_context(config, config.team_dataset)
    result = Figure2CDResult(
        dataset=context.name,
        algorithm=algorithm,
        relations=tuple(config.team_relations),
        task_sizes=tuple(config.task_sizes),
    )
    for relation_name in config.team_relations:
        result.series[relation_name] = {}
    for task_size in config.task_sizes:
        tasks = context.generate_tasks(
            size=task_size, count=config.num_tasks, seed=config.workload_seed + task_size
        )
        for relation_name in config.team_relations:
            result.series[relation_name][task_size] = _run_batch(
                context, relation_name, algorithm, tasks, config
            )
    return result
