"""Experiment T2 — Table 2: comparison of compatibility relations.

For every dataset and every relation the experiment reports:

* the percentage of compatible (unordered) user pairs,
* the percentage of compatible skill pairs (``cd(s1, s2) > 0``),
* the average distance between compatible users (using the relation's own
  distance definition).

Like the paper, the exact SBP relation is only evaluated on datasets where it
is feasible (the Slashdot stand-in); the corresponding cells are left empty
("–") elsewhere.  An additional SBP-vs-SBPH agreement figure is recorded for
the datasets where both are available (the paper reports ~2.5 % disagreement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compatibility import (
    SkillCompatibilityIndex,
    average_compatible_distance,
    exact_pair_statistics,
    relation_overlap,
    skill_pair_statistics,
    source_sampled_pair_statistics,
)
from repro.experiments.config import ExperimentConfig, default_config
from repro.experiments.workloads import (
    DatasetContext,
    RelationContext,
    build_all_dataset_contexts,
)
from repro.utils.tables import format_table


@dataclass(frozen=True)
class Table2Cell:
    """One (dataset, relation) entry of Table 2."""

    relation: str
    compatible_users_pct: float
    compatible_skills_pct: float
    average_distance: float
    compatible_pairs_evaluated: int


@dataclass
class Table2DatasetResult:
    """All relation columns for one dataset."""

    dataset: str
    cells: Dict[str, Optional[Table2Cell]] = field(default_factory=dict)
    sbp_sbph_agreement: Optional[float] = None


@dataclass
class Table2Result:
    """Table 2 for every dataset."""

    relations: Tuple[str, ...]
    datasets: List[Table2DatasetResult] = field(default_factory=list)

    def as_text(self) -> str:
        """Render in the paper's Table-2 layout (three rows per dataset)."""
        headers = ["dataset / metric"] + list(self.relations)
        rows: List[List[object]] = []
        for dataset_result in self.datasets:
            for metric, attribute, decimals in (
                ("comp. users %", "compatible_users_pct", 2),
                ("comp. skills %", "compatible_skills_pct", 2),
                ("avg distance", "average_distance", 2),
            ):
                row: List[object] = [f"{dataset_result.dataset} {metric}"]
                for relation in self.relations:
                    cell = dataset_result.cells.get(relation)
                    row.append(None if cell is None else round(getattr(cell, attribute), decimals))
                rows.append(row)
            if dataset_result.sbp_sbph_agreement is not None:
                rows.append(
                    [f"{dataset_result.dataset} SBP~SBPH agreement %"]
                    + [round(100.0 * dataset_result.sbp_sbph_agreement, 2)]
                    + [None] * (len(self.relations) - 1)
                )
        return format_table(headers, rows, title="Table 2")


def _evaluate_relation(
    context: DatasetContext, relation_name: str
) -> Table2Cell:
    """Compute the three Table-2 metrics for one relation on one dataset."""
    dataset_config = context.config
    relation_context = context.relation_context(relation_name)
    relation = relation_context.relation

    if context.dataset.graph.number_of_nodes() <= dataset_config.max_exact_nodes:
        users_stats = exact_pair_statistics(relation)
    else:
        # Routed through the relation context's engine so the sampled sweep
        # shares its batched caches with the rest of the experiment.
        users_stats = source_sampled_pair_statistics(
            relation,
            dataset_config.num_sampled_sources,
            seed=dataset_config.seed,
            engine=relation_context.engine,
        )

    skill_index = SkillCompatibilityIndex(relation, context.dataset.skills)
    num_skill_pairs = dataset_config.num_sampled_skill_pairs
    if num_skill_pairs is None:
        skills_stats = skill_pair_statistics(skill_index, max_exact_skills=10**9)
    else:
        skills_stats = skill_pair_statistics(
            skill_index,
            max_exact_skills=0,
            num_sampled_pairs=num_skill_pairs,
            seed=dataset_config.seed,
        )

    average_distance, pairs = average_compatible_distance(
        relation,
        oracle=relation_context.oracle,
        max_exact_nodes=dataset_config.max_exact_nodes,
        num_sampled_sources=dataset_config.num_sampled_sources,
        seed=dataset_config.seed,
    )
    return Table2Cell(
        relation=relation.name,
        compatible_users_pct=users_stats.percentage,
        compatible_skills_pct=skills_stats.percentage,
        average_distance=average_distance,
        compatible_pairs_evaluated=pairs,
    )


def run_table2(
    config: Optional[ExperimentConfig] = None,
    contexts: Optional[Dict[str, DatasetContext]] = None,
) -> Table2Result:
    """Compute Table 2 for every dataset and relation in ``config``."""
    config = config or default_config()
    contexts = contexts or build_all_dataset_contexts(config)
    result = Table2Result(relations=tuple(config.table2_relations))
    for name in config.dataset_names:
        context = contexts[name]
        dataset_result = Table2DatasetResult(dataset=name)
        for relation_name in config.table2_relations:
            if relation_name == "SBP" and not context.config.compute_exact_sbp:
                dataset_result.cells[relation_name] = None
                continue
            dataset_result.cells[relation_name] = _evaluate_relation(context, relation_name)
        if (
            context.config.compute_exact_sbp
            and "SBP" in config.table2_relations
            and "SBPH" in config.table2_relations
        ):
            sbp = context.relation_context("SBP").relation
            sbph = context.relation_context("SBPH").relation
            dataset_result.sbp_sbph_agreement = relation_overlap(
                sbp, sbph, seed=context.config.seed
            )
        result.datasets.append(dataset_result)
    return result
