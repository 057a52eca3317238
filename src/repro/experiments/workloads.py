"""Workload generation and shared per-dataset context for the experiments.

The experiments repeatedly need the same ingredients for a (dataset, relation)
pair: the relation instance, its distance oracle and its skill-compatibility
index, all of which carry caches worth sharing across tasks.
:class:`RelationContext` bundles them, and :class:`DatasetContext` owns one per
relation plus the generated dataset itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.compatibility import (
    CompatibilityEngine,
    CompatibilityRelation,
    DistanceOracle,
    SkillCompatibilityIndex,
    make_relation,
)
from repro.datasets import SignedDataset, load_dataset
from repro.experiments.config import DatasetConfig, ExperimentConfig
from repro.skills.task import Task, random_tasks
from repro.utils.rng import ensure_rng


@dataclass
class RelationContext:
    """A compatibility relation plus its cached companions.

    The engine is the batched query front the experiments hand to every
    :class:`~repro.teams.problem.TeamFormationProblem` on this (dataset,
    relation) pair, so candidate filters and distance sweeps share one set of
    caches across all tasks.
    """

    relation: CompatibilityRelation
    oracle: DistanceOracle
    skill_index: SkillCompatibilityIndex
    engine: CompatibilityEngine


class DatasetContext:
    """A generated dataset plus lazily-built relation contexts."""

    def __init__(self, dataset: SignedDataset, config: DatasetConfig) -> None:
        self.dataset = dataset
        self.config = config
        self._relations: Dict[str, RelationContext] = {}

    @property
    def name(self) -> str:
        """Dataset name."""
        return self.dataset.name

    def relation_context(self, relation_name: str) -> RelationContext:
        """Build (or reuse) the relation called ``relation_name`` on this dataset.

        The whole stack (relation, oracle, engine) is built under the dataset
        config's :meth:`~repro.experiments.config.DatasetConfig.execution_policy`,
        so cache budgets and worker-pool parallelism flow from one place
        instead of per-layer keyword arguments.
        """
        key = relation_name.upper()
        context = self._relations.get(key)
        if context is None:
            kwargs = {}
            if key in ("SBP", "SBPH"):
                kwargs["max_expansions"] = self.config.sbp_max_expansions
            relation = make_relation(
                key, self.dataset.graph, policy=self.config.execution_policy(), **kwargs
            )
            oracle = DistanceOracle(relation)
            context = RelationContext(
                relation=relation,
                oracle=oracle,
                skill_index=SkillCompatibilityIndex(relation, self.dataset.skills),
                engine=CompatibilityEngine(relation, oracle=oracle),
            )
            self._relations[key] = context
        return context

    def generate_tasks(self, size: int, count: int, seed: int) -> List[Task]:
        """Generate ``count`` random tasks of ``size`` skills over this dataset."""
        return random_tasks(self.dataset.skills, size=size, count=count, seed=seed)


def build_dataset_context(config: ExperimentConfig, name: str) -> DatasetContext:
    """Generate the dataset called ``name`` according to ``config``."""
    dataset_config = config.dataset(name)
    dataset = load_dataset(
        dataset_config.name, seed=dataset_config.seed, scale=dataset_config.scale
    )
    return DatasetContext(dataset, dataset_config)


def build_all_dataset_contexts(config: ExperimentConfig) -> Dict[str, DatasetContext]:
    """Generate every configured dataset, keyed by name."""
    return {name: build_dataset_context(config, name) for name in config.dataset_names}
