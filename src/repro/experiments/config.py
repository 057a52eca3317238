"""Configuration of the experiment harness.

A single :class:`ExperimentConfig` drives every table and figure so the whole
evaluation is reproducible from one seed.  Two presets are provided:

* :func:`default_config` — the scale used for the reported numbers in
  ``EXPERIMENTS.md`` (minutes of runtime on a laptop);
* :func:`fast_config` — a miniature version used by the test-suite and the
  pytest-benchmark harness so that every experiment code path runs in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass(frozen=True)
class DatasetConfig:
    """Per-dataset generation and sampling parameters."""

    name: str
    seed: int
    scale: Optional[float] = None
    #: Evaluate pairwise statistics exactly when the graph has at most this many nodes.
    max_exact_nodes: int = 500
    #: Number of BFS sources used to estimate pairwise statistics on larger graphs.
    num_sampled_sources: int = 150
    #: Number of skill pairs sampled for the skill-compatibility statistics
    #: (``None`` enumerates all pairs).
    num_sampled_skill_pairs: Optional[int] = 2_000
    #: Whether the exact SBP relation is computed (exponential; small graphs only).
    compute_exact_sbp: bool = False
    #: Expansion cap for the exact SBP search.
    sbp_max_expansions: int = 200_000
    #: Read by nothing: every kernel runs in-process.  Kept only because the
    #: perfbench ``scale-million`` workload still passes ``workers=2``; it
    #: goes once that workload stops passing it.
    workers: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level configuration shared by all experiments."""

    datasets: Tuple[DatasetConfig, ...]
    #: Dataset used by the team-formation experiments (Figure 2, Table 3).
    team_dataset: str = "epinions"
    #: Compatibility relations compared in Table 2, strictest first.
    table2_relations: Tuple[str, ...] = ("SPA", "SPM", "SPO", "SBPH", "SBP", "NNE")
    #: Relations used by the team-formation experiments (the paper drops DPE and SBP).
    team_relations: Tuple[str, ...] = ("SPA", "SPM", "SPO", "SBPH", "NNE")
    #: Algorithms compared in Figure 2(a)/(b).
    team_algorithms: Tuple[str, ...] = ("LCMD", "LCMC", "RANDOM")
    #: Number of random tasks per configuration (the paper uses 50).
    num_tasks: int = 50
    #: Task size for Figure 2(a)/(b) and Table 3 (the paper uses 5).
    task_size: int = 5
    #: Task sizes swept in Figure 2(c)/(d).
    task_sizes: Tuple[int, ...] = (2, 5, 10, 15, 20)
    #: Cap on seed users tried per task by Algorithm 2 (None = all, as in the paper).
    max_seeds: Optional[int] = 25
    #: Master seed for workload generation and the RANDOM policy.
    workload_seed: int = 2020

    def dataset(self, name: str) -> DatasetConfig:
        """Return the configuration of the dataset called ``name``."""
        for dataset in self.datasets:
            if dataset.name == name:
                return dataset
        raise KeyError(f"dataset {name!r} is not part of this configuration")

    @property
    def dataset_names(self) -> Tuple[str, ...]:
        """Names of the configured datasets, in order."""
        return tuple(dataset.name for dataset in self.datasets)


def default_config() -> ExperimentConfig:
    """The configuration used for the numbers reported in ``EXPERIMENTS.md``.

    Matches the paper's setup as closely as the synthetic stand-ins allow:
    three datasets, 50 tasks per configuration, task size 5 for the algorithm
    comparison and sizes 2–20 for the sweep.  The exact SBP relation is only
    computed on the small Slashdot stand-in, like in the paper.
    """
    return ExperimentConfig(
        datasets=(
            DatasetConfig(
                name="slashdot",
                seed=13,
                scale=1.0,
                max_exact_nodes=500,
                num_sampled_skill_pairs=None,
                compute_exact_sbp=True,
                sbp_max_expansions=60_000,
            ),
            DatasetConfig(
                name="epinions",
                seed=17,
                scale=0.08,
                num_sampled_sources=120,
                num_sampled_skill_pairs=1_500,
                compute_exact_sbp=False,
            ),
            DatasetConfig(
                name="wikipedia",
                seed=19,
                scale=0.15,
                num_sampled_sources=150,
                num_sampled_skill_pairs=1_500,
                compute_exact_sbp=False,
            ),
        ),
        team_dataset="epinions",
    )


def fast_config() -> ExperimentConfig:
    """A miniature configuration for tests and quick benchmark runs (seconds)."""
    return ExperimentConfig(
        datasets=(
            DatasetConfig(
                name="slashdot",
                seed=13,
                scale=0.35,
                num_sampled_skill_pairs=200,
                compute_exact_sbp=True,
                sbp_max_expansions=20_000,
            ),
            DatasetConfig(
                name="epinions",
                seed=17,
                scale=0.012,
                num_sampled_sources=60,
                num_sampled_skill_pairs=200,
                compute_exact_sbp=False,
            ),
            DatasetConfig(
                name="wikipedia",
                seed=19,
                scale=0.04,
                num_sampled_sources=60,
                num_sampled_skill_pairs=200,
                compute_exact_sbp=False,
            ),
        ),
        team_dataset="epinions",
        num_tasks=10,
        task_sizes=(2, 5, 10),
        max_seeds=10,
    )
