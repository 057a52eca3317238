"""Datasets: synthetic stand-ins for the paper's networks, loaders, statistics."""

from repro.datasets.synthetic import (
    SignedDataset,
    epinions_like,
    faction_biased_signs,
    figure_1a_graph,
    figure_1b_graph,
    million_scale_dataset,
    slashdot_like,
    synthetic_csr_network,
    synthetic_signed_network,
    toy_dataset,
    wikipedia_like,
)
from repro.datasets.registry import (
    ON_DEMAND_DATASETS,
    PAPER_DATASETS,
    available,
    load_dataset,
    register_dataset,
)
from repro.datasets.loaders import (
    cache_stats,
    load_snap_dataset,
    reset_cache_stats,
)
from repro.datasets.stats import DatasetStatistics, dataset_statistics

__all__ = [
    "SignedDataset",
    "slashdot_like",
    "epinions_like",
    "wikipedia_like",
    "toy_dataset",
    "figure_1a_graph",
    "figure_1b_graph",
    "synthetic_signed_network",
    "synthetic_csr_network",
    "million_scale_dataset",
    "faction_biased_signs",
    "PAPER_DATASETS",
    "ON_DEMAND_DATASETS",
    "available",
    "load_dataset",
    "register_dataset",
    "load_snap_dataset",
    "cache_stats",
    "reset_cache_stats",
    "DatasetStatistics",
    "dataset_statistics",
]
