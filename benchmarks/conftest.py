"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper on the
*fast* experiment configuration (miniature synthetic datasets) so that a full
``pytest benchmarks/ --benchmark-only`` run finishes in a few minutes.  To
regenerate the numbers reported in ``EXPERIMENTS.md`` at full scale, run
``python -m repro.experiments`` instead (same code, default configuration).
"""

from __future__ import annotations

import time

import pytest

from repro.experiments import build_all_dataset_contexts, fast_config


@pytest.fixture(scope="session")
def config():
    """The miniature experiment configuration used by all benchmarks."""
    return fast_config()


@pytest.fixture(scope="session")
def contexts(config):
    """Datasets generated once and shared by every benchmark."""
    return build_all_dataset_contexts(config)


@pytest.fixture(scope="session")
def team_context(config, contexts):
    """The dataset used by the team-formation benchmarks (Epinions stand-in)."""
    return contexts[config.team_dataset]


@pytest.fixture(scope="session")
def team_tasks(config, team_context):
    """The shared batch of random tasks (k = task_size) for Table 3 / Figure 2(a,b)."""
    return team_context.generate_tasks(
        size=config.task_size, count=config.num_tasks, seed=config.workload_seed
    )


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiment reproductions are seconds-long deterministic computations,
    so a single round is both representative and keeps the harness fast.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def best_of(repeats, function):
    """Fastest of ``repeats`` timed runs of ``function`` and its result.

    For the speed-up gates, which compare two implementations on warm
    caches: the minimum is the run least disturbed by the machine.
    """
    best_elapsed, best_result = None, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, best_result = elapsed, result
    return best_elapsed, best_result
