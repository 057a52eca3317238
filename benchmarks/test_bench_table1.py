"""Benchmark T1 — regenerate Table 1 (dataset statistics).

The diameter column runs on word-parallel CSR path lengths.  On the
fast-config epinions stand-in the CSR ``diameter`` must run at least 5x
faster than one :func:`repro.signed.paths.shortest_path_lengths` BFS per
source, with the same value (measured on a 2-core Xeon VM: 104-126 ms dict,
4.9-5.1 ms CSR).
"""

from __future__ import annotations

import pytest

from repro.experiments import run_table1
from repro.signed import diameter, is_connected, shortest_path_lengths

from conftest import best_of, run_once

#: CSR diameter against one dict BFS per source.
DIAMETER_BAR = 5.0


def dict_diameter(graph):
    """The diameter as the pure-Python loop: one dict BFS per source."""
    if not is_connected(graph):
        return None
    return max(max(shortest_path_lengths(graph, source).values()) for source in graph.nodes())


@pytest.mark.benchmark(group="table1")
def test_table1_dataset_statistics(benchmark, config, contexts):
    """Table 1: #users, #edges, #negative edges, diameter, #skills per dataset."""
    result = run_once(benchmark, run_table1, config, contexts)

    print("\n" + result.as_text())
    rows = {row.name: row for row in result.rows}
    assert set(rows) == set(config.dataset_names)
    for row in rows.values():
        benchmark.extra_info[f"{row.name}_users"] = row.num_users
        benchmark.extra_info[f"{row.name}_edges"] = row.num_edges
        benchmark.extra_info[f"{row.name}_neg_fraction"] = round(row.negative_fraction, 3)
        # Shape check against the paper: a minority of edges is negative.
        assert 0.05 < row.negative_fraction < 0.45
        assert row.diameter is None or row.diameter >= 2


@pytest.mark.benchmark(group="table1-diameter")
def test_csr_diameter_speedup_over_dict(benchmark, contexts):
    """CSR diameter >= 5x the dict BFS per source, same value."""
    graph = contexts["epinions"].dataset.graph
    graph.csr_view()  # the snapshot is shared with every relation on the graph
    dict_elapsed, dict_value = best_of(3, lambda: dict_diameter(graph))
    csr_elapsed, csr_value = best_of(3, lambda: diameter(graph))
    assert csr_value == dict_value is not None
    speedup = dict_elapsed / csr_elapsed
    benchmark.extra_info["dict_seconds"] = dict_elapsed
    benchmark.extra_info["csr_seconds"] = csr_elapsed
    benchmark.extra_info["speedup"] = speedup
    benchmark.pedantic(diameter, args=(graph,), rounds=1, iterations=1)
    print(
        f"\ndiameter of {graph.number_of_nodes()} nodes: dict {dict_elapsed * 1000:.1f}ms, "
        f"csr {csr_elapsed * 1000:.1f}ms, speedup {speedup:.1f}x"
    )
    assert speedup >= DIAMETER_BAR, (
        f"CSR diameter only {speedup:.2f}x over the dict BFS (bar {DIAMETER_BAR}x)"
    )
