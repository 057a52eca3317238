"""Which public entry points belong to which layer, and the per-layer metrics.

Layers are named after the program's modules.  Each entry point listed here
is wrapped by :class:`tracer.Tracer` in a traced run.  Entry points the
program no longer has are skipped and listed as ``missing_targets`` in the
run record, so a later change that deletes a code path does not break the
benchmark.

In pooled dispatch the worker processes record nothing: kernel time spent
in workers appears as ``exec.dispatch.self_s``, the time the parent spent
blocked on the pool.
"""

from __future__ import annotations

import os
from typing import Dict, List

from tracer import Target


def _sources(args, kwargs) -> int:
    """Sources in a kernel call: ``len(sources)`` for batches, 1 per-source."""
    sources = kwargs.get("sources")
    if sources is None:
        for value in args[1:]:
            if isinstance(value, (list, tuple, range)) or hasattr(value, "dtype"):
                sources = value
                break
    if sources is None:
        return 1
    try:
        return len(sources)
    except TypeError:
        return 1


def _file_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _seed_yield(tracer, result) -> None:
    tracer.counters["teams.seeds_tried"] += getattr(result, "seeds_tried", 0)
    tracer.counters["teams.candidates_completed"] += getattr(result, "candidates_completed", 0)


_CSR_KERNELS = (
    "signed_bfs_csr",
    "shortest_path_lengths_csr",
    "shortest_signed_walk_lengths_csr",
    "signed_bfs_dense_batch",
    "signed_bfs_dense_batch_into",
    "multi_source_signed_bfs",
    "shortest_path_lengths_dense_batch",
    "shortest_path_lengths_dense_batch_into",
    "multi_source_shortest_path_lengths_csr",
    "balanced_heuristic_depths",
    "balanced_heuristic_search_csr",
)
_DICT_KERNELS = (
    "signed_bfs",
    "shortest_path_lengths",
    "shortest_signed_walk_lengths",
    "all_shortest_paths",
    "BalancedPathSearch.search_exact",
    "BalancedPathSearch.search_heuristic",
)
_REGISTRY_KERNELS = (
    ("kernel.csr", "csr_signed_bfs"),
    ("kernel.csr", "csr_path_lengths"),
    ("kernel.csr", "build_labels"),
    ("kernel.csr", "csr_sbph"),
    ("kernel.csr", "csr_compatible_degrees"),
    ("kernel.csr", "csr_compatible_masks"),
    ("kernel.dict", "dict_signed_bfs"),
    ("kernel.dict", "dict_path_lengths"),
    ("kernel.dict", "dict_walk_lengths"),
    ("kernel.dict", "dict_balanced_search"),
)
_RELATION_METHODS = (
    "are_compatible",
    "compatible_with",
    "compatibility_degree",
    "batch_compatible_sets",
    "batch_compatibility_degrees",
    "batch_bfs",
    "batch_search",
    "batch_distance_to_set",
    "positive_balanced_distance",
)
_ORACLE_METHODS = (
    "distance",
    "batch_distance_to_set",
    "warm",
    "max_pairwise_distance",
    "sum_pairwise_distance",
    "distance_to_set",
)
_ENGINE_METHODS = (
    "are_compatible",
    "compatible_set",
    "distance",
    "compatible_sets",
    "compatibility_degrees",
    "warm",
    "compatible_from_many",
    "distance_to_team",
    "distances_to_team_many",
    "refresh",
)


def targets() -> List[Target]:
    """Every wrapped entry point, outermost layers first."""
    found: List[Target] = []
    add = found.append
    for name in ("run_table1", "run_table2", "run_table3", "run_figure2ab", "run_figure2cd"):
        module = {"run_table1": "table1", "run_table2": "table2", "run_table3": "table3"}.get(
            name, "figure2"
        )
        add(Target("experiments", f"repro.experiments.{module}:{name}"))
    add(Target("experiments", "repro.experiments.runner:run_all"))
    add(Target("experiments", "repro.experiments.streaming:run_streaming"))
    add(Target("churn", "repro.experiments.streaming:apply_edge_churn"))
    add(Target("refresh", "repro.teams.problem:TeamFormationProblem.refresh"))
    add(Target("teams", "repro.teams.algorithms:run_algorithm"))
    add(Target("teams", "repro.teams.generic:form_team", on_result=_seed_yield))
    add(Target("teams", "repro.teams.policies:SkillSelectionPolicy.select"))
    add(Target("teams", "repro.teams.policies:UserSelectionPolicy.select"))
    for name in ("diameter_cost", "sum_distance_cost", "cardinality_cost"):
        add(Target("teams", f"repro.teams.cost:{name}"))
    for name in (
        "exact_pair_statistics",
        "sampled_pair_statistics",
        "source_sampled_pair_statistics",
        "pair_statistics",
        "relation_overlap",
    ):
        add(Target("stats", f"repro.compatibility.matrix:{name}"))
    add(Target("stats", "repro.compatibility.skill_compat:skill_pair_statistics"))
    add(Target("stats", "repro.compatibility.distance:average_compatible_distance"))
    for name in _ENGINE_METHODS:
        add(Target("engine", f"repro.compatibility.engine:CompatibilityEngine.{name}"))
    for name in _ORACLE_METHODS:
        add(Target("oracle", f"repro.compatibility.distance:DistanceOracle.{name}"))
    for name in _RELATION_METHODS:
        add(Target("relation", f"repro.compatibility.base:CompatibilityRelation.{name}"))
    add(Target("exec.dispatch", "repro.exec.pool:ProcessPoolExecutor.map_kernel"))
    add(Target("exec.publish", "repro.exec.pool:_PoolHandle.publish"))
    add(Target("exec.decode", "repro.exec.arena:decode_results"))
    for layer, name in _REGISTRY_KERNELS:
        add(Target(layer, f"repro.exec.kernels:{name}", work=_sources))
    for name in _CSR_KERNELS:
        add(Target("kernel.csr", f"repro.signed.csr:{name}", work=_sources))
    for name in _DICT_KERNELS:
        add(Target("kernel.dict", f"repro.signed.paths:{name}", work=_sources))
    add(Target("snapshot", "repro.signed.graph:SignedGraph.csr_view"))
    add(Target("snapshot.build", "repro.signed.csr:CSRSignedGraph.from_signed_graph"))
    add(Target("snapshot.delta", "repro.signed.csr:CSRSignedGraph.apply_delta"))
    add(Target("ingest", "repro.signed.ingest:parse_edge_list_csr", work=_file_bytes))
    for name in ("load_dataset", "load_snap_dataset"):
        add(Target("datasets", f"repro.datasets:{name}"))
    for name in (
        "slashdot_like",
        "epinions_like",
        "wikipedia_like",
        "million_scale_dataset",
        "synthetic_signed_network",
        "synthetic_csr_network",
    ):
        add(Target("datasets", f"repro.datasets.synthetic:{name}"))
    return found


#: Every layer the spec above can report, in stack order (outermost first).
LAYERS = (
    "experiments",
    "churn",
    "refresh",
    "teams",
    "stats",
    "engine",
    "oracle",
    "relation",
    "exec.dispatch",
    "exec.publish",
    "exec.decode",
    "kernel.csr",
    "kernel.dict",
    "snapshot",
    "snapshot.build",
    "snapshot.delta",
    "ingest",
    "datasets",
)


def _hit_frac(caches) -> float:
    hits = sum(cache.hits for cache in caches)
    total = hits + sum(cache.misses for cache in caches)
    return hits / total if total else 0.0


def layer_metrics(tracer, instances: Dict[str, list]) -> Dict[str, float]:
    """The ``per_layer`` metrics of one traced repetition.

    ``instances`` maps ``relation`` / ``oracle`` / ``engine`` to the objects
    built during the run, whose LRU caches are read after it.
    ``snapshot.self_s`` covers ``csr_view`` and both ways of building a
    snapshot; ``snapshot.delta_frac`` is the share of builds served by
    patching the previous snapshot.  ``untraced.self_s`` is the traced wall
    time no span covers, so the layer self times plus it add up to
    ``traced_wall_s``.
    """
    from repro.utils.lru import LRUCache

    def seconds(layer: str) -> float:
        return tracer.self_ns.get(layer, 0) / 1e9

    def caches(kind: str, attribute=None):
        found = []
        unique = {id(instance): instance for instance in instances.get(kind, ())}
        for instance in unique.values():
            for name, value in vars(instance).items():
                if isinstance(value, LRUCache) and (attribute is None or name == attribute):
                    found.append(value)
        return found

    patched = tracer.calls.get("snapshot.delta", 0)
    builds = patched + tracer.calls.get("snapshot.build", 0)
    ingest_s = seconds("ingest")
    seeds_tried = tracer.counters.get("teams.seeds_tried", 0)
    traced_s = sum(seconds(layer) for layer in LAYERS)
    wall = tracer.window_s
    metrics = {
        "datasets.self_s": seconds("datasets"),
        "ingest.self_s": ingest_s,
        "ingest.mb_per_s": (tracer.counters.get("ingest.work", 0) / 1e6 / ingest_s) if ingest_s else 0.0,
        "snapshot.self_s": sum(
            seconds(layer) for layer in ("snapshot", "snapshot.build", "snapshot.delta")
        ),
        "snapshot.calls": tracer.calls.get("snapshot", 0),
        "snapshot.delta_frac": patched / builds if builds else 0.0,
        "exec.dispatch.calls": tracer.calls.get("exec.dispatch", 0),
        "exec.dispatch.self_s": seconds("exec.dispatch"),
        "exec.publish.calls": tracer.calls.get("exec.publish", 0),
        "exec.publish.self_s": seconds("exec.publish"),
        "exec.decode.self_s": seconds("exec.decode"),
        "kernel.csr.self_s": seconds("kernel.csr"),
        "kernel.csr.calls": tracer.calls.get("kernel.csr", 0),
        "kernel.dict.self_s": seconds("kernel.dict"),
        "kernel.dict.calls": tracer.calls.get("kernel.dict", 0),
        "kernel.sources": tracer.counters.get("kernel.work", 0),
        "relation.self_s": seconds("relation"),
        "relation.calls": tracer.calls.get("relation", 0),
        "relation.cache_hit_frac": _hit_frac(caches("relation")),
        "oracle.self_s": seconds("oracle"),
        "oracle.calls": tracer.calls.get("oracle", 0),
        "oracle.cache_hit_frac": _hit_frac(caches("oracle")),
        "engine.self_s": seconds("engine"),
        "engine.calls": tracer.calls.get("engine", 0),
        "engine.mask_hit_frac": _hit_frac(caches("engine", "_mask_cache")),
        "stats.self_s": seconds("stats"),
        "teams.self_s": seconds("teams"),
        "teams.queries": tracer.calls.get("teams", 0),
        "teams.seed_yield_frac": (
            tracer.counters.get("teams.candidates_completed", 0) / seeds_tried if seeds_tried else 0.0
        ),
        "churn.self_s": seconds("churn"),
        "refresh.self_s": seconds("refresh"),
        "experiments.self_s": seconds("experiments"),
        "untraced.self_s": wall - traced_s,
        "traced_wall_s": wall,
    }
    return metrics
