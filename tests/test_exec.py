"""Tests for the execution-policy layer (:mod:`repro.exec`).

The load-bearing guarantee is *bit-identity*: a pool policy may only change
where the per-source kernels run, never what they return.  The suite pins
that across every relation, under churn (mutate → resync →
re-dispatch against the new generation), and for the executor primitives
themselves (deterministic chunk merging, graceful degradation when a pool
cannot start).
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compatibility import (
    CompatibilityEngine,
    DistanceOracle,
    average_compatible_distance,
    make_relation,
    source_sampled_pair_statistics,
)
from repro.datasets import synthetic_signed_network
from repro.exec import (
    KERNELS,
    ExecutionPolicy,
    ProcessPoolExecutor,
    SerialExecutor,
    executor_for,
    register_kernel,
    reset_executors,
    serial_executor,
)
from repro.exec import pool as pool_module
from repro.experiments import apply_edge_churn
from repro.signed.graph import SignedGraph
from repro.signed.paths import INFINITY, shortest_path_lengths
from repro.utils.rng import ensure_rng

from reference import ReferenceRelation, reference_average_distance

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# Registered at import time so that every pool forked afterwards inherits
# them (fork snapshots the registry at pool creation).
@register_kernel("test_echo")
def _test_echo(payload, sources, params):
    return [(params.get("tag"), source) for source in sources]


class IdentityNode:
    """Module-level (so instances pickle) but with identity-based equality:
    unpickled copies are unequal to the originals.  Pool workers never see
    one, since kernels take dense ids."""

    def __init__(self, label: int) -> None:
        self.label = label

    def __repr__(self) -> str:
        return f"IdentityNode({self.label})"


_IS_FORK = multiprocessing.get_start_method(allow_none=False) == "fork"

requires_fork = pytest.mark.skipif(
    not _IS_FORK,
    reason="locally registered test kernels need fork-inherited registries",
)


@pytest.fixture(scope="module", autouse=True)
def fresh_executors():
    """Kill pools forked before this module imported (stale kernel registry)."""
    reset_executors()
    yield
    reset_executors()


@pytest.fixture(scope="module")
def graph():
    graph, _ = synthetic_signed_network(
        250, average_degree=4.0, negative_fraction=0.25, seed=29
    )
    return graph


#: The ExecutionPolicy fields that hold a cache budget.
CACHE_SIZE_FIELDS = (
    "compatible_cache_size",
    "bfs_cache_size",
    "result_cache_size",
    "distance_cache_size",
    "mask_cache_size",
)


def pool_policy(workers: int = 2, **kwargs) -> ExecutionPolicy:
    """A policy that really dispatches (no small-batch inline shortcut)."""
    return ExecutionPolicy(workers=workers, min_parallel_sources=1, **kwargs)


def owns_its_bytes(row) -> bool:
    """True iff ``row`` pins no buffer larger than itself.

    A serial row is copied out of its batch block (``base is None``).  An
    unpickled row of up to 1000 bytes is a copy too; a larger one keeps the
    pickle's bytes object as its buffer, which holds exactly its data.
    """
    return row.base is None or (
        isinstance(row.base, bytes) and len(row.base) == row.nbytes
    )


def assert_same_depth_rows(pooled, serial):
    """Pooled and serial ``csr_sbph`` triples: equal rows and flags, and
    every row owns its bytes."""
    assert len(pooled) == len(serial)
    for (positive, negative, flag), (want_positive, want_negative, want_flag) in zip(
        pooled, serial
    ):
        assert positive.tobytes() == want_positive.tobytes()
        assert negative.tobytes() == want_negative.tobytes()
        assert flag == want_flag
        for row in (positive, negative, want_positive, want_negative):
            assert row.dtype.str == "<i4" and owns_its_bytes(row)


def build_stack(graph, name: str, policy: ExecutionPolicy):
    """(relation, oracle, engine) under one policy."""
    kwargs = {}
    if name in ("SBP", "SBPH"):
        kwargs["max_expansions"] = 2_000
    relation = make_relation(name, graph, policy=policy, **kwargs)
    oracle = DistanceOracle(relation)
    engine = CompatibilityEngine(relation, oracle=oracle)
    return relation, oracle, engine


class TestExecutionPolicy:
    def test_defaults_are_serial(self):
        policy = ExecutionPolicy()
        assert not policy.parallel
        assert policy.resolved_workers() == 1
        assert isinstance(executor_for(policy), SerialExecutor)
        assert executor_for(policy) is serial_executor()

    def test_validation(self):
        # CSR is the one execution path: no field picks a backend.
        assert "backend" not in {field.name for field in dataclasses.fields(ExecutionPolicy)}
        with pytest.raises(ValueError):
            ExecutionPolicy(workers=-2)
        with pytest.raises(ValueError):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(min_parallel_sources=0)
        with pytest.raises(ValueError, match="min_parallel_sources"):
            ExecutionPolicy(min_parallel_sources=True)
        # Cache budgets are validated at construction and the error names
        # the field: 2.5 or True would otherwise build a working LRU with a
        # nonsense bound, and 0 or -3 would only fail inside the LRU.
        for field in CACHE_SIZE_FIELDS:
            for bad in (2.5, True, -3, 0, "big"):
                with pytest.raises(ValueError, match=field):
                    ExecutionPolicy(**{field: bad})
            for good in (1, 64, None, "auto"):
                assert getattr(ExecutionPolicy(**{field: good}), field) == good

    def test_workers_minus_one_resolves_to_cpu_count(self):
        assert ExecutionPolicy(workers=-1).resolved_workers() >= 1

    def test_policies_are_hashable_and_comparable(self):
        assert ExecutionPolicy() == ExecutionPolicy()
        assert hash(ExecutionPolicy(workers=2)) == hash(ExecutionPolicy(workers=2))

    def test_policy_rejects_bad_pool_knobs_with_clear_message(self):
        # The CLI's --workers/--chunk-size share these validators; a bad
        # value must die here with a message that explains the knob, not as
        # an opaque ValueError out of multiprocessing at first dispatch.
        with pytest.raises(ValueError, match="workers must be -1"):
            ExecutionPolicy(workers=-5)
        with pytest.raises(ValueError, match="chunk_size must be a positive"):
            ExecutionPolicy(chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size must be a positive"):
            ExecutionPolicy(chunk_size=-3)
        # Serial spellings stay legal.
        assert ExecutionPolicy(workers=0).resolved_workers() == 1
        assert ExecutionPolicy(workers=-1).resolved_workers() >= 1

    def test_engine_inherits_relation_policy(self, graph):
        relation = make_relation("SPO", graph, policy=ExecutionPolicy(bfs_cache_size=64))
        engine = CompatibilityEngine(relation)
        assert engine.policy is relation.policy
        assert engine.oracle.policy is relation.policy

    def test_oracle_inherits_relation_policy_and_cache_override(self, graph):
        relation = make_relation("SPO", graph, policy=ExecutionPolicy(bfs_cache_size=64))
        oracle = DistanceOracle(relation)
        assert oracle.policy is relation.policy
        # distance_cache_size bounds the NNE/DPE distance maps; SP* rows are
        # the relation's own signed-BFS results.
        unbounded = DistanceOracle(
            make_relation("NNE", graph), policy=ExecutionPolicy(distance_cache_size=None)
        )
        assert unbounded._bfs_cache.maxsize is None
        # An SP* oracle keeps no cache and follows the relation's policy.
        shortest_path = DistanceOracle(
            relation, policy=ExecutionPolicy(distance_cache_size=None)
        )
        assert shortest_path._bfs_cache is None
        assert shortest_path._cache_bound() == relation.bfs_cache_maxsize


class TestSerialExecutor:
    def test_empty_batch(self, graph):
        assert serial_executor().map_kernel("csr_signed_bfs", graph.csr_view(), []) == []

    def test_unknown_kernel_raises(self, graph):
        with pytest.raises(KeyError):
            serial_executor().map_kernel("no_such_kernel", graph, [0])

    def test_duplicate_kernel_registration_rejected(self):
        with pytest.raises(ValueError):
            register_kernel("test_echo", lambda payload, sources, params: [])
        assert KERNELS["test_echo"] is _test_echo


class TestPoolExecutor:
    def test_executor_for_returns_pool(self):
        executor = executor_for(pool_policy())
        assert isinstance(executor, ProcessPoolExecutor)
        assert executor.workers == 2

    @requires_fork
    def test_chunk_merge_preserves_input_order(self, graph):
        executor = executor_for(pool_policy(chunk_size=3))
        sources = list(range(20))
        result = executor.map_kernel(
            "test_echo", graph.csr_view(), sources, params={"tag": "t"}
        )
        assert result == [("t", source) for source in sources]

    def test_csr_kernel_arrays_bit_identical(self, graph):
        np = pytest.importorskip("numpy")
        csr = graph.csr_view()
        dense = [csr.index_of(node) for node in graph.nodes()[:30]]
        params = {"skip_overflow": True}
        serial = serial_executor().map_kernel("csr_signed_bfs", csr, dense, params)
        pooled = executor_for(pool_policy()).map_kernel(
            "csr_signed_bfs", csr, dense, params
        )
        for left, right in zip(serial, pooled):
            assert all(np.array_equal(a, b) for a, b in zip(left, right))

    def test_pool_works_again_after_shutdown(self, graph):
        np = pytest.importorskip("numpy")
        csr = graph.csr_view()
        dense = [csr.index_of(node) for node in graph.nodes()[:30]]
        first = executor_for(pool_policy()).map_kernel("csr_path_lengths", csr, dense)
        # Terminates the pool; the next executor starts a fresh one.
        reset_executors()
        again = executor_for(pool_policy()).map_kernel("csr_path_lengths", csr, dense)
        assert all(np.array_equal(left, right) for left, right in zip(first, again))

    def test_small_batches_run_inline(self, graph):
        policy = ExecutionPolicy(workers=2, min_parallel_sources=64)
        executor = executor_for(policy)
        handle_publishes = executor._handle.publications
        result = executor.map_kernel("csr_signed_bfs", graph.csr_view(), [0, 1, 2])
        assert len(result) == 3
        # Nothing was shipped: the batch stayed under the dispatch threshold.
        assert executor._handle.publications == handle_publishes


POOL_THEN_SHUTDOWN = """
from repro.exec import shutdown_pools
from repro.exec.pool import _shared_pool_handle

assert _shared_pool_handle(2).pool.map(abs, [-1, -2, -3]) == [1, 2, 3]
shutdown_pools()
"""


def session_processes(session_id):
    """PIDs whose ``/proc/<pid>/stat`` names ``session_id`` as their session."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:  # the process exited while the scan ran
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, session.
        if int(stat.rsplit(")", 1)[1].split()[3]) == session_id:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_shutdown_pools_leaves_no_process_of_its_session():
    """After ``shutdown_pools()`` and exit, neither a pool worker nor the
    resource tracker the pool launched is still alive."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    child = subprocess.Popen(
        [sys.executable, "-c", POOL_THEN_SHUTDOWN],
        env={**os.environ, "PYTHONPATH": src},
        start_new_session=True,
    )
    assert child.wait(timeout=120) == 0
    # The child led its own session, so its id is the session's.
    assert session_processes(child.pid) == []


POOLED_DISPATCH_THEN_TRACKER = """
from multiprocessing import resource_tracker

from repro.datasets import synthetic_signed_network
from repro.exec import ExecutionPolicy, executor_for, shutdown_pools

graph, _ = synthetic_signed_network(
    60, average_degree=4.0, negative_fraction=0.25, seed=3
)
csr = graph.csr_view()
executor = executor_for(
    ExecutionPolicy(workers=2, min_parallel_sources=1)
)
rows = executor.map_kernel("csr_sbph", csr, list(range(8)), {"max_length": None})
assert len(rows) == 8 and executor._handle.publications == 1
print(resource_tracker._resource_tracker._pid)
shutdown_pools()
"""


@pytest.mark.skipif(
    not _IS_FORK, reason="only forked pools create no tracked resources"
)
def test_pooled_dispatch_launches_no_resource_tracker():
    """Results return through ``Pool.map`` and snapshots through files, so a
    pooled CSR dispatch registers nothing with the resource tracker: none
    is running while the pool is up."""
    pytest.importorskip("numpy")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    completed = subprocess.run(
        [sys.executable, "-c", POOLED_DISPATCH_THEN_TRACKER],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "None"


def record_pool_maps(executor, monkeypatch):
    """Wrap the executor's ``pool.map``; the returned list gets one entry
    (the task count) per dispatch that really reached the workers."""
    pool = executor._handle.pool
    real_map = pool.map
    calls = []

    def recording(function, tasks, chunksize=None):
        calls.append(len(tasks))
        return real_map(function, tasks, chunksize=chunksize)

    monkeypatch.setattr(pool, "map", recording)
    return calls


def assert_owned_rows(results):
    """Every array in ``results`` (rows, or tuples of rows) owns its bytes:
    a cached row must not pin a batch block."""
    for result in results:
        for row in result if isinstance(result, tuple) else (result,):
            assert owns_its_bytes(row)


class TestPooledResults:
    """Pooled kernels return their results through ``Pool.map``: each is
    the serial kernel's own return value, pickled, and owns its rows."""

    def _dense_sources(self, graph, count=12):
        csr = graph.csr_view()
        return csr, [csr.index_of(node) for node in graph.nodes()[:count]]

    def test_path_lengths_rows_equal_serial(self, graph, monkeypatch):
        np = pytest.importorskip("numpy")
        executor = executor_for(pool_policy())
        csr, dense = self._dense_sources(graph)
        maps = record_pool_maps(executor, monkeypatch)
        pooled = executor.map_kernel("csr_path_lengths", csr, dense, {})
        serial = serial_executor().map_kernel("csr_path_lengths", csr, dense, {})
        assert len(maps) == 1
        assert len(pooled) == len(serial)
        for left, right in zip(pooled, serial):
            assert np.array_equal(left, right)
        assert_owned_rows(pooled)

    def test_signed_bfs_count_rows_equal_serial(self, graph, monkeypatch):
        np = pytest.importorskip("numpy")
        executor = executor_for(pool_policy())
        csr, dense = self._dense_sources(graph)
        params = {"skip_overflow": True}
        maps = record_pool_maps(executor, monkeypatch)
        pooled = executor.map_kernel("csr_signed_bfs", csr, dense, params)
        serial = serial_executor().map_kernel("csr_signed_bfs", csr, dense, params)
        assert len(maps) == 1
        assert len(pooled) == len(serial)
        for left, right in zip(pooled, serial):
            assert all(np.array_equal(a, b) for a, b in zip(left, right))
            assert left[1].dtype == np.int64
        assert_owned_rows(pooled)

    def test_signed_bfs_presence_rows_equal_serial(self, graph, monkeypatch):
        np = pytest.importorskip("numpy")
        from repro.signed.csr import PRESENCE_MIN_SOURCES, PresenceRows

        # Chunks of one presence word each, so every worker answers with
        # presence rows.
        executor = executor_for(pool_policy(chunk_size=PRESENCE_MIN_SOURCES))
        csr, dense = self._dense_sources(graph, count=3 * PRESENCE_MIN_SOURCES)
        params = {"skip_overflow": True, "presence": True}
        maps = record_pool_maps(executor, monkeypatch)
        pooled = executor.map_kernel("csr_signed_bfs", csr, dense, params)
        serial = serial_executor().map_kernel("csr_signed_bfs", csr, dense, params)
        assert maps == [3]
        assert len(pooled) == len(serial)
        for left, right in zip(pooled, serial):
            assert isinstance(left, PresenceRows) and isinstance(right, PresenceRows)
            assert all(np.array_equal(a, b) for a, b in zip(left, right))
        assert_owned_rows(pooled)

    def test_signed_bfs_overflow_slots_equal_serial(self, overflow_ladder, monkeypatch):
        """An int64-overflow source comes back as the serial kernel's
        ``None`` slot; the rest of its chunk keeps its rows."""
        np = pytest.importorskip("numpy")
        executor = executor_for(pool_policy(chunk_size=2))
        csr = overflow_ladder.csr_view()
        dense = [csr.index_of(node) for node in ("s", (0, 0), (30, 1), (60, 0), "t")]
        params = {"skip_overflow": True}
        maps = record_pool_maps(executor, monkeypatch)
        pooled = executor.map_kernel("csr_signed_bfs", csr, dense, params)
        serial = serial_executor().map_kernel("csr_signed_bfs", csr, dense, params)
        assert maps == [3]
        # "s" and "t" overflow; the middle three keep their rows.
        overflowed = [True, False, False, False, True]
        assert [result is None for result in pooled] == overflowed
        assert [result is None for result in serial] == overflowed
        for left, right in zip(pooled[1:4], serial[1:4]):
            assert all(np.array_equal(a, b) for a, b in zip(left, right))
        assert_owned_rows(pooled[1:4])

    def test_sbph_depths_identical(self, graph):
        pytest.importorskip("numpy")
        executor = executor_for(pool_policy())
        csr, dense = self._dense_sources(graph)
        pooled = executor.map_kernel("csr_sbph", csr, dense, {"max_length": None})
        serial = serial_executor().map_kernel("csr_sbph", csr, dense, {"max_length": None})
        assert_same_depth_rows(pooled, serial)

    def test_exact_sbp_rows_identical(self, graph):
        """Exact SBP in the pool: the same rows and truncation flags as the
        serial kernel, with some sources cut at the expansion cap."""
        pytest.importorskip("numpy")
        executor = executor_for(pool_policy())
        csr, dense = self._dense_sources(graph)
        params = {"exact": True, "max_length": 4, "max_expansions": 3000}
        pooled = executor.map_kernel("csr_sbph", csr, dense, params)
        serial = serial_executor().map_kernel("csr_sbph", csr, dense, params)
        assert_same_depth_rows(pooled, serial)
        flags = [flag for _positive, _negative, flag in serial]
        assert any(flags) and not all(flags)

    def test_sbph_depths_identical_across_batches(self, monkeypatch):
        """Every worker chunk spans several SBPH batches: the pooled rows
        still equal the serial kernel's depth rows, and shutdown leaves no
        snapshot file behind."""
        pytest.importorskip("numpy")
        from repro.signed.csr import sbph_batch_size

        dense_graph, _ = synthetic_signed_network(
            1500, average_degree=24.0, negative_fraction=0.25, seed=31
        )
        csr = dense_graph.csr_view()
        batch = sbph_batch_size(csr)
        assert batch <= 4
        sources = list(range(0, csr.number_of_nodes(), 97))[: 4 * batch + 1]
        directory = pool_module._publish_directory(None)
        prefix = f"snapshot-{os.getpid()}-"
        executor = executor_for(pool_policy(chunk_size=2 * batch + 1))
        maps = record_pool_maps(executor, monkeypatch)
        pooled = executor.map_kernel("csr_sbph", csr, sources, {"max_length": None})
        assert len(maps) == 1 and maps[0] >= 2  # one dispatch, several chunks
        reference = dense_graph.copy().csr_view()
        serial = serial_executor().map_kernel(
            "csr_sbph", reference, sources, {"max_length": None}
        )
        assert_same_depth_rows(pooled, serial)
        monkeypatch.undo()
        pool_module.shutdown_pools()
        assert not [name for name in os.listdir(directory) if name.startswith(prefix)]

    def test_worker_crash_leaves_no_stale_files(self, graph):
        """Crash injection: a kernel raising in every worker task propagates
        its error; the pool keeps serving, and shutdown leaves no snapshot
        file of this process."""
        pytest.importorskip("numpy")
        directory = pool_module._publish_directory(None)
        prefix = f"snapshot-{os.getpid()}-"
        executor = executor_for(pool_policy())
        csr, dense = self._dense_sources(graph)
        with pytest.raises(ValueError):
            # A negative length bound raises inside every worker task.
            executor.map_kernel("csr_sbph", csr, dense, {"max_length": -1})
        # The pool survives the crash and the next dispatch works.
        ok = executor.map_kernel("csr_path_lengths", csr, dense, {})
        assert len(ok) == len(dense)
        pool_module.shutdown_pools()
        assert not [name for name in os.listdir(directory) if name.startswith(prefix)]
        assert not pool_module._STORE_FILE_LEDGER

    def test_int64_guard_falls_back_per_source_in_a_pooled_batch(self, monkeypatch):
        """Overflowing sources resolve through ``signed_bfs`` while the rest of
        the batch keeps its pooled rows — pooled sets stay identical to the
        serial CSR relation's."""
        pytest.importorskip("numpy")
        # Doubling ladder: layer k is reached by 2**k shortest paths, so 66
        # layers push the counts past the int64 guard for sources near "s".
        edges = []
        previous = ["s"]
        for layer in range(66):
            current = [(layer, 0), (layer, 1)]
            for node in current:
                for parent in previous:
                    edges.append((parent, node, 1))
            previous = current
        edges.append((previous[0], "t", 1))
        edges.append((previous[1], "t", 1))
        graph = SignedGraph.from_edges(edges)
        pool_rel = make_relation("SPO", graph, policy=pool_policy())
        # SP* relations on one graph share their signed-BFS cache: the serial
        # reference runs on a copy so it cannot read the pool's results.
        serial_rel = make_relation("SPO", graph.copy())
        maps = record_pool_maps(pool_rel._executor(), monkeypatch)
        sample = ["s", (0, 0), (30, 1), (65, 0), "t"]
        pool_sets = pool_rel.batch_compatible_sets(sample)
        assert pool_sets == serial_rel.batch_compatible_sets(sample)
        assert maps  # the batch really dispatched
        assert pool_rel.batch_compatibility_degrees(sample) == (
            serial_rel.batch_compatibility_degrees(sample)
        )

    def test_degradation_warns_once_across_relations(self):
        """Satellite: the degradation seen-set is module-level, so freshly
        constructed relations on a degraded host do not re-warn per engine."""
        import warnings as warnings_module

        class Opaque:
            def __init__(self, label):
                self.label = label

        nodes = [Opaque(index) for index in range(8)]
        graph_a = SignedGraph()
        graph_b = SignedGraph()
        for index in range(7):
            graph_a.add_edge(nodes[index], nodes[index + 1], +1)
            graph_b.add_edge(nodes[index], nodes[index + 1], +1 if index % 2 else -1)
        pool_module._DEGRADE_WARNED.clear()
        first = make_relation("SPO", graph_a, policy=pool_policy())
        second = make_relation("SPA", graph_b, policy=pool_policy())
        with warnings_module.catch_warnings(record=True) as caught:
            warnings_module.simplefilter("always")
            first.batch_compatible_sets(nodes)
            second.batch_compatible_sets(nodes)
            second.batch_compatible_sets(nodes[:4])
        degrade = [
            warning
            for warning in caught
            if "degraded to serial" in str(warning.message)
        ]
        assert len(degrade) == 1


#: Every relation ``make_relation`` builds.
RELATIONS = ("DPE", "NNE", "SBP", "SPA", "SPM", "SPO", "SBPH")


class TestPoolSerialBitIdentity:
    @pytest.mark.parametrize("name", RELATIONS)
    def test_batched_queries_identical(self, graph, name):
        # On a copy: SP* relations (and their oracles) on one graph share
        # their signed-BFS cache, so a reference on ``graph`` itself would
        # hand the pool stack its results and nothing would be dispatched.
        serial_rel, serial_oracle, serial_engine = build_stack(
            graph.copy(), name, ExecutionPolicy()
        )
        pool_rel, pool_oracle, pool_engine = build_stack(graph, name, pool_policy())
        nodes = graph.nodes()
        sample = nodes[:10] if name in ("SBP", "SBPH") else nodes[:25]
        team = nodes[5:8]
        candidates = nodes[30:70]

        assert pool_rel.batch_compatible_sets(sample) == serial_rel.batch_compatible_sets(sample)
        assert pool_rel.batch_compatibility_degrees(sample) == serial_rel.batch_compatibility_degrees(sample)
        assert pool_engine.compatible_from_many(candidates, team) == serial_engine.compatible_from_many(candidates, team)
        assert pool_oracle.batch_distance_to_set(candidates, team) == serial_oracle.batch_distance_to_set(candidates, team)

        serial_stats = source_sampled_pair_statistics(
            serial_rel, 8, seed=13, engine=serial_engine
        )
        pool_stats = source_sampled_pair_statistics(
            pool_rel, 8, seed=13, engine=pool_engine
        )
        assert serial_stats == pool_stats

    def test_balanced_batch_distances_match_per_candidate_loop(self, graph):
        relation, oracle, _engine = build_stack(graph, "SBPH", ExecutionPolicy())
        nodes = graph.nodes()
        team = nodes[:3]
        candidates = nodes[10:60]
        batched = oracle.batch_distance_to_set(candidates, team)
        loop = [oracle.distance_to_set(candidate, team) for candidate in candidates]
        assert batched == loop

    def test_truncation_flags_survive_pool_dispatch(self, graph):
        # A tiny expansion budget forces truncation everywhere but on a
        # three-node tail component; the pool path (the flags travel with
        # the depth rows through Pool.map) must record the same flagged
        # sources as the pure-Python exact search.  The closures search
        # every member of the sample's components.
        graph = graph.copy()
        tail = [graph.number_of_nodes() + offset for offset in range(3)]
        graph.add_edge(tail[0], tail[1], +1)
        graph.add_edge(tail[1], tail[2], -1)
        reference = ReferenceRelation("SBP", graph.copy(), max_expansions=50)
        serial_rel = make_relation("SBP", graph.copy(), max_expansions=50)
        pool_rel = make_relation("SBP", graph, max_expansions=50, policy=pool_policy())
        sample = graph.nodes()[:6] + tail[:1]
        for relation in (serial_rel, pool_rel):
            relation.batch_compatible_sets(sample)
        searched = set().union(*(shortest_path_lengths(graph, node) for node in sample))
        flagged = {node for node in searched if reference.truncated(node)}
        assert flagged and not flagged & set(tail)
        assert serial_rel.truncated_sources() == flagged
        assert pool_rel.truncated_sources() == flagged


#: Every relation ``make_relation`` builds.
COUNT_RELATIONS = ("DPE", "NNE", "SPA", "SPM", "SPO", "SBP", "SBPH")

#: Serial and on a 2-worker pool.
COUNT_POLICIES = {
    "serial": ExecutionPolicy(),
    "pool": pool_policy(),
}


@st.composite
def count_queries(draw):
    """A small signed graph (isolated nodes and several components likely)
    with sources and targets; the targets may be empty, repeat nodes, name
    nodes outside the graph and include a source."""
    size = draw(st.integers(2, 12))
    graph = SignedGraph()
    for node in range(size):
        graph.add_node(node)
    node = st.integers(0, size - 1)
    for u, v, sign in draw(
        st.lists(st.tuples(node, node, st.sampled_from((-1, 1))), max_size=3 * size)
    ):
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, sign)
    sources = draw(st.lists(node, min_size=1, max_size=6))
    targets = draw(st.lists(st.one_of(node, st.just("absent")), max_size=size + 2))
    if draw(st.booleans()):
        targets.append(sources[0])
    return graph, sources, targets


def expected_counts(relation, sources, targets):
    """The reference: each source's compatible set intersected with the targets."""
    target_set = set(targets)
    return [len(relation.compatible_with(source) & target_set) for source in sources]


class TestBatchCountCompatible:
    """``batch_count_compatible`` equals the set intersection it replaces for
    every relation and executor.  The hook runs before the
    reference on each fresh relation, so it never reads sets or BFS results
    the reference computed (a pool policy really dispatches)."""

    @pytest.mark.parametrize("policy_name", COUNT_POLICIES)
    @pytest.mark.parametrize("name", COUNT_RELATIONS)
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(query=count_queries())
    def test_counts_match_compatible_sets(self, name, policy_name, query):
        graph, sources, targets = query
        relation = build_stack(graph, name, COUNT_POLICIES[policy_name])[0]
        counts = relation.batch_count_compatible(sources, targets)
        assert relation.batch_count_compatible(sources, []) == [0] * len(sources)
        assert counts == expected_counts(relation, sources, targets)

    @pytest.mark.parametrize("policy_name", COUNT_POLICIES)
    @pytest.mark.parametrize("name", COUNT_RELATIONS)
    def test_int64_overflow_source(self, overflow_ladder, name, policy_name):
        policy = COUNT_POLICIES[policy_name]
        relation = build_stack(overflow_ladder, name, policy)[0]
        sources = ["s", (30, 1), "t"]
        targets = ["s", "t", (60, 0), (1, 1), (30, 0), "absent"]
        counts = relation.batch_count_compatible(sources, targets)
        if name.startswith("SP"):
            # "s" overflowed int64 and was counted by signed_bfs, its
            # result laid onto dense rows of exact Python ints; the other
            # sources kept their int64 rows.  Every result, pooled or not, is
            # cached, so a repeated count dispatches nothing.
            from repro.signed.csr import CSRSignedBFSResult

            exact = relation._bfs_cache.get("s")
            assert isinstance(exact, CSRSignedBFSResult)
            assert exact.positive_array.dtype == object
            assert all(relation._bfs_cache.get(source) is not None for source in sources)
            assert counts[0] == 5
        assert counts == expected_counts(relation, sources, targets)

    @pytest.mark.parametrize("policy_name", COUNT_POLICIES)
    @pytest.mark.parametrize("name", ("SPA", "SPM", "SPO"))
    def test_result_from_an_older_node_set(self, two_factions, name, policy_name):
        relation = build_stack(two_factions, name, COUNT_POLICIES[policy_name])[0]
        relation.batch_bfs([0, 3])
        # A new component: the cached results survive, on a snapshot whose
        # dense ids no longer match the graph's.
        two_factions.add_edge("x", "y", 1)
        stale = relation._bfs_cache.get(0)
        assert stale is not None
        assert not stale.graph.shares_index_with(two_factions.csr_view())
        sources, targets = [0, 3, "x"], [0, 1, 4, 5, "x", "y"]
        counts = relation.batch_count_compatible(sources, targets)
        reference = build_stack(two_factions.copy(), name, ExecutionPolicy())[0]
        assert counts == expected_counts(reference, sources, targets)


class TestOverflowRows:
    """On the overflow ladder (``"t"`` has 2**61 shortest paths from ``"s"``)
    every SP* result a relation caches is a dense CSR result, and every
    batched reader answers as :class:`ReferenceRelation` does — before and
    after a node insertion leaves the cached results on an older snapshot."""

    @pytest.mark.parametrize("policy_name", COUNT_POLICIES)
    @pytest.mark.parametrize("name", ("SPA", "SPM", "SPO"))
    def test_dense_rows_match_reference(self, overflow_ladder, name, policy_name):
        from repro.signed.csr import CSRSignedBFSResult

        graph = overflow_ladder
        policy = COUNT_POLICIES[policy_name]
        relation, oracle, engine = build_stack(graph, name, policy)
        for phase in ("ladder", "after insertion"):
            if phase == "after insertion":
                # A new component: the cached results survive, on a snapshot
                # whose dense ids no longer match the graph's.
                graph.add_edge("x", "y", -1)
                graph.add_node("z")
            team = ["s", (30, 0)] if phase == "ladder" else ["s", (30, 0), "x"]
            candidates = graph.nodes()
            answers = {
                "team filter": engine.compatible_from_many(candidates, team),
                "distances": oracle.batch_distance_to_set(candidates + ["absent"], team),
                "average distance": average_compatible_distance(relation, oracle),
                "counts": relation.batch_count_compatible(candidates, candidates),
                "degrees": relation.batch_compatibility_degrees(candidates),
            }
            cached = list(relation._bfs_cache.items()) + list(
                relation._presence_cache.items()
            )
            assert "s" in relation._bfs_cache, phase
            assert all(isinstance(result, CSRSignedBFSResult) for _, result in cached)
            exact = relation._bfs_cache.get("s")
            assert exact.positive_array.dtype == object
            # After the insertion the readers remapped an older snapshot's rows.
            assert exact.graph.shares_index_with(graph.csr_view()) == (phase == "ladder")
            reference = ReferenceRelation(name, graph.copy())
            everyone = set(candidates)
            expected = {
                "team filter": frozenset(
                    candidate
                    for candidate in candidates
                    if candidate not in team
                    and all(reference.are_compatible(member, candidate) for member in team)
                ),
                "distances": [
                    reference.distance_to_set(candidate, team) for candidate in candidates
                ]
                + [INFINITY],  # "absent" is not in the graph
                "average distance": reference_average_distance(reference, reference.distance),
                "counts": [
                    len(reference.compatible_with(candidate) & everyone)
                    for candidate in candidates
                ],
                "degrees": [reference.compatibility_degree(candidate) for candidate in candidates],
            }
            assert answers == expected, phase


class TestChurnRedispatch:
    def test_pool_identical_to_cold_serial_after_each_round(self):
        graph, _ = synthetic_signed_network(
            220, average_degree=4.0, negative_fraction=0.25, seed=31
        )
        pool_rel, pool_oracle, pool_engine = build_stack(graph, "SPO", pool_policy())
        rng = ensure_rng(99)
        publishes_seen = set()
        for _round in range(3):
            apply_edge_churn(graph, 25, rng)
            pool_engine.refresh()
            # A cold serial stack on a copy of the mutated graph is the ground
            # truth (a stack on ``graph`` would share the pool stack's
            # signed-BFS cache).
            cold_rel, cold_oracle, cold_engine = build_stack(
                graph.copy(), "SPO", ExecutionPolicy()
            )
            nodes = graph.nodes()
            sample, team, candidates = nodes[:20], nodes[4:7], nodes[25:65]
            assert pool_rel.batch_compatible_sets(sample) == cold_rel.batch_compatible_sets(sample)
            assert pool_engine.compatible_from_many(candidates, team) == cold_engine.compatible_from_many(candidates, team)
            assert pool_oracle.batch_distance_to_set(candidates, team) == cold_oracle.batch_distance_to_set(candidates, team)
            handle = pool_module._POOL_HANDLES[2]
            publishes_seen.add(handle.publications)
        # Every round shipped a fresh snapshot: the generation-keyed publish
        # invalidated the stale one instead of reusing it.
        assert len(publishes_seen) == 3


class TestRepublishBookkeeping:
    def test_republishing_every_generation_keeps_pool_alive(self, graph):
        """Regression: a snapshot published every round must not trip the
        live-publication bound and unlink a live file (which used to kill
        the shared pool after ~_PUBLISH_BOUND rounds)."""
        working, _ = synthetic_signed_network(
            120, average_degree=4.0, negative_fraction=0.25, seed=41
        )
        pool_rel = make_relation("SPO", working, policy=pool_policy())
        executor = pool_rel._executor()
        handle = executor._handle
        rng = ensure_rng(5)
        for _round in range(3 * pool_module._PUBLISH_BOUND):
            apply_edge_churn(working, 5, rng)
            serial_rel = make_relation("SPO", working.copy())
            sample = working.nodes()[:8]
            assert pool_rel.batch_compatible_sets(sample) == (
                serial_rel.batch_compatible_sets(sample)
            )
            assert not handle.closed
        order = list(handle.publish_order)
        assert len(order) == len(set(order)) <= pool_module._PUBLISH_BOUND

    def test_failed_payload_marker_does_not_survive_id_reuse(self, graph):
        handle = executor_for(pool_policy())._handle
        probe, _ = synthetic_signed_network(
            10, average_degree=2.0, negative_fraction=0.2, seed=1
        )
        handle.mark_failed(probe)
        assert handle.is_failed(probe)
        key = id(probe)
        del probe  # the weakref callback must clear the marker with the object
        assert key not in handle.failed_payloads


class TestStreamingParity:
    def test_streaming_report_identical_with_workers(self):
        from repro.experiments import StreamingConfig, run_streaming

        base = dict(
            dataset="slashdot",
            scale=0.25,
            relation="SPO",
            algorithms=("LCMD", "RFMC"),
            num_rounds=2,
            churn_per_round=12,
            tasks_per_round=1,
            task_size=3,
            seed=77,
        )
        serial_report = run_streaming(StreamingConfig(**base))
        pool_report = run_streaming(StreamingConfig(workers=2, **base))
        for serial_round, pool_round in zip(serial_report.rounds, pool_report.rounds):
            assert serial_round.generation == pool_round.generation
            for serial_query, pool_query in zip(serial_round.queries, pool_round.queries):
                assert serial_query.algorithm == pool_query.algorithm
                assert serial_query.solved == pool_query.solved
                assert serial_query.cost == pool_query.cost
                assert serial_query.team_size == pool_query.team_size


def refuse_pools(monkeypatch):
    """Make starting a pool fail as on a platform without process support:
    the context's ``Pool`` raises ``OSError``."""

    def refuse(*args, **kwargs):
        raise OSError("process pools are disabled")

    monkeypatch.setattr(multiprocessing.get_context(), "Pool", refuse)


class TestGracefulDegradation:
    def test_pool_start_failure_degrades_to_serial_with_warning(self, monkeypatch):
        reset_executors()
        refuse_pools(monkeypatch)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor = executor_for(ExecutionPolicy(workers=2))
            # The failure is remembered: no re-warn, still serial.
            again = executor_for(ExecutionPolicy(workers=4))
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "falling back to serial" in str(runtime[0].message)
        assert isinstance(executor, SerialExecutor)
        assert isinstance(again, SerialExecutor)
        monkeypatch.undo()
        reset_executors()

    def test_degraded_policy_still_produces_correct_results(self, graph, monkeypatch):
        reset_executors()
        refuse_pools(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            # On a copy: the graph's shared signed-BFS cache may already hold
            # these sources, and then nothing would dispatch.
            pool_rel = make_relation("SPO", graph.copy(), policy=pool_policy())
            pool_sets = pool_rel.batch_compatible_sets(graph.nodes()[:10])
        serial_rel = make_relation("SPO", graph.copy())
        assert pool_sets == serial_rel.batch_compatible_sets(graph.nodes()[:10])
        monkeypatch.undo()
        reset_executors()

    def test_unpicklable_payload_degrades_per_payload(self):
        class OpaqueNode:
            """Defined locally, hence unpicklable — publish must fail cleanly."""

            def __init__(self, label: str) -> None:
                self.label = label

            def __repr__(self) -> str:
                return f"OpaqueNode({self.label})"

        nodes = [OpaqueNode(str(index)) for index in range(8)]
        graph = SignedGraph()
        for index in range(7):
            graph.add_edge(nodes[index], nodes[index + 1], +1 if index % 3 else -1)
        pool_rel = make_relation("SBPH", graph, policy=pool_policy())
        # The degradation warning fires once per process per stage; make this
        # test order-independent.
        pool_module._DEGRADE_WARNED.clear()
        with pytest.warns(RuntimeWarning, match="degraded to serial"):
            pool_sets = pool_rel.batch_compatible_sets(nodes)
        serial_rel = make_relation("SBPH", graph)
        assert pool_sets == serial_rel.batch_compatible_sets(nodes)

    def test_identity_equality_nodes_dispatch_on_dense_ids(self):
        """Picklable nodes whose copies compare unequal (identity __eq__)
        never reach a worker: the kernels take dense ids, so the pool serves
        the batch without degrading and with the serial answers."""
        nodes = [IdentityNode(index) for index in range(8)]
        graph = SignedGraph()
        for index in range(7):
            graph.add_edge(nodes[index], nodes[index + 1], +1 if index % 3 else -1)
        pool_rel = make_relation("SPA", graph, policy=pool_policy())
        handle = pool_rel._executor()._handle
        published = handle.publications
        pool_module._DEGRADE_WARNED.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pool_sets = pool_rel.batch_compatible_sets(nodes)
        assert handle.publications == published + 1
        serial_rel = make_relation("SPA", graph.copy())
        assert pool_sets == serial_rel.batch_compatible_sets(nodes)


class TestSnapshotStoreMode:
    """Snapshot publishing into the ``snapshot_store`` directory: workers
    memmap a published ``.store`` file, with identical results, identical churn semantics, and
    crash-safe cleanup through the store-file ledger."""

    @staticmethod
    def _dense_sources(graph, count=12):
        # A fresh snapshot object: a publication is keyed by identity, so
        # graph.csr_view() may already be published by an earlier test into
        # another directory.
        from repro.signed.csr import CSRSignedGraph

        csr = CSRSignedGraph.from_signed_graph(graph)
        return csr, [csr.index_of(node) for node in graph.nodes()[:count]]

    @staticmethod
    def _published_files(directory):
        return sorted(
            name
            for name in os.listdir(directory)
            if name.endswith((".store", ".tmp"))
        )

    def test_policy_validation(self, tmp_path):
        from repro.exec.policy import validate_snapshot_store

        assert ExecutionPolicy(snapshot_store=str(tmp_path)).snapshot_store == str(
            tmp_path
        )
        with pytest.raises(ValueError, match="directory does not exist"):
            ExecutionPolicy(snapshot_store=str(tmp_path / "missing"))
        with pytest.raises(ValueError, match="existing directory"):
            ExecutionPolicy(snapshot_store="")
        with pytest.raises(ValueError, match="existing directory"):
            validate_snapshot_store(123)

    def test_store_dispatch_bit_identical_to_serial(self, graph, tmp_path):
        np = pytest.importorskip("numpy")
        csr, dense = self._dense_sources(graph, count=20)
        serial = serial_executor()
        store_exec = executor_for(
            pool_policy(snapshot_store=str(tmp_path))
        )
        for kernel, params in (
            ("csr_path_lengths", {}),
            ("csr_signed_bfs", {"skip_overflow": True}),
            ("csr_sbph", {"max_length": None}),
            ("csr_compatible_degrees", {}),
        ):
            expected = serial.map_kernel(kernel, csr, dense, params)
            via_store = store_exec.map_kernel(kernel, csr, dense, params)
            assert len(via_store) == len(expected)
            for left, right in zip(via_store, expected):
                if isinstance(left, tuple):
                    assert all(np.array_equal(a, b) for a, b in zip(left, right))
                elif isinstance(left, np.ndarray):
                    assert np.array_equal(left, right)
                else:
                    assert left == right
        descriptor = store_exec._handle.published[id(csr)].descriptor
        assert self._published_files(tmp_path) == [os.path.basename(descriptor.path)]

    def test_store_descriptor_and_file_lifecycle(self, graph, tmp_path):
        pytest.importorskip("numpy")
        csr, dense = self._dense_sources(graph)
        executor = executor_for(
            pool_policy(snapshot_store=str(tmp_path))
        )
        executor.map_kernel("csr_path_lengths", csr, dense, {})
        descriptor = executor._handle.published[id(csr)].descriptor
        assert descriptor.path.endswith(".store")
        assert descriptor.path in pool_module._STORE_FILE_LEDGER
        assert self._published_files(tmp_path) == [os.path.basename(descriptor.path)]
        # Re-dispatch against the same snapshot reuses the publication.
        executor.map_kernel("csr_path_lengths", csr, dense, {})
        assert len(os.listdir(tmp_path)) == 1
        pool_module.shutdown_pools()
        assert os.listdir(tmp_path) == []
        assert not pool_module._STORE_FILE_LEDGER

    def test_store_results_return_through_pool_map(self, graph, tmp_path, monkeypatch):
        np = pytest.importorskip("numpy")
        csr, dense = self._dense_sources(graph)
        executor = executor_for(
            pool_policy(snapshot_store=str(tmp_path))
        )
        before = executor._handle.publications
        maps = record_pool_maps(executor, monkeypatch)
        left = executor.map_kernel("csr_path_lengths", csr, dense, {})
        # Workers read the memory-mapped store file and return rows that
        # own their bytes.
        assert executor._handle.publications == before + 1
        assert len(maps) == 1
        expected = serial_executor().map_kernel("csr_path_lengths", csr, dense, {})
        assert all(np.array_equal(a, b) for a, b in zip(left, expected))
        assert_owned_rows(left)

    def test_churn_republish_under_store(self, tmp_path):
        pytest.importorskip("numpy")
        graph, _ = synthetic_signed_network(
            220, average_degree=4.0, negative_fraction=0.25, seed=33
        )
        pool_rel, pool_oracle, pool_engine = build_stack(
            graph, "SPO", pool_policy(snapshot_store=str(tmp_path))
        )
        rng = ensure_rng(17)
        for _round in range(3):
            apply_edge_churn(graph, 25, rng)
            pool_engine.refresh()
            # On a copy: a stack on ``graph`` would share the pool stack's
            # signed-BFS cache.
            cold_rel, cold_oracle, cold_engine = build_stack(
                graph.copy(), "SPO", ExecutionPolicy()
            )
            nodes = graph.nodes()
            sample, team, candidates = nodes[:20], nodes[4:7], nodes[25:65]
            assert pool_rel.batch_compatible_sets(sample) == cold_rel.batch_compatible_sets(sample)
            assert pool_oracle.batch_distance_to_set(candidates, team) == cold_oracle.batch_distance_to_set(candidates, team)
            # Stale publications are released as they are superseded, so the
            # store directory never accumulates more than the live snapshots.
            live = [f for f in os.listdir(tmp_path) if f.endswith(".store")]
            assert len(live) <= 2
        pool_module.shutdown_pools()
        assert os.listdir(tmp_path) == []

    def test_pools_of_different_sizes_publish_distinct_files(self, graph, tmp_path):
        """Publication ids are unique per process, not per pool: two pools
        publishing into one directory never overwrite each other's files."""
        np = pytest.importorskip("numpy")
        pool_module.shutdown_pools()
        other_graph, _ = synthetic_signed_network(
            150, average_degree=4.0, negative_fraction=0.25, seed=37
        )
        snapshots = []  # both publications stay live until the end
        for workers, source_graph in ((2, graph), (3, other_graph)):
            csr, dense = self._dense_sources(source_graph)
            snapshots.append(csr)
            executor = executor_for(
                pool_policy(workers=workers, snapshot_store=str(tmp_path))
            )
            pooled = executor.map_kernel("csr_path_lengths", csr, dense, {})
            expected = serial_executor().map_kernel("csr_path_lengths", csr, dense, {})
            assert all(np.array_equal(a, b) for a, b in zip(pooled, expected))
        assert len(self._published_files(tmp_path)) == 2
        pool_module.shutdown_pools()
        assert self._published_files(tmp_path) == []

    def test_save_failure_degrades_to_serial(self, graph, tmp_path, monkeypatch):
        import repro.signed.store as store_module

        pytest.importorskip("numpy")

        def exploding_save(*args, **kwargs):
            raise OSError("store directory went away")

        monkeypatch.setattr(store_module, "save_snapshot", exploding_save)
        working = graph.copy()
        pool_rel = make_relation(
            "SPO", working, policy=pool_policy(snapshot_store=str(tmp_path))
        )
        pool_module._DEGRADE_WARNED.clear()
        with pytest.warns(RuntimeWarning, match="store directory went away"):
            pool_sets = pool_rel.batch_compatible_sets(working.nodes()[:10])
        serial_rel = make_relation("SPO", working.copy())
        assert pool_sets == serial_rel.batch_compatible_sets(working.nodes()[:10])
        assert self._published_files(tmp_path) == []

    @pytest.mark.parametrize("fault", ["temp", "target"])
    def test_partial_write_degrades_and_leaves_no_files(
        self, graph, tmp_path, monkeypatch, fault
    ):
        """Fault injection mid-publish: once the temp file exists (before
        the atomic rename) or once the target file exists (right after it).
        The dispatch falls back to serial with one warning, and nothing is
        left in the publish directory."""
        import repro.signed.store as store_module

        seen_at_fault = []
        real_replace = store_module.os.replace

        def failing_fsync(fd):
            seen_at_fault.extend(self._published_files(tmp_path))
            raise OSError("store directory went away")

        def replace_then_fail(source, target):
            real_replace(source, target)
            seen_at_fault.extend(self._published_files(tmp_path))
            raise OSError("store directory went away")

        working = graph.copy()
        pool_rel = make_relation(
            "SPO", working, policy=pool_policy(snapshot_store=str(tmp_path))
        )
        sample = working.nodes()[:10]
        if fault == "temp":
            monkeypatch.setattr(store_module.os, "fsync", failing_fsync)
        else:
            monkeypatch.setattr(store_module.os, "replace", replace_then_fail)
        pool_module._DEGRADE_WARNED.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool_sets = pool_rel.batch_compatible_sets(sample)
        monkeypatch.undo()
        runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "store directory went away" in str(runtime[0].message)
        suffix = ".tmp" if fault == "temp" else ".store"
        assert [f for f in seen_at_fault if f.endswith(suffix)]
        serial_rel = make_relation("SPO", working.copy())
        assert pool_sets == serial_rel.batch_compatible_sets(sample)
        assert self._published_files(tmp_path) == []

    def test_worker_crash_leaves_no_stale_store_files(self, graph, tmp_path):
        """Crash injection: a kernel blowing up inside the workers must leave
        the published file governed by the ledger — gone after shutdown."""
        pytest.importorskip("numpy")
        csr, dense = self._dense_sources(graph)
        executor = executor_for(
            pool_policy(snapshot_store=str(tmp_path))
        )
        with pytest.raises(ValueError):
            executor.map_kernel("csr_sbph", csr, dense, {"max_length": -1})
        # The pool survives and the publication is still serviceable.
        ok = executor.map_kernel("csr_path_lengths", csr, dense, {})
        assert len(ok) == len(dense)
        pool_module.shutdown_pools()
        assert os.listdir(tmp_path) == []
        assert not pool_module._STORE_FILE_LEDGER

    def test_default_directory_leaves_no_files_after_crash_and_shutdown(self, graph):
        """Publications in the resolved default directory (``/dev/shm`` or
        the temp directory) are gone after a dispatch, a worker crash and
        shutdown_pools()."""
        pytest.importorskip("numpy")
        directory = pool_module._publish_directory(None)
        prefix = f"snapshot-{os.getpid()}-"

        def leftovers():
            return [name for name in os.listdir(directory) if name.startswith(prefix)]

        csr, dense = self._dense_sources(graph)
        executor = executor_for(pool_policy())
        executor.map_kernel("csr_path_lengths", csr, dense, {})
        assert {name.rsplit(".", 1)[1] for name in leftovers()} == {"store"}
        with pytest.raises(ValueError):
            # A negative length bound raises inside every worker task.
            executor.map_kernel("csr_sbph", csr, dense, {"max_length": -1})
        pool_module.shutdown_pools()
        assert leftovers() == []
        assert not pool_module._STORE_FILE_LEDGER

    def test_shutdown_flushes_orphaned_store_and_temp_files(self, tmp_path):
        import repro.signed.store as store_module

        orphan_store = tmp_path / "orphan.store"
        orphan_store.write_bytes(b"leftover")
        orphan_temp = tmp_path / "orphan.store.123.0.tmp"
        orphan_temp.write_bytes(b"half-written")
        pool_module._STORE_FILE_LEDGER[str(orphan_store)] = None
        with store_module._TEMP_LOCK:
            store_module._TEMP_LEDGER[str(orphan_temp)] = None
        pool_module.shutdown_pools()
        assert not orphan_store.exists()
        assert not orphan_temp.exists()
        assert not pool_module._STORE_FILE_LEDGER
        assert not store_module._TEMP_LEDGER
