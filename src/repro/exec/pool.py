"""The process-pool executor: per-source kernels fanned out over workers.

The per-source traversals behind the Table-2 sweeps and the engine's ``warm``
paths are embarrassingly parallel — every source's BFS/search is independent —
but they all read one shared graph snapshot.  The executor here makes that
shape explicit:

* **Snapshot publishing.**  Every payload — a frozen
  :class:`~repro.signed.csr.CSRSignedGraph` — is published once per
  (object, generation) as one ``.store`` file (:mod:`repro.signed.store`)
  that workers ``numpy.memmap`` read-only — no node objects, kernels work
  on dense ids (see :mod:`repro.exec.kernels`).  The directory is the policy's
  ``snapshot_store``, or by default ``/dev/shm`` when it is writable (the
  temp directory otherwise), so publishing is a page-cache write.  Every
  published file sits on a parent-owned ledger flushed by
  :func:`shutdown_pools`.
* **Generation checking.**  A publication is keyed by the payload's identity
  *and* its ``generation``; a mutated graph (or a fresh snapshot after a
  churn batch) republishes automatically, so workers can never serve results
  against a stale snapshot.
* **Result shipping.**  Every kernel returns its results through
  ``Pool.map``: a pooled result is the serial kernel's own return value,
  pickled.  The allocating CSR wrappers copy each row out of their batch
  block, and an unpickled row is backed by at most its own pickled bytes,
  so a cached row never pins a larger buffer.
* **Deterministic merging.**  Sources are split into index-ordered chunks,
  dispatched with :meth:`multiprocessing.pool.Pool.map` (which returns
  results in task order regardless of completion order), and concatenated —
  so the merged result list is bit-identical to a serial run however the
  chunks were scheduled.  Kernels are deterministic functions of the
  snapshot and their sources (none draws randomness).
* **Graceful degradation.**  If pools are unavailable on the platform (or a
  payload cannot be published), execution falls back to the in-process
  serial path with a one-time :class:`RuntimeWarning`.  Results are
  unchanged either way.

Pools are persistent and shared per worker count; they shut down atexit or
via :func:`shutdown_pools`.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import warnings
import weakref
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.exec.kernels import KERNELS
from repro.exec.policy import ExecutionPolicy
from repro.exec.serial import Executor, serial_executor

#: Parent-side bound on simultaneously published payloads per pool (older
#: publications are unlinked and republished on demand).
_PUBLISH_BOUND = 4

#: Worker-side bound on cached attached payloads.
_WORKER_CACHE_BOUND = 4

#: Publication ids, unique per process: they name the published files, and
#: pools of different sizes publish into the same directory.
_PUBLISH_IDS = itertools.count()

#: Batches smaller than this run in-process even under a pool policy.
#: Measured for a two-source SPO ``batch_bfs`` with ``workers=2`` on a
#: 2-core VM: 1.1 ms in-process vs 2.2 ms pooled on the 2308-node epinions
#: stand-in, 45 ms vs 57 ms on the 100k-node million stand-in.
MIN_PARALLEL_SOURCES = 4


class ExecutorUnavailable(RuntimeError):
    """Raised when a worker pool (or a payload shipment) cannot be set up."""


#: Parent-owned ledger of snapshot files published for workers and not yet
#: unlinked.  Normal operation removes entries when a publication is released;
#: :func:`shutdown_pools` flushes the rest, so a crashed dispatch cannot
#: strand ``snapshot-*`` files in the publish directory.
_STORE_FILE_LEDGER: Dict[str, None] = {}


def _store_discard(path: str) -> None:
    """Drop ``path`` from the store-file ledger and unlink it (best-effort)."""
    _STORE_FILE_LEDGER.pop(path, None)
    try:
        os.unlink(path)
    except OSError:
        pass


def _flush_store_ledger() -> None:
    """Unlink every published snapshot file still on the ledger, plus any
    in-flight temp files (crash/interrupt leftovers)."""
    import sys

    for path in list(_STORE_FILE_LEDGER):
        _store_discard(path)
    # sys.modules lookup instead of an import: this also runs atexit, where
    # importing is fragile — and if the store module was never imported, no
    # temp file can exist either.
    store = sys.modules.get("repro.signed.store")
    if store is not None:
        store.flush_temp_files()


#: Degradation stages already warned about, shared across every executor
#: instance in the process.  A freshly constructed relation (hence executor)
#: on a pool-less host must not re-warn on every construction — one
#: RuntimeWarning per failure mode per process.
#: :func:`repro.exec.policy.reset_executors` clears it.
_DEGRADE_WARNED: set = set()


def _publish_directory(snapshot_store: Optional[str]) -> str:
    """Where publications go: ``snapshot_store``, else ``/dev/shm`` when it
    is a writable directory, else the platform temp directory."""
    if snapshot_store is not None:
        return snapshot_store
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK):
        return "/dev/shm"
    import tempfile

    return tempfile.gettempdir()


# ----------------------------------------------------------------- descriptors


@dataclass(frozen=True)
class SnapshotDescriptor:
    """What a worker needs to load a published payload.

    ``path`` names a :mod:`repro.signed.store` file the worker
    ``numpy.memmap``\\ s read-only.  The ``publish_id`` is unique per
    publication, which is what worker-side caches key on — a republished
    (mutated) payload always gets a fresh id.
    """

    publish_id: int
    path: str


# ------------------------------------------------------------------ worker side

#: Worker-process cache: publish_id -> loaded payload.
_WORKER_PAYLOADS: "OrderedDict[int, object]" = OrderedDict()


def _init_worker() -> None:
    """Pool initializer: keep workers quiet on Ctrl-C (the parent handles it)."""
    import signal

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _attach_payload(descriptor: SnapshotDescriptor):
    """Load (or fetch from cache) the payload behind ``descriptor``."""
    cached = _WORKER_PAYLOADS.get(descriptor.publish_id)
    if cached is not None:
        _WORKER_PAYLOADS.move_to_end(descriptor.publish_id)
        return cached
    # Map the store file read-only, skipping the node table: workers get
    # dense placeholder nodes and an empty index, since kernels touch only
    # the flat arrays.  The memmaps keep the file readable even after the
    # parent unlinks it on release (POSIX semantics).
    from repro.signed.store import load_snapshot

    payload = load_snapshot(descriptor.path, mmap=True, node_table=False)
    _WORKER_PAYLOADS[descriptor.publish_id] = payload
    while len(_WORKER_PAYLOADS) > _WORKER_CACHE_BOUND:
        _WORKER_PAYLOADS.popitem(last=False)
    return payload


def _run_chunk(task):
    """Worker entry point: attach the payload, run one kernel chunk; the
    results travel back pickled through ``Pool.map``."""
    descriptor, kernel_name, sources, params = task
    return KERNELS[kernel_name](_attach_payload(descriptor), sources, params)


# ------------------------------------------------------------------ parent side


class _Published:
    """Parent-side record of one published payload."""

    __slots__ = ("descriptor", "generation", "ref")

    def __init__(self, descriptor, generation, ref) -> None:
        self.descriptor = descriptor
        self.generation = generation
        self.ref = ref


class _PoolHandle:
    """One persistent worker pool plus its published-payload registry.

    Handles are shared per worker count across every
    :class:`ProcessPoolExecutor` bound to a policy with that count, so a
    relation, its oracle and its engine all ship each snapshot exactly once.
    """

    def __init__(self, workers: int) -> None:
        import multiprocessing as mp

        try:
            context = mp.get_context()
            self.pool = context.Pool(processes=workers, initializer=_init_worker)
        except (ImportError, OSError, ValueError) as error:
            raise ExecutorUnavailable(f"cannot start a worker pool: {error}") from error
        self.workers = workers
        self.closed = False
        self.published: Dict[int, _Published] = {}
        self.publish_order: deque = deque()
        #: id(payload) -> weakref of payloads whose shipment failed (e.g.
        #: an unwritable store directory); they run serially without re-warning.  The
        #: weakref guards against CPython id reuse: a *new* object at a
        #: recycled address must not inherit the failure.
        self.failed_payloads: Dict[int, Optional[weakref.ref]] = {}
        #: Publications created over this pool's lifetime (introspection).
        self.publications = 0

    def mark_failed(self, payload) -> None:
        """Remember that ``payload`` cannot be shipped (serial from now on)."""
        key = id(payload)
        try:
            ref: Optional[weakref.ref] = weakref.ref(
                payload, lambda _ref, key=key: self.failed_payloads.pop(key, None)
            )
        except TypeError:  # pragma: no cover - non-weakrefable payload type
            ref = None
        self.failed_payloads[key] = ref

    def is_failed(self, payload) -> bool:
        """True iff this very object (not a recycled id) failed to ship."""
        key = id(payload)
        if key not in self.failed_payloads:
            return False
        ref = self.failed_payloads[key]
        if ref is None:
            return True
        if ref() is payload:
            return True
        # Stale entry surviving a not-yet-fired callback: drop it.
        self.failed_payloads.pop(key, None)
        return False

    # ------------------------------------------------------------- publishing

    def publish(self, payload, directory: str) -> SnapshotDescriptor:
        """Publish ``payload`` into ``directory`` (reusing a live publication).

        A publication is reused only while the payload object is the same
        and its ``generation`` is unchanged — the fresh snapshot a churn
        batch produces republishes automatically.  ``directory`` only matters when a new file is
        written: executors sharing this pool reuse each other's files.
        """
        key = id(payload)
        generation = getattr(payload, "generation", None)
        entry = self.published.get(key)
        if entry is not None and entry.ref() is payload and entry.generation == generation:
            return entry.descriptor
        if entry is not None:
            self.release(key)
        try:
            descriptor = self._build(payload, directory)
        except ExecutorUnavailable:
            raise
        except Exception as error:
            raise ExecutorUnavailable(f"cannot ship payload to workers: {error}") from error
        self.published[key] = _Published(
            descriptor,
            generation,
            weakref.ref(payload, lambda _ref, key=key: self.release(key)),
        )
        # Invariant: publish_order holds each *live* key exactly once, oldest
        # publish first.  A republish (same object, new generation) moves its
        # key to the back instead of duplicating it, and keys whose
        # publication died (weakref callback) are dropped — so the bound below
        # counts live publications, never the one just created.
        if key in self.publish_order:
            self.publish_order.remove(key)
        self.publish_order.append(key)
        if len(self.publish_order) > len(self.published):
            self.publish_order = deque(
                k for k in self.publish_order if k in self.published
            )
        while len(self.publish_order) > _PUBLISH_BOUND:
            self.release(self.publish_order.popleft())
        return descriptor

    def _build(self, payload, directory: str) -> SnapshotDescriptor:
        publish_id = next(_PUBLISH_IDS)
        self.publications += 1
        from repro.signed.store import save_snapshot

        path = os.path.join(directory, f"snapshot-{os.getpid()}-{publish_id}.store")
        # The path joins the ledger before the file can exist, so even a
        # write that dies half-way (or a dispatch that dies before release)
        # cannot strand it past shutdown_pools().  Write failures surface as
        # ExecutorUnavailable through publish()'s wrapper → serial fallback.
        _STORE_FILE_LEDGER[path] = None
        try:
            save_snapshot(payload, path)
        except BaseException:
            _store_discard(path)
            raise
        return SnapshotDescriptor(publish_id=publish_id, path=path)

    def release(self, key: int) -> None:
        """Unlink one publication (workers keep their loaded copies working)."""
        entry = self.published.pop(key, None)
        if entry is not None:
            _store_discard(entry.descriptor.path)

    def release_all(self) -> None:
        """Unlink every publication (next dispatch republishes)."""
        for key in list(self.published):
            self.release(key)

    # --------------------------------------------------------------- shutdown

    def shutdown(self) -> None:
        """Terminate the pool and unlink every published file."""
        if self.closed:
            return
        self.closed = True
        self.release_all()
        try:
            self.pool.terminate()
            self.pool.join()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


_POOL_HANDLES: Dict[int, _PoolHandle] = {}


def _shared_pool_handle(workers: int) -> _PoolHandle:
    """The persistent pool of ``workers`` processes (created on first use)."""
    handle = _POOL_HANDLES.get(workers)
    if handle is None or handle.closed:
        handle = _PoolHandle(workers)
        _POOL_HANDLES[workers] = handle
    return handle


def shutdown_pools() -> None:
    """Terminate every pool and unlink all published files (atexit-safe).

    Besides the per-pool teardown, this flushes the parent-owned store-file
    ledger — the safety net for files whose dispatch never reached its own
    cleanup (a worker that died mid-``Pool.map``, an interrupt), so no stale
    ``snapshot-*`` files survive it.
    """
    for handle in list(_POOL_HANDLES.values()):
        handle.shutdown()
    _POOL_HANDLES.clear()
    _flush_store_ledger()


atexit.register(shutdown_pools)


class ProcessPoolExecutor(Executor):
    """Dispatch kernel batches over a persistent pool of worker processes.

    Bound to one :class:`~repro.exec.policy.ExecutionPolicy` (for worker
    count and snapshot directory); the underlying OS pool and the published
    snapshots are shared across executors with the same worker count.
    Batches under :data:`MIN_PARALLEL_SOURCES` sources run in-process.
    Every result list is bit-identical to
    :class:`~repro.exec.serial.SerialExecutor` on the same inputs — the pool
    only changes *where* the pure kernels run.
    """

    def __init__(self, policy: ExecutionPolicy) -> None:
        self._policy = policy
        self.workers = policy.resolved_workers()
        self._handle = _shared_pool_handle(self.workers)

    @property
    def closed(self) -> bool:
        """True once the underlying pool has been shut down."""
        return self._handle.closed

    def _degrade(self, stage: str, error: Exception) -> None:
        # The seen-set is module-level (not per executor): every freshly built
        # relation constructs its own executor, and a degraded host would
        # otherwise re-warn once per relation instead of once per process.
        if stage in _DEGRADE_WARNED:
            return
        _DEGRADE_WARNED.add(stage)
        warnings.warn(
            f"parallel execution degraded to serial ({stage}: {error})",
            RuntimeWarning,
            stacklevel=4,
        )

    def map_kernel(
        self,
        kernel: str,
        payload,
        sources: Sequence,
        params: Optional[dict] = None,
    ) -> List:
        source_list = list(sources)
        if not source_list:
            return []
        handle = self._handle
        if (
            handle.closed
            or len(source_list) < MIN_PARALLEL_SOURCES
            or handle.is_failed(payload)
        ):
            return serial_executor().map_kernel(kernel, payload, source_list, params)
        try:
            descriptor = handle.publish(
                payload, _publish_directory(self._policy.snapshot_store)
            )
        except ExecutorUnavailable as error:
            handle.mark_failed(payload)
            self._degrade("publish", error)
            return serial_executor().map_kernel(kernel, payload, source_list, params)
        try:
            return self._dispatch(descriptor, kernel, source_list, dict(params or {}))
        except ExecutorUnavailable as error:
            self._degrade("dispatch", error)
            return serial_executor().map_kernel(kernel, payload, source_list, params)

    def _dispatch(self, descriptor, kernel: str, sources: List, params: dict) -> List:
        """One ``Pool.map`` over index-ordered chunks; flat results in order.

        A pool that breaks mid-map (dead worker pipes) is shut down and
        reported as :class:`ExecutorUnavailable`, which the caller turns into
        the serial fallback.
        """
        # About four tasks per worker: stragglers even out without drowning
        # the batch in per-task IPC.
        chunk = math.ceil(len(sources) / (self.workers * 4))
        tasks = [
            (descriptor, kernel, sources[start : start + chunk], params)
            for start in range(0, len(sources), chunk)
        ]
        try:
            # Pool.map returns results in *task* order whatever the completion
            # order, so the concatenation below is deterministic by design.
            chunk_results = self._handle.pool.map(_run_chunk, tasks, chunksize=1)
        except (OSError, EOFError) as error:
            self._handle.shutdown()
            raise ExecutorUnavailable(f"worker pool broke: {error}") from error
        return [result for chunk_result in chunk_results for result in chunk_result]

    def invalidate(self) -> None:
        """Unlink every published snapshot (the next dispatch republishes)."""
        self._handle.release_all()

    def close(self) -> None:
        """Shut down the shared pool this executor dispatches to."""
        self._handle.shutdown()

    def __repr__(self) -> str:
        return f"ProcessPoolExecutor(workers={self.workers}, closed={self.closed})"
