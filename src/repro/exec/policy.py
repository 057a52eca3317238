"""The :class:`ExecutionPolicy`: one object for the execution knobs.

The paper's relations and team algorithms depend on the graph alone; *how*
they execute — whether a worker pool runs the sweeps, and where it publishes
the snapshots its workers read — is one separate concern, and this module is
its only entrance.  The per-source kernels always run on the CSR snapshot
(:mod:`repro.signed.csr`), and every cache bound derives from the graph's size
(:func:`repro.utils.lru.scaled_cache_size`), so neither is a knob:

* :class:`ExecutionPolicy` — a frozen, hashable pair of worker-pool shape and
  the pool's snapshot directory, validated once at construction.  Every
  relation takes it as ``policy=`` (its only execution parameter); the
  relation's oracle and engine run under the relation's policy.
* :func:`executor_for` — policy in, executor out: a shared
  :class:`~repro.exec.serial.SerialExecutor` for serial policies, a
  process-pool executor (:mod:`repro.exec.pool`) for ``workers >= 2``, with a
  one-time-warning fallback to serial when pools cannot be created on the
  platform.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class ExecutionPolicy:
    """How per-source kernels are executed.

    Instances are immutable and hashable; derive variants with
    :func:`dataclasses.replace` (which re-runs the validation).

    Parameters
    ----------
    workers:
        ``0`` or ``1`` — serial execution (the default); ``>= 2`` — dispatch
        per-source kernel batches to a persistent pool of that many worker
        processes; ``-1`` — one worker per CPU.  Results are bit-identical to
        serial execution in every mode.
    snapshot_store:
        The existing directory the pool publishes snapshot files into (one
        ``.store`` file per CSR snapshot).  ``None`` (the default) picks ``/dev/shm`` when that is a
        writable directory and the platform temp directory otherwise; name
        a directory to keep huge snapshots out of ``/dev/shm``.  Results are
        bit-identical whatever the directory.
    """

    workers: int = 0
    snapshot_store: Optional[str] = None

    def __post_init__(self) -> None:
        validate_workers(self.workers)
        if self.snapshot_store is not None:
            validate_snapshot_store(self.snapshot_store)

    # ------------------------------------------------------------- resolution

    def resolved_workers(self) -> int:
        """The effective worker count (``-1`` resolves to the CPU count)."""
        if self.workers == -1:
            import os

            return max(1, os.cpu_count() or 1)
        return max(1, self.workers)

    @property
    def parallel(self) -> bool:
        """True iff this policy dispatches kernel batches to a worker pool."""
        return self.resolved_workers() > 1

    def executor(self):
        """The executor serving this policy (see :func:`executor_for`)."""
        return executor_for(self)


def _is_int(value) -> bool:
    """True for a plain ``int`` (``bool`` is rejected despite subclassing it)."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_workers(workers, name: str = "workers") -> None:
    """Raise :class:`ValueError` unless ``workers`` is a legal worker count.

    The single source of the rule and its message: :class:`ExecutionPolicy`
    construction (the experiment configs build theirs that way) and the
    CLI's parse-time validators both go through it, so a bad value dies with
    one explanation of what the knob means instead of an opaque
    ``ValueError`` surfacing from ``multiprocessing`` at first dispatch.
    """
    if not _is_int(workers) or workers < -1:
        raise ValueError(
            f"{name} must be -1 (one per CPU), 0 or 1 (serial), or >= 2 "
            f"(pool size); got {workers!r}"
        )


def validate_snapshot_store(snapshot_store, name: str = "snapshot_store") -> None:
    """Raise :class:`ValueError` unless ``snapshot_store`` names a usable directory.

    The directory must already exist (publishing must not silently create
    trees on mistyped paths) and be a directory — the same single-source
    rule-and-message discipline as :func:`validate_workers`, shared by
    policy construction and the CLI's ``--snapshot-store`` validators.
    """
    import os

    if not isinstance(snapshot_store, str) or not snapshot_store:
        raise ValueError(
            f"{name} must be the path of an existing directory to publish "
            f"snapshot files into; got {snapshot_store!r}"
        )
    if not os.path.isdir(snapshot_store):
        raise ValueError(
            f"{name} directory does not exist: {snapshot_store!r} (create it "
            "first; the pool will not create store directories implicitly)"
        )


# --------------------------------------------------------------------- lookup

#: Process-pool executors keyed by policy (each wraps a pool shared per
#: worker count); serial policies all share one stateless executor.
_EXECUTORS: Dict[ExecutionPolicy, object] = {}

#: Set after pool creation failed once: later pool policies degrade to serial
#: without retrying (and without re-warning).
_POOLS_UNAVAILABLE = False


def executor_for(policy: ExecutionPolicy):
    """Return the executor that serves ``policy``.

    Serial policies (``workers <= 1``) share one
    :class:`~repro.exec.serial.SerialExecutor`.  Pool policies get a
    :class:`~repro.exec.pool.ProcessPoolExecutor` bound to the policy (pools
    themselves are shared per worker count).  If the platform cannot start
    a pool, the policy degrades to the serial executor with a one-time
    :class:`RuntimeWarning`.
    """
    global _POOLS_UNAVAILABLE
    from repro.exec.serial import serial_executor

    if not policy.parallel or _POOLS_UNAVAILABLE:
        return serial_executor()
    executor = _EXECUTORS.get(policy)
    if executor is None or getattr(executor, "closed", False):
        from repro.exec.pool import ExecutorUnavailable, ProcessPoolExecutor

        try:
            executor = ProcessPoolExecutor(policy)
        except ExecutorUnavailable as error:
            _POOLS_UNAVAILABLE = True
            warnings.warn(
                f"process pools are unavailable on this platform ({error}); "
                "falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return serial_executor()
        _EXECUTORS[policy] = executor
    return executor


def reset_executors() -> None:
    """Close every pool and forget cached executors (tests, forked servers)."""
    global _POOLS_UNAVAILABLE
    from repro.exec import pool

    _EXECUTORS.clear()
    _POOLS_UNAVAILABLE = False
    pool._DEGRADE_WARNED.clear()
    pool.shutdown_pools()
