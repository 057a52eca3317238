"""``repro.exec`` — the execution-policy layer.

One :class:`ExecutionPolicy` object is the only way to configure how the
compatibility stack executes — cache budgets and the worker-pool dimension:
``workers >= 2`` dispatches per-source kernel batches (signed BFS, distance
sweeps, balanced-path searches) to a persistent process pool.  The pool
reads each CSR snapshot from one published, memory-mapped ``.store`` file
and returns every kernel's results through ``Pool.map``.
Serial and pooled execution are bit-identical; see the README's
"Execution policies" section and :mod:`repro.exec.pool` for the worker model.
"""

from repro.exec.kernels import KERNELS, register_kernel
from repro.exec.policy import CacheSize, ExecutionPolicy, executor_for, reset_executors
from repro.exec.pool import (
    ExecutorUnavailable,
    ProcessPoolExecutor,
    SnapshotDescriptor,
    shutdown_pools,
)
from repro.exec.serial import Executor, SerialExecutor, serial_executor

__all__ = [
    "CacheSize",
    "ExecutionPolicy",
    "Executor",
    "ExecutorUnavailable",
    "KERNELS",
    "ProcessPoolExecutor",
    "SerialExecutor",
    "SnapshotDescriptor",
    "executor_for",
    "register_kernel",
    "reset_executors",
    "serial_executor",
    "shutdown_pools",
]
