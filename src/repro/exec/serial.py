"""The serial executor: run kernels in-process, no pool, no copies.

This is the reference implementation of the executor contract — the pool
executor's results are asserted bit-identical to it.  It is also the executor
every serial policy (``workers <= 1``, the default) resolves to, so the
pre-execution-layer behaviour of the library is preserved exactly: same
kernels, same order, same results, no extra processes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.exec.kernels import KERNELS


class Executor:
    """The executor contract: run a named kernel over many sources.

    ``map_kernel`` returns one result per source, **in source order**,
    regardless of how the work was split or where it ran.  Implementations
    must be deterministic: the same (kernel, payload, sources, params) always
    produces the same result list.  *How* results travel is likewise an
    implementation detail: the pool executor returns the kernel's results
    pickled through ``Pool.map``, the serial executor never ships anything —
    callers see equal objects either way.
    """

    #: Number of OS processes doing kernel work (1 for serial).
    workers: int = 1

    def map_kernel(
        self,
        kernel: str,
        payload,
        sources: Sequence,
        params: Optional[dict] = None,
    ) -> List:
        """Run ``kernel`` over ``sources`` against ``payload``; results in order."""
        raise NotImplementedError

    def invalidate(self) -> None:
        """Drop any shipped payload state (no-op when nothing is shipped)."""

    def close(self) -> None:
        """Release executor resources (no-op for in-process executors)."""


class SerialExecutor(Executor):
    """Run every kernel batch in the calling process."""

    workers = 1

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
        return KERNELS[kernel](payload, source_list, dict(params or {}))

    def __repr__(self) -> str:
        return "SerialExecutor()"


_SERIAL: Optional[SerialExecutor] = None


def serial_executor() -> SerialExecutor:
    """The process-wide shared :class:`SerialExecutor` (it is stateless)."""
    global _SERIAL
    if _SERIAL is None:
        _SERIAL = SerialExecutor()
    return _SERIAL
