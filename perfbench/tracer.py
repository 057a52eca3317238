"""Time calls into the program's layers from outside the program.

The benchmark never edits ``src/``.  Instead it replaces selected public
functions and methods with thin wrappers at the places where callers look
them up: the defining module, every already-imported ``repro`` module that
bound the function with ``from ... import``, the kernel registry, the
defaults of other wrapped functions, and the class ``__dict__`` of every
subclass that defines a wrapped method.  Function-local imports read the
patched module attribute at call time, so they are covered too.

Two wrappers share that patching:

* :class:`Tracer` keeps a span stack.  A span's *self time* is its duration
  minus the time covered by its child spans; calls into a layer are counted
  only when the caller is outside that layer, so recursion and same-layer
  helpers do not inflate the counts.  Spans are kept in memory (up to a cap)
  and written as Chrome trace-event JSON at the end.
* :class:`Recorder` times individual calls of a few coarse entry points
  (one team query, one churn batch) and keeps their results, which is how
  the untraced runs measure per-query latency without the tracer's cost.

Tracing stops in forked children: pool workers inherit the wrappers but
record nothing, so worker kernel time shows up in the parent as the time the
dispatch span spent blocked (``exec.dispatch.self_s``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

_now_ns = time.perf_counter_ns

#: Modules whose bindings are rewritten when a module-level function is
#: wrapped.  The benchmark's own modules import the program inside functions,
#: after patching, so they need no rewriting.
_BINDING_PREFIXES = ("repro",)


@dataclass(frozen=True)
class Target:
    """One wrapped entry point.

    ``spec`` is ``"module:function"`` or ``"module:Class.method"``; a method
    target covers every subclass that overrides it.  ``work(args, kwargs)``
    returns how much work the call carries (sources, bytes) and
    ``on_result(result)`` inspects the return value; both are optional.
    """

    layer: str
    spec: str
    work: Optional[Callable] = None
    on_result: Optional[Callable] = None


def _subclasses(cls) -> List[type]:
    found, pending = [], [cls]
    while pending:
        current = pending.pop()
        if current in found:
            continue
        found.append(current)
        pending.extend(current.__subclasses__())
    return found


class Patcher:
    """Replace functions with wrappers where callers look them up; undo later."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []
        #: id(original function) -> wrapper, for rewriting defaults.
        self._wrapped: Dict[int, Callable] = {}
        self.missing: List[str] = []

    def patch(self, spec: str, make_wrapper: Callable[[Callable, str], Callable]) -> int:
        """Wrap the entry point named by ``spec``; returns the places patched.

        A spec whose module or attribute no longer exists is recorded in
        :attr:`missing` and skipped, so the benchmark keeps running when the
        program drops a code path.
        """
        module_name, _, qualname = spec.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(spec)
            return 0
        owner_name, _, attribute = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type):
                self.missing.append(spec)
                return 0
            return self._patch_method(owner, attribute, spec, make_wrapper)
        original = getattr(module, attribute, None)
        if not callable(original):
            self.missing.append(spec)
            return 0
        return self._patch_function(original, spec, make_wrapper)

    def _patch_method(self, cls, attribute, spec, make_wrapper) -> int:
        patched = 0
        for klass in _subclasses(cls):
            raw = klass.__dict__.get(attribute)
            if raw is None:
                continue
            name = f"{klass.__name__}.{attribute}"
            if isinstance(raw, (classmethod, staticmethod)):
                replacement = type(raw)(make_wrapper(raw.__func__, name))
            elif callable(raw):
                replacement = make_wrapper(raw, name)
                self._wrapped[id(raw)] = replacement
            else:
                continue
            setattr(klass, attribute, replacement)
            self._undo.append(functools.partial(setattr, klass, attribute, raw))
            patched += 1
        if not patched:
            self.missing.append(spec)
        return patched

    def _patch_function(self, original, spec, make_wrapper) -> int:
        wrapper = make_wrapper(original, spec.partition(":")[2])
        self._wrapped[id(original)] = wrapper
        patched = 0
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(_BINDING_PREFIXES):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(functools.partial(namespace.__setitem__, key, value))
                    patched += 1
        registry = getattr(sys.modules.get("repro.exec.kernels"), "KERNELS", None)
        if isinstance(registry, dict):
            for key, value in list(registry.items()):
                if value is original:
                    registry[key] = wrapper
                    self._undo.append(functools.partial(registry.__setitem__, key, value))
                    patched += 1
        return patched

    def rewrite_defaults(self) -> None:
        """Point default arguments (``cost_function=diameter_cost``) at wrappers."""
        for wrapper in list(self._wrapped.values()):
            original = getattr(wrapper, "__wrapped__", None)
            if original is None:
                continue
            defaults = getattr(original, "__defaults__", None)
            if defaults and any(id(value) in self._wrapped for value in defaults):
                original.__defaults__ = tuple(
                    self._wrapped.get(id(value), value) for value in defaults
                )
                self._undo.append(functools.partial(setattr, original, "__defaults__", defaults))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            self._undo.pop()()
        self._wrapped.clear()


class Tracer:
    """Span stack, per-layer self time and call counts, Chrome trace events."""

    def __init__(self, max_events: int = 200_000) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``<family>.work`` totals from each target's ``work`` hook (kernel
        #: sources, ingested bytes) plus counters set by ``on_result`` hooks.
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._events: List[tuple] = []
        self._max_events = max_events
        self.dropped_events = 0
        self.active = False
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._forked)
        self._origin = _now_ns()
        self._window_ns = 0
        self._window_start = 0

    def _forked(self) -> None:
        # A pool worker: its spans would never reach the parent's report.
        self.active = False
        self._stack.clear()

    def start(self) -> None:
        """Open the measurement window; spans are recorded until :meth:`stop`."""
        self.active = True
        self._window_start = _now_ns()

    def stop(self) -> None:
        """Close the window; its length is the traced wall time."""
        if self.active:
            self._window_ns += _now_ns() - self._window_start
            self.active = False

    def wrapper_for(self, target: Target) -> Callable[[Callable, str], Callable]:
        """A ``make_wrapper`` for :meth:`Patcher.patch` recording ``target``'s layer."""
        layer = target.layer
        family = layer.partition(".")[0]
        work = target.work
        on_result = target.on_result
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        counters = self.counters
        events = self._events

        def make(original: Callable, name: str) -> Callable:
            @functools.wraps(original)
            def traced(*args, **kwargs):
                if not self.active:
                    return original(*args, **kwargs)
                parent = stack[-1] if stack else None
                if parent is None or parent[0] != layer:
                    calls[layer] += 1
                    if work is not None and (parent is None or parent[3] != family):
                        counters[f"{family}.work"] += work(args, kwargs)
                frame = [layer, _now_ns(), 0, family]
                stack.append(frame)
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = _now_ns()
                    stack.pop()
                    duration = end - frame[1]
                    self_ns[layer] += duration - frame[2]
                    if stack:
                        stack[-1][2] += duration
                    if len(events) < self._max_events:
                        events.append((name, layer, frame[1], duration))
                    else:
                        self.dropped_events += 1
                if on_result is not None:
                    on_result(self, result)
                return result

            return traced

        return make

    @property
    def window_s(self) -> float:
        """Traced wall time in seconds (closed windows only)."""
        return self._window_ns / 1e9

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Write the kept spans as Chrome trace-event JSON (``ph: "X"`` events)."""
        trace_events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": (start - self._origin) / 1000.0,
                "dur": duration / 1000.0,
                "pid": self._pid,
                "tid": 1,
            }
            for name, layer, start, duration in self._events
        ]
        document = {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_events=self.dropped_events),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


class Recorder:
    """Per-call latency and result of a few coarse entry points, untraced."""

    def __init__(self) -> None:
        #: label -> list of (seconds, args, result)
        self.calls: Dict[str, List[tuple]] = defaultdict(list)

    def wrapper_for(self, label: str) -> Callable[[Callable, str], Callable]:
        """A ``make_wrapper`` that appends ``(seconds, args, result)`` per call."""
        records = self.calls[label]

        def make(original: Callable, _name: str) -> Callable:
            @functools.wraps(original)
            def timed(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                records.append((time.perf_counter() - start, args, result))
                return result

            return timed

        return make

    def seconds(self, label: str) -> List[float]:
        """Latencies of every recorded call of ``label``, in call order."""
        return [record[0] for record in self.calls[label]]
