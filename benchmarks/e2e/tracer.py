"""Outside-in layer tracing: class-level timing shims on public boundaries.

The simulator is not modified.  While a :class:`Tracer` is installed, the
public boundary methods of each layer are replaced, on their classes, by
wrappers that open a span, call the original, and close the span:

* every callback handed to ``Simulator.schedule``/``at``/
  ``schedule_priority`` runs inside a span attributed by its owner's
  class (:data:`CALLBACK_LAYERS`);
* the synchronous boundary calls of :data:`BOUNDARIES` get spans.

A span stack turns durations into self time: a span's self time is its
duration minus the durations of the spans it directly contains.  Time in
a point that no span covers is ``other``.

The shims go onto the classes *before* any machine is built: the mesh
keeps the handler it is given at ``register``, and the home node keeps
its memory module's bound ``service``, so a shim installed later would
miss them.  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Any, Callable, Optional

from repro.cache.cache import Cache
from repro.coherence.controller import CacheController
from repro.coherence.home import HomeNode
from repro.machine.machine import Machine
from repro.memory.directory import Directory, DirectoryEntry
from repro.memory.module import MemoryModule
from repro.network.mesh import WormholeMesh
from repro.obs.latency import TxnBreakdown
from repro.obs.registry import Histogram
from repro.primitives.ops import CompareAndSwap, FetchAndPhi, StoreConditional
from repro.processor.magic import BarrierManager
from repro.processor.processor import Processor
from repro.sim.engine import Simulator
from repro.sim.process import Process

__all__ = ["LAYERS", "BOUNDARIES", "SCHEDULERS", "CALLBACK_LAYERS", "Tracer"]

#: Every layer a span can be charged to, plus ``other`` (uncovered time).
LAYERS = ("sim", "processor", "controller", "cache", "network", "home",
          "memory", "directory", "obs", "machine", "other")

#: Owner class of a scheduled callback -> its layer.
CALLBACK_LAYERS: dict[type, str] = {
    Process: "processor",
    Processor: "processor",
    BarrierManager: "processor",
    CacheController: "controller",
    HomeNode: "home",
    MemoryModule: "memory",
}

#: Synchronous boundary calls: (class, method, layer).
BOUNDARIES: tuple[tuple[type, str, str], ...] = (
    (Simulator, "run", "sim"),
    (CacheController, "execute", "controller"),
    (WormholeMesh, "send", "network"),
    (MemoryModule, "service", "memory"),
    (Directory, "entry", "directory"),
    (DirectoryEntry, "targets", "directory"),
    (Cache, "lookup", "cache"),
    (Cache, "install", "cache"),
    (Histogram, "observe", "obs"),
    (TxnBreakdown, "credit", "obs"),
    (Machine, "__init__", "machine"),
)

#: The engine's scheduling entry points, whose callbacks get spans.
SCHEDULERS: tuple[tuple[type, str], ...] = (
    (Simulator, "schedule"),
    (Simulator, "at"),
    (Simulator, "schedule_priority"),
)

_ATOMIC_OPS = (FetchAndPhi, CompareAndSwap, StoreConditional)
#: At most this many spans are kept for export.
SPAN_CAP = 200_000


class Tracer:
    """Per-layer self time and span export for one traced pass.

    ``full=False`` installs only the ``Machine.__init__`` shim, which is
    how the untraced passes measure set-up time: one span per build.
    """

    def __init__(self, full: bool = True) -> None:
        self.full = full
        self.self_ns: dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Summed duration of top-level spans (the time spans cover).
        self.covered_ns = 0
        #: One (config, ns) entry per ``Machine.__init__``.
        self.builds: list[tuple[Any, int]] = []
        self.atomic_attempts = 0
        #: Exported spans: (name, layer, start_ns, end_ns, id, parent, point).
        self.spans: list[tuple] = []
        self._recording: Optional[int] = None
        self._next_id = 1
        # One frame per open span: [child_ns, span_id].
        self._stack: list[list[int]] = []
        self._originals: list[tuple[type, str, Any]] = []
        self._callback_info: dict[Any, tuple[str, str]] = {}

    # -- installation --------------------------------------------------

    def install(self) -> "Tracer":
        """Put the shims on the classes (before any machine is built)."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        boundaries = BOUNDARIES if self.full else (
            (Machine, "__init__", "machine"),)
        for cls, name, layer in boundaries:
            self._patch(cls, name, self._boundary(cls, name, layer))
        if self.full:
            for cls, name in SCHEDULERS:
                self._patch(cls, name, self._scheduler(cls.__dict__[name]))
        return self

    def restore(self) -> None:
        """Put every original method back (idempotent)."""
        while self._originals:
            cls, name, original = self._originals.pop()
            setattr(cls, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.restore()

    def _patch(self, cls: type, name: str, shim: Callable) -> None:
        self._originals.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, shim)

    # -- points --------------------------------------------------------

    def begin_point(self, point_id: int, record: bool) -> None:
        """Attribute spans to ``point_id``; export them if ``record``."""
        self._recording = point_id if record else None

    # -- spans ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn: Callable, args: tuple,
              kwargs: dict) -> Any:
        stack = self._stack
        frame = [0, 0]
        parent = stack[-1][1] if stack else 0
        point = self._recording
        if point is not None and len(self.spans) < SPAN_CAP:
            frame[1] = self._next_id
            self._next_id += 1
        stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            duration = end - start
            self.self_ns[layer] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            else:
                self.covered_ns += duration
            if frame[1]:
                self.spans.append(
                    (name, layer, start, end, frame[1], parent, point))

    def _boundary(self, cls: type, name: str, layer: str) -> Callable:
        original = cls.__dict__[name]
        label = f"{cls.__name__}.{name}"
        span = self._span

        if cls is Machine:
            def build(machine: Any, config: Any, *args: Any, **kwargs: Any
                      ) -> Any:
                start = perf_counter_ns()
                try:
                    return span(layer, label, original,
                                (machine, config) + args, kwargs)
                finally:
                    self.builds.append((config, perf_counter_ns() - start))
            return build

        if cls is CacheController:
            def execute(ctrl: Any, op: Any, *args: Any, **kwargs: Any) -> Any:
                if isinstance(op, _ATOMIC_OPS):
                    self.atomic_attempts += 1
                return span(layer, label, original, (ctrl, op) + args, kwargs)
            return execute

        def shim(*args: Any, **kwargs: Any) -> Any:
            return span(layer, label, original, args, kwargs)
        return shim

    def _scheduler(self, original: Callable) -> Callable:
        call = self._call

        def schedule(sim: Any, when: int, fn: Callable, *args: Any) -> Any:
            return original(sim, when, call, fn, *args)
        return schedule

    def _call(self, fn: Callable, *args: Any) -> Any:
        """Run one scheduled callback inside a span of its owner's layer."""
        key = getattr(fn, "__func__", fn)
        info = self._callback_info.get(key)
        if info is None:
            owner = type(getattr(fn, "__self__", None))
            info = (CALLBACK_LAYERS.get(owner, "other"),
                    getattr(fn, "__qualname__", repr(fn)))
            self._callback_info[key] = info
        return self._span(info[0], info[1], fn, args, {})

    # -- export --------------------------------------------------------

    def write_chrome_trace(self, path: Any, labels: dict[int, str]) -> None:
        """Write the exported spans as a Chrome trace (``chrome://tracing``).

        Each event carries the span's id, its parent's id (0 = none) and
        the point it belongs to; ``labels`` maps point ids to labels.
        """
        t0 = self.spans[0][2] if self.spans else 0
        events = [
            {"name": name, "cat": layer, "ph": "X", "pid": 1, "tid": point,
             "ts": (start - t0) / 1000, "dur": (end - start) / 1000,
             "args": {"id": sid, "parent": parent, "point": point}}
            for name, layer, start, end, sid, parent, point in self.spans
        ]
        events += [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": pid,
             "args": {"name": label}}
            for pid, label in labels.items()
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out,
                      separators=(",", ":"))
