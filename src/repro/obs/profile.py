"""Host-time self-profiling of the simulation kernel.

The span/critical-path layer explains where *simulated* cycles go;
this module explains where *host* (wall-clock) time goes while
producing them.  A :class:`ComponentProfiler` is fed by a timing shim
that a :class:`~repro.sim.engine.Simulator` built with a profiler
attached wraps around every callback it schedules: every executed event
is timed with ``time.perf_counter_ns`` and attributed to a
``(component, handler)`` pair derived from the callback itself —
``CacheController._accept``, ``MemoryModule._finish``, ``Processor
._resume``, ... — via a handler table built lazily per distinct
function (no ``sys.setprofile``, no sampling).

Accounting is exhaustive by construction: the profiler also measures
the wall time of each ``run()`` call, and everything not attributed to
a handler is the engine's ``dispatch`` share (queue scans, heap pops,
the shim itself, bookkeeping).  ``attributed_ns + dispatch_ns ==
total_ns`` exactly, so self-time shares always reconcile with the
measured total.

Attachment is by session so whole experiments can be profiled without
threading a profiler through every constructor: inside a
:func:`profiled` block, every :class:`~repro.sim.engine.Simulator`
(and therefore every machine an experiment builds) reports into the
session's profiler.

.. code-block:: python

    with profiled() as prof:
        run_table1()
    print(prof.render())

With no session active no shim is installed and the engine's one
event loop runs the callbacks directly — the disabled mode costs a few
``is None`` tests per ``run()`` call and nothing per event, checked by
``tests/obs/test_profile.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "ComponentProfiler",
    "handler_tag",
    "profiled",
    "active_profiler",
]


def handler_tag(fn: Callable) -> tuple[str, str]:
    """The ``(component, handler)`` attribution tag of a callback.

    Bound methods are tagged with their class (the component a callback
    belongs to); plain and nested functions fall back to their module's
    last segment.  This is a *naming* rule, not a registry: any callable
    the engine can schedule gets a stable tag.
    """
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        return type(owner).__name__, getattr(fn, "__name__", "?")
    qualname = (getattr(fn, "__qualname__", "")
                or getattr(fn, "__name__", "")
                or type(fn).__name__)
    module = getattr(fn, "__module__", "") or ""
    parts = qualname.split(".")
    name = parts[-1]
    if len(parts) >= 2 and parts[-2] != "<locals>":
        return parts[-2], name
    return module.rpartition(".")[2] or "module", name


class ComponentProfiler:
    """Aggregates per-``(component, handler)`` wall time and call counts.

    Fed by the engine's timing shim via :meth:`record`; one profiler
    may be shared by any number of simulators (an experiment that builds
    a machine per sweep point aggregates them all).  Not thread-safe —
    profiling is an in-process, serial activity by design.
    """

    def __init__(self) -> None:
        #: (component, handler) -> [calls, ns]
        self.kinds: dict[tuple[str, str], list[int]] = {}
        #: wall ns spent inside profiled ``run()`` calls (incl. dispatch)
        self.total_ns: int = 0
        #: events executed under observation
        self.events: int = 0
        #: profiled ``run()`` invocations
        self.runs: int = 0
        # Handler table: underlying function object -> tag.  Keyed on
        # ``__func__`` so rebound methods of one class share an entry.
        self._tags: dict[Any, tuple[str, str]] = {}

    # -- hot path (called once per executed event) ---------------------

    def record(self, fn: Callable, ns: int) -> None:
        """Attribute ``ns`` nanoseconds of handler self-time to ``fn``."""
        key = getattr(fn, "__func__", fn)
        tag = self._tags.get(key)
        if tag is None:
            tag = self._tags[key] = handler_tag(fn)
        cell = self.kinds.get(tag)
        if cell is None:
            cell = self.kinds[tag] = [0, 0]
        cell[0] += 1
        cell[1] += ns

    def finish_run(self, total_ns: int, events: int) -> None:
        """Close one profiled ``run()``: fold in its wall time."""
        self.total_ns += total_ns
        self.events += events
        self.runs += 1

    # -- derived views --------------------------------------------------

    @property
    def attributed_ns(self) -> int:
        """Wall ns attributed to handlers (sum of per-kind self-time)."""
        return sum(cell[1] for cell in self.kinds.values())

    @property
    def dispatch_ns(self) -> int:
        """Engine-loop residual: scans, pops, bookkeeping between events."""
        return max(self.total_ns - self.attributed_ns, 0)

    def snapshot(self) -> dict[str, Any]:
        """The profile as a JSON-able dict (the envelope's ``profile``).

        ``kinds`` is keyed ``"Component.handler"`` and ordered by
        descending self-time; each entry carries ``calls``, ``ns``, and
        ``share`` of the total measured wall time.  ``dispatch_ns`` is
        the engine residual, so shares (plus the dispatch share) sum
        to 1 whenever anything ran.
        """
        total = self.total_ns
        kinds = {}
        ordered = sorted(self.kinds.items(), key=lambda kv: -kv[1][1])
        for (component, handler), (calls, ns) in ordered:
            kinds[f"{component}.{handler}"] = {
                "calls": calls,
                "ns": ns,
                "share": round(ns / total, 6) if total else 0.0,
            }
        return {
            "total_ns": total,
            "attributed_ns": self.attributed_ns,
            "dispatch_ns": self.dispatch_ns,
            "events": self.events,
            "runs": self.runs,
            "kinds": kinds,
        }

    def render(self) -> str:
        """An aligned text table of every handler, hottest first, then
        the engine's dispatch residual (what ``--profile`` prints)."""
        total = self.total_ns
        rows = sorted(self.kinds.items(), key=lambda kv: -kv[1][1])
        lines = [
            f"host-time profile: {total / 1e6:.2f} ms over "
            f"{self.events:,} event(s), {self.runs} run(s)",
            f"{'component.handler':<40} {'calls':>10} {'ms':>10} "
            f"{'share':>7}",
        ]
        for (component, handler), (calls, ns) in rows:
            share = 100.0 * ns / total if total else 0.0
            lines.append(
                f"{component + '.' + handler:<40} {calls:>10,} "
                f"{ns / 1e6:>10.3f} {share:>6.1f}%"
            )
        dispatch = self.dispatch_ns
        share = 100.0 * dispatch / total if total else 0.0
        lines.append(
            f"{'engine.dispatch':<40} {self.events:>10,} "
            f"{dispatch / 1e6:>10.3f} {share:>6.1f}%"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Session attachment.
# ----------------------------------------------------------------------

_ACTIVE: Optional[ComponentProfiler] = None


def active_profiler() -> Optional[ComponentProfiler]:
    """The session profiler new simulators should report into, if any."""
    return _ACTIVE


@contextmanager
def profiled(
    profiler: Optional[ComponentProfiler] = None,
) -> Iterator[ComponentProfiler]:
    """Attach ``profiler`` (or a fresh one) to every simulator built
    inside the block.  Sessions nest; the previous one is restored on
    exit.  Worker processes do not inherit the session — profiled
    experiment runs are serial, in-process measurements by design (the
    CLI's ``--profile`` forces ``--jobs 1``).
    """
    global _ACTIVE
    prof = profiler if profiler is not None else ComponentProfiler()
    previous = _ACTIVE
    _ACTIVE = prof
    try:
        yield prof
    finally:
        _ACTIVE = previous
