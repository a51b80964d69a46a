"""The discrete-event simulation engine.

A :class:`Simulator` owns a monotonically increasing cycle counter and a
queue of pending events.  Components schedule callbacks with
:meth:`Simulator.schedule`; :meth:`Simulator.run` drains the queue in
timestamp order.  Ties are broken by insertion order, which makes every
simulation fully deterministic.

The queue is two structures (see ``docs/performance.md``):

* a **heap** (``heapq``) of ``(time, seq, fn, args)`` entries for every
  event due in a later cycle; ``seq`` is a global insertion counter, so
  entries of one cycle pop in insertion order;
* a **same-cycle FIFO** (a ``deque``) of ``(fn, args)`` entries for the
  events due in the current cycle (``schedule(0, ...)`` and
  ``at(now, ...)``).

One rule merges them: every heap entry due now was scheduled before the
clock reached this cycle, so before every FIFO entry, and once the clock
is here nothing else can join the heap at this cycle.  The drain
therefore runs the heap's entries for the cycle first, then the FIFO.
The machine fires one or two events per occupied cycle, several cycles
apart, so the heap pops straight to the next event instead of stepping
through empty cycles.  The engine knows nothing about multiprocessors;
the machine model in :mod:`repro.machine` is built entirely out of
scheduled callbacks.

:meth:`Simulator.schedule_priority` (negative sequence numbers, so its
entries run before every ordinary event of their cycle) has no caller in
the simulator.  It stays only because the benchmark's layer tracer
(``SCHEDULERS`` in ``benchmarks/e2e/tracer.py``) patches it by name;
once the tracer drops it, the engine can too.

One loop, :meth:`Simulator._drain`, executes every event, and
:meth:`Simulator.run` calls it once, with the ``max_events`` livelock
check as its event budget.  A host-time profiler
(:mod:`repro.obs.profile`) never touches the loop: a simulator built
while one is attached wraps each callback it schedules in a timing shim.
Profiled and plain runs therefore execute the same events in the same
order through the same code.
"""

from __future__ import annotations

import sys
from collections import deque
from heapq import heappop, heappush
from time import perf_counter_ns
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..obs.profile import active_profiler
from ..obs.registry import MetricsRegistry

__all__ = ["Simulator"]


class Simulator:
    """A deterministic discrete-event simulator with an integer clock."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._now: int = 0
        # Events due after the current cycle, ordered by (time, seq).
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        # Events due in the current cycle, in insertion order.
        self._fifo: deque[tuple[Callable[..., None], tuple]] = deque()
        self._seq: int = 0
        # Priority events count down from -1 so every priority entry
        # sorts before every ordinary entry at the same timestamp.
        self._pseq: int = -1
        self._running: bool = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events_processed = self.registry.counter("sim.events_processed")
        # A host-time profiler stays outside the event loop: it times
        # callbacks through a shim installed here.
        self._profiler = active_profiler()
        if self._profiler is not None:
            self._time_callbacks(self._profiler.record)

    @property
    def events_processed(self) -> int:
        """Total events executed (registry: ``sim.events_processed``)."""
        return self._events_processed.value

    @events_processed.setter
    def events_processed(self, value: int) -> None:
        self._events_processed.value = value

    @property
    def now(self) -> int:
        """Current simulation time, in cycles."""
        return self._now

    def schedule(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` ``delay`` cycles from now.

        ``delay`` must be non-negative; zero-delay events run after all
        events already scheduled for the current cycle.
        """
        if delay > 0:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (self._now + delay, seq, fn, args))
        elif delay == 0:
            self._fifo.append((fn, args))
        else:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")

    def at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        now = self._now
        if time > now:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._heap, (time, seq, fn, args))
        elif time == now:
            self._fifo.append((fn, args))
        else:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {now}"
            )

    def schedule_priority(
        self, delay: int, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` ``delay`` cycles from now, before every
        ordinary event of that cycle.

        No simulator code calls this.  It is kept only because the
        benchmark's layer tracer (``SCHEDULERS`` in
        ``benchmarks/e2e/tracer.py``) looks it up by name, through
        ``cls.__dict__``, and would fail without it.

        Priority entries carry negative, decreasing sequence numbers:
        at one timestamp they all sort before ordinary entries, and
        *among themselves* run in reverse scheduling order — callers
        must only use this for handlers that commute with each other.

        While the simulator is running, ``delay`` must be at least 1:
        a same-cycle priority event would have to cut in ahead of
        same-cycle events already queued, which the drain does not
        support.  Outside :meth:`run` a zero delay is allowed; the
        entry then runs before every ordinary event of the cycle.
        """
        if delay < 1 and (self._running or delay < 0):
            raise SimulationError(
                f"priority events must be strictly future (delay={delay}, "
                f"running={self._running})"
            )
        seq = self._pseq
        self._pseq = seq - 1
        heappush(self._heap, (self._now + delay, seq, fn, args))

    def _time_callbacks(self, record: Callable[[Callable, int], None]) -> None:
        """Wrap every callback this simulator schedules in a timing shim.

        The shim reports each callback's wall time to ``record``.  It is
        installed once, as instance attributes shadowing :meth:`schedule`,
        :meth:`at` and :meth:`schedule_priority`, so the dispatch loop
        runs timed and untimed callbacks alike and never tests for a
        profiler.
        """
        clock = perf_counter_ns

        def timed(fn: Callable[..., None], *args: Any) -> None:
            t0 = clock()
            fn(*args)
            record(fn, clock() - t0)

        def shim(method: Callable[..., None]) -> Callable[..., None]:
            def scheduler(when: int, fn: Callable[..., None], *args: Any) -> None:
                method(self, when, timed, fn, *args)
            return scheduler

        cls = type(self)
        for name in ("schedule", "at", "schedule_priority"):
            setattr(self, name, shim(getattr(cls, name)))

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: Stop (without executing) events after this cycle; the
                clock always advances to ``until``, even if the queue
                drains earlier.
            max_events: Safety valve; raise :class:`SimulationError` if more
                than this many events execute (deadlock/livelock detector
                for tests).

        Returns:
            The simulation time when the run stopped.
        """
        counter = self._events_processed
        first = counter.value
        budget = sys.maxsize if max_events is None else max_events + 1
        profiler = self._profiler
        if profiler is not None:
            run_t0 = perf_counter_ns()
        self._running = True
        try:
            if self._drain(until, budget) == budget:
                raise SimulationError(
                    f"exceeded max_events={max_events}; likely livelock"
                )
        finally:
            self._running = False
            if profiler is not None:
                profiler.finish_run(perf_counter_ns() - run_t0,
                                    counter.value - first)
        return self._now

    def _drain(self, until: Optional[int], budget: int) -> int:
        """Execute up to ``budget`` (>= 1) events; return how many ran.

        Fewer than ``budget`` run only when the queue empties or its
        next event lies after ``until``; the clock then advances to
        ``until``.  This is the engine's one event loop.
        """
        now = self._now
        stop = sys.maxsize if until is None else until
        if stop < now:
            # `until` is past: everything queued is due at `now` or later.
            return 0
        executed = 0
        # Hot-loop locals: every per-event attribute lookup hoisted once.
        heap = self._heap
        fifo = self._fifo
        popleft = fifo.popleft
        try:
            while True:
                if fifo:
                    # Heap entries due now predate every same-cycle entry.
                    if heap and heap[0][0] == now:
                        time, seq, fn, args = heappop(heap)
                    else:
                        fn, args = popleft()
                elif heap:
                    time, seq, fn, args = heappop(heap)
                    if time > stop:
                        heappush(heap, (time, seq, fn, args))
                        now = stop
                        break
                    self._now = now = time
                else:
                    if until is not None:
                        now = until
                    break
                fn(*args)
                executed += 1
                if executed == budget:
                    return executed
        finally:
            self._now = now
            # Deferred flush: exact at drain end (and on any exception)
            # without a per-event counter call.
            if executed:
                self._events_processed.inc(executed)
        return executed

    def pending(self) -> int:
        """Number of events currently queued."""
        return len(self._heap) + len(self._fifo)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now}, pending={self.pending()})"
