"""The discrete-event simulation engine.

A :class:`Simulator` owns a monotonically increasing cycle counter and a
queue of pending events.  Components schedule callbacks with
:meth:`Simulator.schedule`; :meth:`Simulator.run` drains the queue in
timestamp order.  Ties are broken by insertion order, which makes every
simulation fully deterministic.

The queue is a two-level structure tuned for the delays this machine
actually schedules (see ``docs/performance.md``):

* a **calendar front end** — a ring of ``_WINDOW`` per-cycle buckets
  covering ``[now, now + _WINDOW)``.  The small integer delays that
  dominate (cache hits, controller occupancy, memory service, mesh
  hops) land here with one ``list.append`` and drain with no
  comparisons at all;
* a **heap back end** (``heapq``) for the rare far-future events, e.g.
  deliveries delayed behind a long network-port backlog.

Both levels carry ``(time, seq, fn, args)`` entries, so events at the
same cycle replay in exact insertion order even when they straddle the
two levels.  The engine knows nothing about multiprocessors; the machine
model in :mod:`repro.machine` is built entirely out of scheduled
callbacks.

A second event class exists for the sharded runner
(:mod:`repro.harness.shardrun`): :meth:`Simulator.schedule_priority`
entries carry *negative* sequence numbers, so at any given timestamp
they execute before every ordinary event, regardless of when either was
scheduled.  Ordinary insertion order depends on execution history, which
differs between a whole-machine run and a per-region run; priority
events are the hook the sharded mesh uses to arbitrate boundary-crossing
arrivals in an order that does not.  The default path never calls it and
is unaffected.

One loop, :meth:`Simulator._drain`, executes every event, and
:meth:`Simulator.run` calls it in chunks.  A chunk ends early only where
the ``max_events`` livelock check or the next telemetry heartbeat falls
due; both are handled between chunks.  A host-time profiler
(:mod:`repro.obs.profile`) never touches the loop either: a simulator
built while one is attached wraps each callback it schedules in a timing
shim.  Observed and unobserved runs therefore execute the same events in
the same order through the same code.
"""

from __future__ import annotations

import heapq
import sys
from time import perf_counter_ns
from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..obs.profile import active_profiler
from ..obs.registry import MetricsRegistry

__all__ = ["Simulator"]

# Bucket entries are (time, seq, fn, args); within one bucket all times
# are equal, so ordering by seq alone is a total order.
def _entry_seq(entry: tuple) -> int:
    return entry[1]


class Simulator:
    """A deterministic discrete-event simulator with an integer clock."""

    #: Width (in cycles) of the calendar-queue window.  Power of two so
    #: the bucket index is a mask instead of a modulo.
    _WINDOW = 256
    _MASK = _WINDOW - 1

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._now: int = 0
        # Far-future events (delay >= _WINDOW): a classic binary heap.
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        # Near-future events: one bucket per cycle in [now, now+_WINDOW).
        # Invariant: all entries in one bucket share a single timestamp
        # (two distinct times in the window cannot collide mod _WINDOW).
        self._buckets: list[list[tuple[int, int, Callable[..., None], tuple]]]
        self._buckets = [[] for _ in range(self._WINDOW)]
        self._near: int = 0
        # No bucket entry has a timestamp earlier than _cursor.
        self._cursor: int = 0
        self._seq: int = 0
        # Priority events count down from -1 so every priority entry
        # sorts before every ordinary entry at the same timestamp.
        self._pseq: int = -1
        self._running: bool = False
        self.registry = registry if registry is not None else MetricsRegistry()
        self._events_processed = self.registry.counter("sim.events_processed")
        # Host-observability hooks, both outside the event loop: a
        # profiler times callbacks through a shim installed here, and
        # run() fires the heartbeat between drain chunks.
        self._profiler = active_profiler()
        if self._profiler is not None:
            self._time_callbacks(self._profiler.record)
        self._hb_every: int = 0
        self._hb_fire: Optional[Callable[[int, int, int], None]] = None
        # Value of the event counter at which the next beat fires.
        self._hb_due: int = 0

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
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        time = self._now + delay
        if delay < 256:
            self._buckets[time & 255].append((time, seq, fn, args))
            self._near += 1
        else:
            heapq.heappush(self._queue, (time, seq, fn, args))

    def at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        now = self._now
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {now}"
            )
        seq = self._seq
        self._seq = seq + 1
        if time - now < 256:
            self._buckets[time & 255].append((time, seq, fn, args))
            self._near += 1
        else:
            heapq.heappush(self._queue, (time, seq, fn, args))

    def schedule_priority(
        self, delay: int, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` ``delay`` cycles from now, before every
        ordinary event of that cycle.

        Priority entries carry negative, decreasing sequence numbers:
        at one timestamp they all sort before ordinary entries, and
        *among themselves* run in reverse scheduling order — callers
        must only use this for handlers that commute with each other
        (the sharded mesh's arrival/delivery drains do; they impose
        their own canonical order via per-node buffers).

        While the simulator is running, ``delay`` must be at least 1:
        a same-cycle priority event would have to cut into the bucket
        currently being drained, which the event loop does not support.
        """
        if delay < 1 and (self._running or delay < 0):
            raise SimulationError(
                f"priority events must be strictly future (delay={delay}, "
                f"running={self._running})"
            )
        seq = self._pseq
        self._pseq = seq - 1
        time = self._now + delay
        if delay < 256:
            bucket = self._buckets[time & 255]
            bucket.append((time, seq, fn, args))
            if len(bucket) > 1:
                # Keep priority-before-ordinary within the bucket (the
                # drain executes in list order).  Entries share one
                # timestamp and have unique seqs, so the tuple sort
                # never reaches the callables.
                bucket.sort(key=_entry_seq)
            self._near += 1
        else:
            heapq.heappush(self._queue, (time, seq, fn, args))

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest pending event, or ``None`` if idle.

        A between-runs probe for the conservative-window shard runner
        (it bounds how far every region may safely advance); O(window)
        per call, never used on the per-event path.
        """
        best: Optional[int] = None
        if self._near:
            for bucket in self._buckets:
                if bucket:
                    time = bucket[0][0]
                    if best is None or time < best:
                        best = time
        if self._queue:
            h_time = self._queue[0][0]
            if best is None or h_time < best:
                best = h_time
        return best

    def set_heartbeat(
        self, every: int, fire: Callable[[int, int, int], None]
    ) -> None:
        """Fire ``fire(now, events_total, queue_depth)`` every ``every``
        executed events.

        The cadence is counted in *events*, not wall time, so enabling a
        heartbeat never perturbs event ordering — the callback observes
        the simulation, it must not schedule into it.  The count
        persists across :meth:`run` calls, so a machine that runs in
        many short turns still beats at the configured period.
        """
        if every <= 0:
            raise SimulationError(
                f"heartbeat interval must be positive (got {every})"
            )
        self._hb_every = every
        self._hb_fire = fire
        self._hb_due = self._events_processed.value + every

    def clear_heartbeat(self) -> None:
        """Detach the heartbeat (idempotent)."""
        self._hb_every = 0
        self._hb_fire = None
        self._hb_due = 0

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

        Events execute through :meth:`_drain` in chunks that end where
        the livelock check or the next heartbeat falls due; a beat due
        on the event that trips the livelock check is not fired.
        """
        counter = self._events_processed
        first = counter.value
        # Cumulative event counts at which a chunk must end.
        trip = sys.maxsize if max_events is None else first + max_events + 1
        fire = self._hb_fire
        every = self._hb_every
        due = self._hb_due if fire is not None else sys.maxsize
        profiler = self._profiler
        if profiler is not None:
            run_t0 = perf_counter_ns()
        self._running = True
        try:
            while True:
                end = due if due < trip else trip
                budget = end - counter.value
                if self._drain(until, budget) < budget:
                    break
                if end == trip:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely livelock"
                    )
                due = end + every
                fire(self._now, end, self._near + len(self._queue))
        finally:
            self._running = False
            if fire is not None:
                # Skip a beat the livelock check pre-empted, so the next
                # run's first chunk is never empty.
                self._hb_due = due if due > counter.value else due + every
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
        executed = 0
        # Hot-loop locals: every per-event attribute lookup hoisted once.
        heap = self._queue
        buckets = self._buckets
        heappop = heapq.heappop
        stop = sys.maxsize if until is None else until
        now = self._now
        cursor = self._cursor
        if cursor < now:
            cursor = now
        try:
            while True:
                if self._near:
                    bucket = buckets[cursor & 255]
                    while not bucket:
                        cursor += 1
                        bucket = buckets[cursor & 255]
                    # All entries in this bucket share one timestamp
                    # (taken from the entry, not the cursor, so the
                    # invariant is load-bearing in exactly one place).
                    time = bucket[0][0]
                    if heap and heap[0][0] <= time:
                        h_time = heap[0][0]
                        if h_time < time or heap[0][1] < bucket[0][1]:
                            # A far-scheduled event comes first.
                            if h_time > stop:
                                if stop > now:
                                    now = stop
                                break
                            entry = heappop(heap)
                            self._now = now = entry[0]
                            # The scan above may have pushed the cursor
                            # past `now`; this callback can schedule near
                            # events anywhere in [now, now + _WINDOW), so
                            # the scan must restart from `now` or those
                            # buckets are never visited again.
                            cursor = now
                            entry[2](*entry[3])
                            executed += 1
                            if executed == budget:
                                return executed
                            continue
                    if time > stop:
                        if stop > now:
                            now = stop
                        break
                    self._now = now = time
                    if cursor < now:
                        cursor = now
                    # Drain the bucket by index: callbacks may append
                    # same-cycle events to this very list mid-drain, and
                    # a heap entry may tie this timestamp (seq decides;
                    # no new heap entry can gain this timestamp, since a
                    # same-cycle schedule always lands in the bucket).
                    # A chunk may end mid-bucket; the next one resumes
                    # at the first unexecuted entry.
                    i = 0
                    try:
                        if heap and heap[0][0] == time:
                            while i < len(bucket):
                                entry = bucket[i]
                                if (heap and heap[0][0] == time
                                        and heap[0][1] < entry[1]):
                                    far = heappop(heap)
                                    far[2](*far[3])
                                else:
                                    i += 1
                                    entry[2](*entry[3])
                                executed += 1
                                if executed == budget:
                                    return executed
                            while heap and heap[0][0] == time:
                                far = heappop(heap)
                                far[2](*far[3])
                                executed += 1
                                if executed == budget:
                                    return executed
                        else:
                            while i < len(bucket):
                                entry = bucket[i]
                                i += 1
                                entry[2](*entry[3])
                                executed += 1
                                if executed == budget:
                                    return executed
                    finally:
                        self._near -= i
                        del bucket[:i]
                elif heap:
                    time = heap[0][0]
                    if time > stop:
                        if stop > now:
                            now = stop
                        break
                    entry = heappop(heap)
                    self._now = now = time
                    cursor = now  # all buckets empty; restart scan here
                    entry[2](*entry[3])
                    executed += 1
                    if executed == budget:
                        return executed
                else:
                    if until is not None and now < until:
                        now = until
                    break
        finally:
            self._now = now
            # Events scheduled between chunks may land behind any scan
            # progress past `now`, so the cursor resumes from `now`
            # (rescanning a few empty buckets is cheap; missing a
            # bucket is not).
            self._cursor = now
            # Deferred flush: exact at chunk end (and on any exception)
            # without a per-event counter call.
            if executed:
                self._events_processed.inc(executed)
        return executed

    def pending(self) -> int:
        """Number of events currently queued."""
        return self._near + len(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now}, pending={self.pending()})"
