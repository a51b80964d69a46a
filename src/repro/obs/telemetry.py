"""Live run telemetry: deterministic heartbeats + host-resource tracking.

Long runs and sweeps are black boxes until they finish; this module
makes them observable *while they run* without perturbing them.  A
:class:`Heartbeat` attaches to a machine's simulator and fires every N
**executed events** — a cadence counted in simulation work, not wall
time, so the sequence of beats is a deterministic function of the run
(only the *measured values* on each beat vary with the host).  Each
beat publishes a ``run.progress`` event on the machine's
:class:`~repro.obs.events.EventBus` and/or serializes one JSONL record
carrying:

* ``sim_now`` / ``events`` / ``queue_depth`` — where the simulation is;
* ``events_per_second`` / ``wall_seconds`` — how fast the host is
  producing it (events/s over the window since the previous beat);
* ``rss_kib`` (``resource.getrusage``; kibibytes on Linux, bytes on
  macOS) and ``gc_counts`` / ``gc_collections`` — what it costs.

Determinism discipline, mirroring the spans layer: heartbeats never
schedule simulator events, never touch the metrics registry, and write
only to the telemetry stream — results stay bit-identical with
telemetry on or off, and the off path costs nothing (the engine fires
beats between the chunks its event loop runs in, so with no heartbeat
attached a ``run()`` is one chunk; gated at ≤2% by
``tests/obs/test_profile.py``).

Attachment mirrors :func:`repro.obs.profile.profiled`: inside a
:func:`telemetry_session` block every machine built wires a heartbeat
to the session's writer, so ``repro table1 --telemetry out.jsonl``
streams progress from machines constructed deep inside the runners.

:func:`telemetry_line` serializes each heartbeat record as one compact
JSON object per line, discriminated by its ``record`` field.
"""

from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator, Optional, TextIO

try:
    import resource
except ImportError:  # pragma: no cover - non-Unix hosts
    resource = None  # type: ignore[assignment]

__all__ = [
    "DEFAULT_EVERY",
    "Heartbeat",
    "TelemetryWriter",
    "host_sample",
    "telemetry_line",
    "telemetry_session",
    "active_session",
    "maybe_attach",
]

#: Default heartbeat cadence, in executed events.  Small enough that a
#: quick Table 1 panel beats several times, large enough that the
#: per-beat work (one getrusage + one JSON line) is noise.
DEFAULT_EVERY = 50_000


def host_sample() -> dict[str, Any]:
    """A point-in-time snapshot of this process's host resources.

    ``rss_kib`` is ``ru_maxrss`` — the peak (not current) resident set,
    in KiB on Linux and bytes on macOS; absent where :mod:`resource`
    is unavailable.  ``gc_counts`` are the three generation counters,
    ``gc_collections`` the total collections run so far.
    """
    sample: dict[str, Any] = {}
    if resource is not None:
        sample["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sample["gc_counts"] = list(gc.get_count())
    sample["gc_collections"] = sum(
        generation["collections"] for generation in gc.get_stats()
    )
    return sample


def telemetry_line(record: dict[str, Any]) -> str:
    """One telemetry record as a compact, sorted-key JSON line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class TelemetryWriter:
    """Writes telemetry records as JSONL, one line per record."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.lines = 0

    def write(self, record: dict[str, Any]) -> None:
        self.stream.write(telemetry_line(record) + "\n")
        self.stream.flush()
        self.lines += 1


class Heartbeat:
    """Periodic (by event count) run-progress emitter for one machine.

    Hooks :meth:`repro.sim.engine.Simulator.set_heartbeat`; each beat
    emits a ``run.progress`` event on the machine's bus and, when a
    ``writer`` is given, one JSONL record.  Detach with :meth:`detach`
    (idempotent) to stop the beats.
    """

    def __init__(
        self,
        machine: Any,
        every: int = DEFAULT_EVERY,
        writer: Optional[TelemetryWriter] = None,
    ) -> None:
        self.sim = machine.sim
        self.bus = getattr(machine, "events", None)
        self.writer = writer
        self.every = every
        self.beats = 0
        self._t0 = perf_counter()
        self._last_t = self._t0
        self._last_events = self.sim.events_processed
        self._attached = True
        self.sim.set_heartbeat(every, self._fire)

    def _fire(self, now: int, events: int, queue_depth: int) -> None:
        t = perf_counter()
        window_t = t - self._last_t
        window_events = events - self._last_events
        self._last_t = t
        self._last_events = events
        self.beats += 1
        eps = window_events / window_t if window_t > 0 else 0.0
        data = {
            "beat": self.beats,
            "events": events,
            "events_per_second": round(eps, 1),
            "queue_depth": queue_depth,
            "wall_seconds": round(t - self._t0, 6),
            **host_sample(),
        }
        if self.bus is not None:
            self.bus.emit("run.progress", ts=now, **data)
        if self.writer is not None:
            self.writer.write({"record": "run.progress", "sim_now": now,
                               **data})

    def detach(self) -> None:
        """Stop beating (idempotent)."""
        if self._attached:
            self.sim.clear_heartbeat()
            self._attached = False


# ----------------------------------------------------------------------
# Session attachment.
# ----------------------------------------------------------------------

@dataclass
class _Session:
    every: int
    writer: TelemetryWriter


_ACTIVE: Optional[_Session] = None


def active_session() -> Optional[_Session]:
    """The telemetry session new machines should attach to, if any."""
    return _ACTIVE


@contextmanager
def telemetry_session(
    every: int = DEFAULT_EVERY,
    stream: Optional[TextIO] = None,
    writer: Optional[TelemetryWriter] = None,
) -> Iterator[TelemetryWriter]:
    """Attach a heartbeat to every machine built inside the block.

    Records go to ``writer`` (or a fresh :class:`TelemetryWriter` on
    ``stream``, default stderr).  Sessions nest; the previous one is
    restored on exit.  As with profiling, worker processes do not
    inherit the session — the CLI's ``--telemetry`` forces serial,
    in-process execution.
    """
    global _ACTIVE
    out = writer if writer is not None else TelemetryWriter(stream)
    previous = _ACTIVE
    _ACTIVE = _Session(every=every, writer=out)
    try:
        yield out
    finally:
        _ACTIVE = previous


def maybe_attach(machine: Any) -> Optional[Heartbeat]:
    """Wire ``machine`` into the active telemetry session, if any.

    Called from ``Machine.__init__``; returns the attached
    :class:`Heartbeat` or None.  Costs one module-global read per
    machine construction when no session is active.
    """
    if _ACTIVE is None:
        return None
    return Heartbeat(machine, every=_ACTIVE.every, writer=_ACTIVE.writer)
