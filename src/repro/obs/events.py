"""The structured event bus.

A :class:`EventBus` hangs off the machine (``machine.events``) and fans
simulation events out to any number of subscribers.  Components emit:

==========================  ===========================================
kind                        meaning
==========================  ===========================================
``msg.send``                a protocol message was injected into the mesh
``msg.deliver``             ...and when it will arrive (same emission
                            instant; ``ts`` is the delivery cycle)
``cache.transition``        a cache line changed state
``dir.queue.enter``         a request queued on a busy directory entry
                            (``holder`` names the requester whose
                            transaction holds the entry busy)
``dir.queue.leave``         ...and was replayed when the entry freed
``mem.service``             a memory module serviced a request (``ts`` is
                            the service-end cycle; ``arrival``/``start``
                            bound the FIFO wait before service)
``res.grant``               an LL reservation was established
``res.revoke``              an LL reservation was killed (``by`` names
                            the requester whose transaction killed it,
                            when one did)
``atomic.start``            a processor operation entered the controller
``atomic.complete``         ...and completed (result delivered)
``sweep.start``             a parallel sweep began (total points, jobs)
``sweep.point``             one sweep point ran (its host telemetry,
                            or its error)
``sweep.done``              the sweep finished (total points)
``run.progress``            a telemetry heartbeat: host throughput,
                            queue depth, RSS, GC counts (see
                            :mod:`repro.obs.telemetry`)
``fault.inject``            one injected fault fired (site, node, and
                            site-specific fields; see
                            :mod:`repro.faults.plan`)
==========================  ===========================================

The ``sweep.*`` kinds are emitted by
:func:`repro.harness.parallel.run_sweep` on its own bus (not a
machine's); their ``ts`` is the completion ordinal, not a cycle.
``run.progress`` is emitted by :class:`repro.obs.telemetry.Heartbeat`
every N *executed events* — deterministic cadence, host-dependent
measurements.  It is the one kind whose data fields are not
reproducible across hosts.

Observability must not perturb the simulation: emission never schedules
simulator events or sends messages, and every emission site is guarded
by :attr:`EventBus.active` so a bus with no subscribers costs one
attribute check per site.  Subscribers must likewise never mutate
machine state.

:class:`EventRecorder` is the standard subscriber: it buffers events
(optionally filtered by kind/block) for the exporters in
:mod:`repro.obs.exporters`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

__all__ = ["Event", "EventBus", "EventRecorder", "EVENT_KINDS"]

EVENT_KINDS = (
    "msg.send",
    "msg.deliver",
    "cache.transition",
    "dir.queue.enter",
    "dir.queue.leave",
    "mem.service",
    "res.grant",
    "res.revoke",
    "atomic.start",
    "atomic.complete",
    "sweep.start",
    "sweep.point",
    "sweep.done",
    "run.progress",
    "fault.inject",
)


@dataclass(frozen=True)
class Event:
    """One structured simulation event.

    Attributes:
        kind: One of :data:`EVENT_KINDS`.
        ts: Simulation cycle the event is anchored to.
        node: Node the event happened at (-1 when machine-wide).
        data: Kind-specific fields (message type, block, states, ...).
    """

    kind: str
    ts: int
    node: int = -1
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def block(self) -> Optional[int]:
        """The block the event concerns, if any."""
        return self.data.get("block")


Subscriber = Callable[[Event], None]


class EventBus:
    """Multi-subscriber dispatch of :class:`Event` objects."""

    def __init__(self) -> None:
        self._subs: dict[int, tuple[Optional[frozenset[str]], Subscriber]] = {}
        self._next_token = 0
        self.emitted = 0
        #: True when at least one subscriber is attached.  Emission
        #: sites guard on this so an unobserved machine pays only a
        #: plain attribute read — no :class:`Event` is ever constructed.
        #: Maintained by :meth:`subscribe`/:meth:`unsubscribe`; treat as
        #: read-only.
        self.active: bool = False

    def subscribe(
        self, fn: Subscriber, kinds: Optional[Iterable[str]] = None
    ) -> int:
        """Attach ``fn``; returns a token for :meth:`unsubscribe`.

        ``kinds`` restricts delivery to those event kinds (None = all).
        """
        token = self._next_token
        self._next_token += 1
        self._subs[token] = (
            frozenset(kinds) if kinds is not None else None,
            fn,
        )
        self.active = True
        return token

    def unsubscribe(self, token: int) -> None:
        """Detach one subscriber; other subscribers are unaffected."""
        self._subs.pop(token, None)
        self.active = bool(self._subs)

    def emit(self, kind: str, ts: int, node: int = -1, **data: Any) -> None:
        """Dispatch one event to every interested subscriber."""
        if not self._subs:
            return
        event = Event(kind=kind, ts=ts, node=node, data=data)
        self.emitted += 1
        for kinds, fn in list(self._subs.values()):
            if kinds is None or kind in kinds:
                fn(event)


class EventRecorder:
    """Buffers bus events for later querying and export.

    .. code-block:: python

        recorder = EventRecorder(machine.events, blocks={block})
        ...  # run programs
        print(render_timeline(recorder.events))
        recorder.detach()
    """

    def __init__(
        self,
        bus: EventBus,
        kinds: Optional[Iterable[str]] = None,
        blocks: Optional[Iterable[int]] = None,
        limit: int = 1_000_000,
    ) -> None:
        self.bus = bus
        self.blocks = set(blocks) if blocks is not None else None
        self.limit = limit
        self.events: list[Event] = []
        self.dropped = 0
        self._token: Optional[int] = bus.subscribe(self._on_event, kinds)

    def _on_event(self, event: Event) -> None:
        if self.blocks is not None and event.block not in self.blocks:
            return
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append(event)

    def detach(self) -> None:
        """Stop recording (idempotent; other subscribers keep running)."""
        if self._token is not None:
            self.bus.unsubscribe(self._token)
            self._token = None

    def of_kind(self, *kinds: str) -> list[Event]:
        """Recorded events of the given kinds."""
        return [e for e in self.events if e.kind in kinds]

    def __len__(self) -> int:
        return len(self.events)
