"""Causal span graphs stitched from the event bus.

:class:`SpanBuilder` subscribes to a machine's
:class:`~repro.obs.events.EventBus` and assembles, for every processor
operation, a :class:`TxnSpanGraph`: a causal DAG of timed *spans* rooted
at the operation's ``atomic.start``.  Span kinds:

========== ==========================================================
kind        interval
========== ==========================================================
``root``    the instant the operation entered the controller
``msg``     a protocol message's flight, send to delivery (entry/exit
            port queuing included); component ``link.<src>-<dst>`` or
            ``bus.<node>`` for node-local hops
``queue``   waiting in a memory module's FIFO (component ``mem.<n>``)
``memory``  memory-module occupancy (directory + DRAM work)
``dirwait`` parked on a busy directory entry (component ``dir.<n>``);
            carries a *blocking edge* to the transaction that held the
            entry
``ctrl``    requester-side controller occupancy at completion
========== ==========================================================

Each span carries a ``parent`` link — the span whose completion at the
same location caused it — so every graph is a tree rooted at
``atomic.start`` plus cross-transaction blocking edges (directory-queue
waits and reservation kills name the transaction responsible).

**Critical path.**  ``TxnSpanGraph.critical_path()`` extracts the chain
of spans that advanced the transaction's completion frontier: spans are
scanned in end-time order and a span joins the path when it finishes
past every span seen before it, absorbing any unclaimed idle gap.
Because the final controller span ends exactly at ``atomic.complete``,
the path's cycles sum to the transaction's end-to-end latency
**cycle-for-cycle**, so the path is the transaction's latency
breakdown; :mod:`repro.obs.critpath` aggregates it per primitive ×
policy.

The builder never mutates machine state, and after
:meth:`SpanBuilder.detach` it is not subscribed at all, so a machine
with no other subscriber is back on its zero-event path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .events import Event, EventBus

__all__ = ["Span", "CritStep", "TxnSpanGraph", "SpanBuilder", "SPAN_KINDS"]

SPAN_KINDS = ("root", "msg", "queue", "memory", "dirwait", "ctrl")

_SPAN_EVENT_KINDS = (
    "atomic.start",
    "atomic.complete",
    "msg.send",
    "mem.service",
    "dir.queue.enter",
    "dir.queue.leave",
    "res.grant",
    "res.revoke",
)


@dataclass
class Span:
    """One timed interval in a transaction's causal graph.

    Attributes:
        index: Position in the graph's span list; parents always have a
            smaller index, which is what makes the graph trivially
            acyclic.
        kind: One of :data:`SPAN_KINDS`.
        t0: Cycle the span began.
        t1: Cycle the span ended (``>= t0``).
        component: The hardware resource occupied (``link.0-1``,
            ``bus.2``, ``mem.1``, ``dir.1``, ``ctrl.0``).
        parent: Index of the causally preceding span (-1 for the root).
        detail: Message type or other kind-specific annotation.
        blocked_on: Transaction id this span waited for (dirwait only).
    """

    index: int
    kind: str
    t0: int
    t1: int
    component: str
    parent: int
    detail: str = ""
    blocked_on: Optional[int] = None

    @property
    def cycles(self) -> int:
        """The span's own duration."""
        return self.t1 - self.t0

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form."""
        out: dict[str, Any] = {
            "index": self.index,
            "kind": self.kind,
            "t0": self.t0,
            "t1": self.t1,
            "component": self.component,
            "parent": self.parent,
        }
        if self.detail:
            out["detail"] = self.detail
        if self.blocked_on is not None:
            out["blocked_on"] = self.blocked_on
        return out


@dataclass(frozen=True)
class CritStep:
    """One hop on a transaction's critical path.

    ``cycles`` is the span's contribution to end-to-end latency: its
    advance past the previous frontier, including any idle gap folded in
    (``gap`` cycles of it were unclaimed by any span).
    """

    span: Span
    cycles: int
    gap: int


@dataclass
class TxnSpanGraph:
    """The causal DAG of one processor operation."""

    txn_id: int
    node: int
    op: str
    policy: Optional[str]
    block: Optional[int]
    start: int
    end: int = -1
    local: bool = False
    spans: list[Span] = field(default_factory=list)
    blockers: list[dict[str, Any]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.spans:
            self.spans.append(Span(0, "root", self.start, self.start,
                                   f"ctrl.{self.node}", -1, detail=self.op))
        self._last_at: dict[int, int] = {self.node: 0}
        self._critical: Optional[list[CritStep]] = None

    # -- construction (used by SpanBuilder) -----------------------------

    def add_span(
        self,
        kind: str,
        t0: int,
        t1: int,
        component: str,
        at: int,
        settles: Optional[int] = None,
        detail: str = "",
        blocked_on: Optional[int] = None,
    ) -> Span:
        """Append a span whose cause is the last span located at ``at``.

        ``settles`` is the node the span's effect lands on (where later
        spans may be caused by it); None leaves the location map alone.
        """
        span = Span(len(self.spans), kind, t0, t1, component,
                    self._last_at.get(at, 0), detail=detail,
                    blocked_on=blocked_on)
        self.spans.append(span)
        if settles is not None:
            self._last_at[settles] = span.index
        self._critical = None
        return span

    # -- queries --------------------------------------------------------

    @property
    def quiesce(self) -> int:
        """Cycle the transaction's protocol activity fully settled.

        Usually ``end`` (the result-delivery cycle), but a transaction
        can leave trailing traffic in flight — e.g. a delegated INVd CAS
        failure answers the requester directly while its FLUSH_NAK is
        still travelling home — and that flight is part of the
        transaction's latency.
        """
        return max(self.end,
                   max((s.t1 for s in self.spans), default=self.start))

    @property
    def duration(self) -> int:
        """End-to-end cycles: start to quiescence (0 while still open).

        :attr:`response_cycles` is the (usually equal)
        start-to-result-delivery time.
        """
        return max(0, self.quiesce - self.start)

    @property
    def response_cycles(self) -> int:
        """Cycles until the result reached the processor."""
        return max(0, self.end - self.start)

    def critical_path(self) -> list[CritStep]:
        """The serialized chain of spans behind the end-to-end latency.

        Spans are scanned in end-time order; one joins the path when it
        ends past the current frontier, contributing ``t1 - frontier``
        cycles (idle gaps fold into the span that ends them).  The
        contributions sum exactly to :attr:`duration`.
        """
        if self._critical is None:
            steps: list[CritStep] = []
            cursor = self.start
            for span in sorted(self.spans, key=lambda s: (s.t1, s.index)):
                if span.t1 > cursor:
                    steps.append(CritStep(span, span.t1 - cursor,
                                          max(0, span.t0 - cursor)))
                    cursor = span.t1
            self._critical = steps
        return self._critical

    def critical_cycles(self) -> int:
        """Total cycles along the critical path (== duration)."""
        return sum(step.cycles for step in self.critical_path())

    def path_by_kind(self) -> dict[str, int]:
        """Critical-path cycles per span kind."""
        out: dict[str, int] = {}
        for step in self.critical_path():
            out[step.span.kind] = out.get(step.span.kind, 0) + step.cycles
        return out

    def path_by_component(self) -> dict[str, int]:
        """Critical-path cycles per hardware component."""
        out: dict[str, int] = {}
        for step in self.critical_path():
            out[step.span.component] = (
                out.get(step.span.component, 0) + step.cycles
            )
        return out

    def check(self) -> list[str]:
        """Structural violations (empty list == graph is well formed).

        Checks: rooted at ``atomic.start``; acyclic (every parent index
        precedes its child); spans inside the transaction window; the
        critical path reproduces the end-to-end latency exactly.
        """
        problems = []
        if not self.spans or self.spans[0].kind != "root":
            problems.append("graph is not rooted at atomic.start")
        for span in self.spans:
            if span.index > 0 and not -1 < span.parent < span.index:
                problems.append(f"span {span.index} parent {span.parent} "
                                "does not precede it")
            if span.t1 < span.t0:
                problems.append(f"span {span.index} ends before it starts")
            if span.t0 < self.start:
                problems.append(f"span {span.index} precedes atomic.start")
        if self.end >= 0 and self.critical_cycles() != self.duration:
            problems.append(
                f"critical path {self.critical_cycles()} != "
                f"end-to-end {self.duration}"
            )
        return problems

    def to_dict(self) -> dict[str, Any]:
        """JSON-able summary with the critical path expanded."""
        return {
            "txn_id": self.txn_id,
            "node": self.node,
            "op": self.op,
            "policy": self.policy,
            "block": self.block,
            "start": self.start,
            "end": self.end,
            "cycles": self.duration,
            "local": self.local,
            "spans": len(self.spans),
            "path": [
                {**step.span.to_dict(), "cycles": step.cycles,
                 "gap": step.gap}
                for step in self.critical_path()
            ],
            "blockers": list(self.blockers),
        }


class SpanBuilder:
    """EventBus subscriber that stitches events into span graphs.

    .. code-block:: python

        builder = SpanBuilder(machine.events)
        ...  # run programs
        for graph in builder.completed:
            assert not graph.check()
            print(graph.critical_path())
    """

    def __init__(self, bus: EventBus, limit: int = 100_000) -> None:
        self.bus = bus
        self.limit = limit
        self.completed: list[TxnSpanGraph] = []
        self.dropped = 0
        self.orphan_events = 0
        self.abandoned = 0
        self._open: dict[int, TxnSpanGraph] = {}
        self._dirwaits: dict[tuple, tuple[int, Optional[int]]] = {}
        self._pending_kills: dict[int, list[dict[str, Any]]] = {}
        self._next_id = 0
        self._token: Optional[int] = bus.subscribe(self._on_event,
                                                   kinds=_SPAN_EVENT_KINDS)

    def detach(self) -> None:
        """Stop building (idempotent); the bus pays nothing afterwards."""
        if self._token is not None:
            self.bus.unsubscribe(self._token)
            self._token = None

    # -- event plumbing -------------------------------------------------

    def _on_event(self, event: Event) -> None:
        kind = event.kind
        if kind == "atomic.start":
            self._on_start(event)
        elif kind == "atomic.complete":
            self._on_complete(event)
        elif kind == "msg.send":
            self._on_msg(event)
        elif kind == "mem.service":
            self._on_mem(event)
        elif kind == "dir.queue.enter":
            self._on_dir_enter(event)
        elif kind == "dir.queue.leave":
            self._on_dir_leave(event)
        elif kind == "res.revoke":
            self._on_revoke(event)
        # res.grant is an instant; it carries no latency to attribute.

    def _on_start(self, event: Event) -> None:
        stale = self._open.pop(event.node, None)
        if stale is not None:
            self.abandoned += 1
        graph = TxnSpanGraph(
            txn_id=self._next_id,
            node=event.node,
            op=event.data.get("op", "?"),
            policy=event.data.get("policy"),
            block=event.data.get("block"),
            start=event.ts,
        )
        self._next_id += 1
        for kill in self._pending_kills.pop(event.node, []):
            graph.blockers.append(kill)
        self._open[event.node] = graph

    def _graph_of(self, requester: Any) -> Optional[TxnSpanGraph]:
        graph = self._open.get(requester)
        if graph is None:
            self.orphan_events += 1
        return graph

    def _on_msg(self, event: Event) -> None:
        data = event.data
        if not data.get("has_txn"):
            return  # unsolicited traffic (WB/DROP); no transaction to pin
        graph = self._graph_of(data.get("requester"))
        if graph is None:
            return
        src, dst = data.get("src", -1), data.get("dst", -1)
        component = f"bus.{src}" if src == dst else f"link.{src}-{dst}"
        graph.add_span(
            "msg", event.ts, data.get("delivered", event.ts), component,
            at=src, settles=dst, detail=str(data.get("mtype", "?")),
        )

    def _on_mem(self, event: Event) -> None:
        data = event.data
        if not data.get("has_txn"):
            return
        graph = self._graph_of(data.get("requester"))
        if graph is None:
            return
        node = event.node
        arrival, start = data.get("arrival", event.ts), data.get("start")
        component = f"mem.{node}"
        detail = str(data.get("mtype", "?"))
        if start is not None and start > arrival:
            graph.add_span("queue", arrival, start, component,
                           at=node, settles=node, detail=detail)
        graph.add_span("memory", start if start is not None else arrival,
                       event.ts, component, at=node, settles=node,
                       detail=detail)

    def _on_dir_enter(self, event: Event) -> None:
        data = event.data
        holder = data.get("holder")
        holder_graph = self._open.get(holder) if holder is not None else None
        key = (event.node, data.get("block"), data.get("requester"))
        self._dirwaits[key] = (
            event.ts,
            holder_graph.txn_id if holder_graph is not None else None,
        )

    def _on_dir_leave(self, event: Event) -> None:
        data = event.data
        key = (event.node, data.get("block"), data.get("requester"))
        entered = self._dirwaits.pop(key, None)
        if entered is None:
            self.orphan_events += 1
            return
        graph = self._graph_of(data.get("requester"))
        if graph is None:
            return
        t0, holder_txn = entered
        graph.add_span("dirwait", t0, event.ts, f"dir.{event.node}",
                       at=event.node, settles=event.node,
                       detail=str(data.get("mtype", "?")),
                       blocked_on=holder_txn)
        if holder_txn is not None:
            graph.blockers.append(
                {"kind": "dirwait", "txn": holder_txn,
                 "cycles": event.ts - t0, "block": data.get("block")}
            )

    def _on_revoke(self, event: Event) -> None:
        by = event.data.get("by")
        if by is None:
            return  # self-inflicted (sc_consumed, spurious, eviction, ...)
        killer = self._open.get(by)
        note = {
            "kind": "res_kill",
            "txn": killer.txn_id if killer is not None else None,
            "reason": event.data.get("reason"),
            "block": event.data.get("block"),
            "ts": event.ts,
        }
        victim = self._open.get(event.node)
        if victim is not None:
            victim.blockers.append(note)
        else:
            # The reservation died between operations; blame lands on
            # the victim node's next operation (its store_conditional).
            self._pending_kills.setdefault(event.node, []).append(note)

    def _on_complete(self, event: Event) -> None:
        graph = self._open.pop(event.node, None)
        if graph is None:
            self.orphan_events += 1
            return
        graph.end = event.ts
        graph.local = bool(event.data.get("local"))
        op = event.data.get("op")
        if op:
            graph.op = op
        last_input = max((s.t1 for s in graph.spans), default=graph.start)
        graph.add_span("ctrl", min(last_input, event.ts), event.ts,
                       f"ctrl.{event.node}", at=event.node, detail=graph.op)
        if len(self.completed) >= self.limit:
            self.dropped += 1
            return
        self.completed.append(graph)

    # -- queries --------------------------------------------------------

    def remote(self) -> list[TxnSpanGraph]:
        """Completed graphs that left the node (have latency breakdowns)."""
        return [g for g in self.completed if not g.local]

    def check_all(self) -> list[str]:
        """Structural violations over every completed graph."""
        problems = []
        for graph in self.completed:
            for problem in graph.check():
                problems.append(f"txn {graph.txn_id} ({graph.op}): {problem}")
        return problems

    def __len__(self) -> int:
        return len(self.completed)
