"""Shard-aware observability: collection, stitching, sync metrics.

A sharded run (:mod:`repro.harness.shardrun`) executes on several
machines — one per mesh region, possibly in forked worker processes —
so none of the single-machine observers (:class:`~repro.obs.spans
.SpanBuilder`, :class:`~repro.obs.profile.ComponentProfiler`,
:class:`~repro.obs.telemetry.Heartbeat`) can see a whole transaction.
This module closes the gap in three pieces:

**Collection** (worker side).  :class:`ShardSpanCollector` subscribes to
one region's :class:`~repro.obs.events.EventBus` and buffers span-
relevant events as primitive picklable tuples; the region mesh's
``span_log`` hook contributes one tuple per transaction-carrying
message, recorded at the *destination* exit port where the delivery
cycle is known (cross-region messages included — the boundary tuples
carry a ``has_txn`` flag and are re-armed with a sentinel foreign
transaction on :meth:`~repro.network.shardmesh.ShardedWormholeMesh
.inject`).  :class:`BeatBuffer` likewise buffers telemetry heartbeats
for shipping at finish.

**Stitching** (coordinator side).  :func:`stitch_graphs` merges every
region's record lists into global :class:`~repro.obs.spans.TxnSpanGraph`
objects.  It is a *pure function of the record multiset*: records are
re-sorted into one canonical order (anchor cycle, then kind, then
field values), transactions get canonical ids by global start time, and
every record is assigned to the transaction whose ``[start, end]``
window covers its anchor at the node that caused it.  Because the
underlying simulation is bit-identical at every shard count, the record
multiset — and therefore the stitched graphs and their critical-path
blame — is too.  That is the invariant the CI determinism job diffs:
the stitched critical path of a 4-shard run equals the serial (1-shard)
run's cycle-for-cycle.

**Sync metrics** (coordinator side).  :func:`ShardObsOptions` is the
picklable flag set carried into workers; the coordinator itself builds
the ``shard`` envelope section (windows, lookahead utilization, busy /
blocked wall per shard, cross-region traffic matrix, queue depths) in
:func:`repro.harness.shardrun.run_shard` — see docs/observability.md.

Everything here is inert unless explicitly enabled: no subscription, no
``span_log`` hook, no heartbeat, and no profiler timing shim on the
workers' simulators.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Optional

from .critpath import CritPathAggregator
from .events import Event, EventBus
from .spans import TxnSpanGraph

__all__ = [
    "ShardObsOptions",
    "ShardSpanCollector",
    "BeatBuffer",
    "stitch_graphs",
    "stitched_critpath",
]

#: Event kinds a region collector buffers (the SpanBuilder set minus
#: ``msg.send``/``res.grant``: message spans come from the mesh's
#: ``span_log`` hook so cross-region flights are seen at the exit port,
#: and grants are instants that never carry latency).
_COLLECT_KINDS = (
    "atomic.start",
    "atomic.complete",
    "mem.service",
    "dir.queue.enter",
    "dir.queue.leave",
    "res.revoke",
)

_INF = float("inf")


@dataclass(frozen=True)
class ShardObsOptions:
    """What to observe inside each region worker.

    Frozen and primitive-only so it pickles across the ``process``
    backend's fork boundary unchanged.

    Attributes:
        spans: Collect span records for cross-shard stitching.
        profile: Attach a :class:`~repro.obs.profile.ComponentProfiler`
            to each worker's simulator (merged at the coordinator).
        telemetry_every: Heartbeat period in executed events per worker
            (0 disables; beats are buffered and shipped at finish).
    """

    spans: bool = False
    profile: bool = False
    telemetry_every: int = 0

    @property
    def enabled(self) -> bool:
        """True when any observation is requested."""
        return self.spans or self.profile or self.telemetry_every > 0


class BeatBuffer:
    """A telemetry writer that buffers records instead of streaming.

    Workers cannot stream JSONL to the coordinator's sink mid-window;
    they buffer :class:`~repro.obs.telemetry.Heartbeat` records here and
    ship the list with their finish payload.
    """

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.lines = 0

    def write(self, record: dict[str, Any]) -> None:
        self.records.append(record)
        self.lines += 1


class ShardSpanCollector:
    """Buffers one region's span-relevant events as picklable tuples.

    Unlike :class:`~repro.obs.spans.SpanBuilder` it does **no**
    transaction bookkeeping — that cannot be done per-region, because a
    message's requester usually lives in another region.  It only
    translates events into flat record tuples for :func:`stitch_graphs`;
    the mesh's ``span_log`` hook appends ``msg`` records to the same
    list.
    """

    def __init__(self, bus: EventBus) -> None:
        self.bus = bus
        self.records: list[tuple] = []
        self._token: Optional[int] = bus.subscribe(self._on_event,
                                                   kinds=_COLLECT_KINDS)

    def detach(self) -> None:
        """Unsubscribe (idempotent); the bus pays zero cost afterwards."""
        if self._token is not None:
            self.bus.unsubscribe(self._token)
            self._token = None

    def _on_event(self, event: Event) -> None:
        kind = event.kind
        data = event.data
        records = self.records
        if kind == "mem.service":
            if not data.get("has_txn") or data.get("requester") is None:
                return  # unsolicited WB/DROP; no transaction to pin
            records.append(("mem", data.get("arrival", event.ts),
                            data.get("start"), event.ts, event.node,
                            str(data.get("mtype", "?")),
                            data.get("requester")))
        elif kind == "atomic.start":
            records.append(("start", event.ts, event.node,
                            data.get("op", "?"), data.get("policy"),
                            data.get("block")))
        elif kind == "atomic.complete":
            records.append(("complete", event.ts, event.node,
                            data.get("op"), 1 if data.get("local") else 0))
        elif kind == "dir.queue.enter":
            records.append(("dir.enter", event.ts, event.node,
                            data.get("block"), data.get("requester"),
                            data.get("holder")))
        elif kind == "dir.queue.leave":
            records.append(("dir.leave", event.ts, event.node,
                            data.get("block"), data.get("requester"),
                            str(data.get("mtype", "?"))))
        elif kind == "res.revoke":
            by = data.get("by")
            if by is None:
                return  # self-inflicted; SpanBuilder skips these too
            records.append(("revoke", event.ts, event.node, by,
                            data.get("reason"), data.get("block")))


# ----------------------------------------------------------------------
# Stitching.
# ----------------------------------------------------------------------

# Canonical processing order for records sharing an anchor cycle.  Any
# fixed order works — it only has to be the same for every shard count.
_RANK = {"msg": 0, "mem": 1, "dirwait": 2, "revoke": 3}


def _key_int(value: Any) -> int:
    """None-safe sort component (None sorts first)."""
    return -1 if value is None else value


class _TxnWindows:
    """Per-node transaction windows with point-in-time lookup."""

    def __init__(self) -> None:
        # node -> sorted list of (start_ts, txn_index)
        self._starts: dict[int, list[tuple[int, int]]] = {}
        self._ends: list[float] = []

    def add(self, node: int, start: int, end: float) -> int:
        index = len(self._ends)
        self._starts.setdefault(node, []).append((start, index))
        self._ends.append(end)
        return index

    def open_at(self, node: Any, t: int) -> Optional[int]:
        """The txn index open at ``node`` when ``t`` happened, if any."""
        starts = self._starts.get(node)
        if not starts:
            return None
        i = bisect_right(starts, (t, len(self._ends))) - 1
        if i < 0:
            return None
        index = starts[i][1]
        if t > self._ends[index]:
            return None  # between transactions: an orphan record
        return index

    def next_after(self, node: Any, t: int) -> Optional[int]:
        """The first txn at ``node`` starting strictly after ``t``."""
        starts = self._starts.get(node)
        if not starts:
            return None
        i = bisect_right(starts, (t, len(self._ends)))
        return starts[i][1] if i < len(starts) else None


def stitch_graphs(
    record_lists: list[list[tuple]],
) -> tuple[list[TxnSpanGraph], dict[str, int]]:
    """Merge per-region span records into global transaction graphs.

    Returns ``(graphs, stats)`` where ``graphs`` holds one completed
    :class:`~repro.obs.spans.TxnSpanGraph` per finished transaction,
    ordered and numbered by global start time, and ``stats`` counts the
    raw material (records, transactions, orphans, abandoned starts).

    The output is a pure function of the *multiset* of records: how
    they were split across ``record_lists`` (i.e. across regions) and
    their order within each list are irrelevant.
    """
    starts: list[tuple] = []
    completes: dict[int, list[tuple]] = {}
    msgs: list[tuple] = []
    mems: list[tuple] = []
    enters: dict[tuple, list[tuple]] = {}
    leaves: dict[tuple, list[tuple]] = {}
    revokes: list[tuple] = []
    total = 0
    for records in record_lists:
        total += len(records)
        for rec in records:
            kind = rec[0]
            if kind == "msg":
                msgs.append(rec)
            elif kind == "mem":
                mems.append(rec)
            elif kind == "start":
                starts.append(rec)
            elif kind == "complete":
                completes.setdefault(rec[2], []).append(rec)
            elif kind == "dir.enter":
                enters.setdefault((rec[2], rec[3], rec[4]), []).append(rec)
            elif kind == "dir.leave":
                leaves.setdefault((rec[2], rec[3], rec[4]), []).append(rec)
            elif kind == "revoke":
                revokes.append(rec)

    orphans = 0
    abandoned = 0

    # 1. Pair starts with completes per node into transaction windows.
    #    A start with no complete before the node's next start was
    #    abandoned (SpanBuilder counts the same); it still absorbs the
    #    records emitted while it was the node's open transaction.
    txn_descs: list[tuple] = []  # (start, node, op, policy, block, crec)
    by_node: dict[int, list[tuple]] = {}
    for rec in sorted(starts, key=lambda r: (r[1], r[2])):
        by_node.setdefault(rec[2], []).append(rec)
    for node, node_starts in by_node.items():
        node_completes = sorted(completes.get(node, ()),
                                key=lambda r: r[1])
        j = 0
        for i, srec in enumerate(node_starts):
            nxt = node_starts[i + 1][1] if i + 1 < len(node_starts) else _INF
            while (j < len(node_completes)
                   and node_completes[j][1] <= srec[1]):
                j += 1  # a completion with no open start
                orphans += 1
            crec = None
            if j < len(node_completes) and node_completes[j][1] <= nxt:
                # Completions take >= 1 cycle, so one ending exactly at
                # the next start still belongs to *this* transaction.
                crec = node_completes[j]
                j += 1
            elif nxt is not _INF:
                abandoned += 1
            txn_descs.append((srec[1], node, srec[3], srec[4], srec[5],
                              crec))
        orphans += len(node_completes) - j

    # 2. Canonical transaction ids: global (start, node) order.
    txn_descs.sort(key=lambda d: (d[0], d[1]))
    windows = _TxnWindows()
    graphs: list[TxnSpanGraph] = []
    ends: list[Optional[tuple]] = []
    for txn_id, (start, node, op, policy, block, crec) in \
            enumerate(txn_descs):
        windows.add(node, start, crec[1] if crec is not None else _INF)
        graphs.append(TxnSpanGraph(txn_id=txn_id, node=node, op=op,
                                   policy=policy, block=block, start=start))
        ends.append(crec)

    # 3. Pair directory waits FIFO per (node, block, requester); an
    #    enter with no leave is a wait still parked at end of run.
    dirpairs: list[tuple] = []
    for key, key_enters in enters.items():
        key_leaves = sorted(leaves.get(key, ()), key=lambda r: r[1])
        key_enters = sorted(key_enters, key=lambda r: r[1])
        for erec, lrec in zip(key_enters, key_leaves):
            # (node, block, requester, enter_ts, leave_ts, mtype, holder)
            dirpairs.append((key[0], key[1], key[2], erec[1], lrec[1],
                             lrec[5], erec[5]))
        orphans += max(0, len(key_leaves) - len(key_enters))
    for key in leaves:
        if key not in enters:
            orphans += len(leaves[key])

    # 4. One canonical pass over all span-producing records.  The sort
    #    key starts with the record's anchor — the cycle the serial
    #    SpanBuilder would have processed it at — so span/parent order
    #    inside each graph matches event order up to same-cycle ties,
    #    which the rank + field tiebreak fixes deterministically.
    items: list[tuple] = []
    for rec in msgs:
        # ("msg", t0, t1, src, dst, mtype, requester): anchor = send.
        items.append((rec[1], _RANK["msg"],
                      (rec[3], rec[4], _key_int(rec[6]), rec[2], rec[5]),
                      rec))
    for rec in mems:
        # ("mem", arrival, start, end, node, mtype, requester):
        # anchor = arrival (the serial builder sees it at service call).
        items.append((rec[1], _RANK["mem"],
                      (rec[4], rec[6], _key_int(rec[2]), rec[3], rec[5]),
                      rec))
    for pair in dirpairs:
        items.append((pair[4], _RANK["dirwait"],
                      (pair[0], _key_int(pair[1]), _key_int(pair[2]),
                       pair[3], _key_int(pair[6])), pair))
    for rec in revokes:
        # ("revoke", ts, victim, by, reason, block)
        items.append((rec[1], _RANK["revoke"],
                      (rec[2], rec[3], str(rec[4]), _key_int(rec[5])),
                      rec))
    items.sort(key=lambda it: (it[0], it[1], it[2]))

    for _anchor, rank, _key, rec in items:
        if rank == 0:  # msg
            _kind, t0, t1, src, dst, mtype, requester = rec
            txn = windows.open_at(requester, t0)
            if txn is None:
                orphans += 1
                continue
            component = f"bus.{src}" if src == dst else f"link.{src}-{dst}"
            graphs[txn].add_span("msg", t0, t1, component, at=src,
                                 settles=dst, detail=mtype)
        elif rank == 1:  # mem
            _kind, arrival, svc_start, end, node, mtype, requester = rec
            txn = windows.open_at(requester, arrival)
            if txn is None:
                orphans += 1
                continue
            graph = graphs[txn]
            component = f"mem.{node}"
            if svc_start is not None and svc_start > arrival:
                graph.add_span("queue", arrival, svc_start, component,
                               at=node, settles=node, detail=mtype)
            graph.add_span("memory",
                           svc_start if svc_start is not None else arrival,
                           end, component, at=node, settles=node,
                           detail=mtype)
        elif rank == 2:  # dirwait
            node, block, requester, t0, t1, mtype, holder = rec
            txn = windows.open_at(requester, t1)
            holder_txn = (windows.open_at(holder, t0)
                          if holder is not None else None)
            if txn is None:
                orphans += 1
                continue
            graph = graphs[txn]
            graph.add_span("dirwait", t0, t1, f"dir.{node}", at=node,
                           settles=node, detail=mtype,
                           blocked_on=holder_txn)
            if holder_txn is not None:
                graph.blockers.append(
                    {"kind": "dirwait", "txn": holder_txn,
                     "cycles": t1 - t0, "block": block}
                )
        else:  # revoke
            _kind, ts, victim_node, by, reason, block = rec
            killer = windows.open_at(by, ts)
            note = {
                "kind": "res_kill",
                "txn": killer if killer is not None else None,
                "reason": reason,
                "block": block,
                "ts": ts,
            }
            victim = windows.open_at(victim_node, ts)
            if victim is None:
                # Reservation died between operations: blame the victim
                # node's next transaction, as SpanBuilder does.  Its
                # anchor precedes that transaction's own spans, so the
                # note lands first in the blockers list, same as the
                # serial pending-kill path.
                victim = windows.next_after(victim_node, ts)
            if victim is None:
                orphans += 1
                continue
            graphs[victim].blockers.append(note)

    # 5. Close completed graphs (ctrl span last, as the serial builder
    #    appends it at atomic.complete) and drop the still-open ones.
    completed: list[TxnSpanGraph] = []
    for graph, crec in zip(graphs, ends):
        if crec is None:
            continue
        graph.end = crec[1]
        graph.local = bool(crec[4])
        if crec[3]:
            graph.op = crec[3]
        last_input = max((s.t1 for s in graph.spans), default=graph.start)
        graph.add_span("ctrl", min(last_input, graph.end), graph.end,
                       f"ctrl.{graph.node}", at=graph.node,
                       detail=graph.op)
        completed.append(graph)

    stats = {
        "records": total,
        "txns": len(completed),
        "open": len(graphs) - len(completed) - abandoned,
        "abandoned": abandoned,
        "orphans": orphans,
    }
    return completed, stats


def stitched_critpath(
    record_lists: list[list[tuple]],
    worst: int = 8,
) -> tuple[dict[str, Any], list[TxnSpanGraph], dict[str, int]]:
    """Stitch and aggregate: the sharded run's critical-path blame.

    Returns ``(snapshot, graphs, stats)``; ``snapshot`` is the
    :class:`~repro.obs.critpath.CritPathAggregator` summary that lands
    in the envelope's top-level ``critpath`` section — byte-identical
    at every shard count, which the CI determinism job enforces.
    """
    graphs, stats = stitch_graphs(record_lists)
    aggregator = CritPathAggregator.from_graphs(graphs, worst=worst)
    return aggregator.snapshot(), graphs, stats
