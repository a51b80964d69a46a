"""The region-aware wormhole mesh used by the sharded runner.

One :class:`ShardedWormholeMesh` serves one region's worker: sends whose
destination lies inside the region are delivered locally; sends that
cross the region boundary are packed into an **outbox** of primitive
fields (the pooled ``__slots__`` :class:`~repro.network.message.Message`
objects never cross a process boundary) and injected into the
destination region's mesh at the next window exchange.

Timing model vs. the serial mesh
--------------------------------

Entry-port serialization and wormhole transit are computed at the
source, exactly as in :class:`~repro.network.mesh.WormholeMesh`.  The
*exit port*, however, is arbitrated at **tail arrival time** instead of
at send time: all messages arriving at a node in the same cycle claim
the port in ``(send_time, src, per-src send seq)`` order, via a per-node
arrival buffer drained by a priority event (see
:meth:`repro.sim.engine.Simulator.schedule_priority`).  Send-time
allocation would order the port by global event execution order, which
no decomposed run can reproduce; arrival-time allocation is a function
of message timing alone, so it is **invariant under sharding** — the
same machine split into 1, 2, or 4 regions produces bit-identical
results.  It is also the physically faithful choice: a real exit port
cannot know about a message that has not arrived yet.

Consequences worth knowing:

* ``shards=1`` uses this mesh too — it is the "serial" reference the
  bit-identical guarantee is stated against.  A sharded run is *not*
  cycle-identical to the default (send-time-arbitrated) mesh; default
  runs and their committed baselines are untouched.
* ``net.messages``/``net.flits``/``net.by_type`` count at the source
  region, ``net.latency``/``net.total_latency`` at the destination
  region; per-region registries merge to exactly the single-region
  registry.
* ``msg.txn`` never crosses a boundary.  Receivers match replies through
  their MSHRs (by block), never through ``txn``, so stripping it is
  invisible to the protocol; it only feeds latency-breakdown credits,
  which the sharded mesh does not record.  The boundary tuple *does*
  carry a ``has_txn`` flag, and :meth:`ShardedWormholeMesh.inject`
  re-arms the reconstructed message with a sentinel foreign transaction:
  downstream components propagate and test ``txn`` only via
  ``txn is not None`` / ``getattr(txn, "breakdown", None)``, so the
  sentinel keeps transaction-ness observable (``mem.service`` events and
  the span log stay shard-invariant) without any protocol effect.
* When :attr:`ShardedWormholeMesh.span_log` is set (a list shared with
  :class:`~repro.obs.shardobs.ShardSpanCollector`), every transaction-
  carrying message appends one ``("msg", send, done, src, dst, mtype,
  requester)`` record at the point its delivery cycle is known — the
  exit port for routed messages, the send for node-local ones.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Optional

from ..config import SimConfig
from ..errors import SimulationError
from ..obs.events import EventBus
from ..obs.registry import MetricsRegistry
from ..sim.engine import Simulator
from .mesh import WormholeMesh
from .message import Message, MessageType, Unit

__all__ = ["ShardedWormholeMesh", "BoundaryMessage"]

#: One boundary-crossing message, as primitive picklable fields:
#: (tail_arrival, send_time, src, src_seq, dst, mtype_name, unit_name,
#:  block, chain, requester, payload, has_txn).
BoundaryMessage = tuple


class _ForeignTxn:
    """Stands in for a transaction object stripped at a region boundary.

    It deliberately has no attributes: every consumer reaches the real
    transaction only through ``getattr(txn, "breakdown", None)`` or
    propagates it verbatim, so the sentinel preserves ``txn is not
    None`` observability (and nothing else) across regions.
    """

    __slots__ = ()


_FOREIGN_TXN = _ForeignTxn()

# Arrival-buffer entries sort by (tail_arrival, send_time, src, src_seq)
# — a shard-invariant total order: (src, src_seq) is unique, so the
# tuple comparison never reaches the Message object in the fifth slot.


class ShardedWormholeMesh(WormholeMesh):
    """Wormhole mesh for one region of a sharded machine."""

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        region_nodes,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        super().__init__(sim, config, registry=registry, events=events)
        n = config.machine.n_nodes
        self.region = frozenset(region_nodes)
        self._mine = [node in self.region for node in range(n)]
        # Per-source send counters over *port* (non-local) sends.  A
        # node's sends happen in its own region's deterministic order,
        # so (src, src_seq) is the same key in every decomposition.
        self._send_seq = [0] * n
        # Per-destination arrival buffers: heaps of
        # (tail_arrival, send_time, src, src_seq, Message).
        self._arrivals: list[list[tuple]] = [[] for _ in range(n)]
        self._outbox: list[BoundaryMessage] = []
        # Optional debug hook: when not None, every arbitrated arrival
        # appends (dst, tail_arrival, send_time, src, src_seq) here —
        # the property tests compare these streams across shard counts.
        self.arrival_log: Optional[list[tuple]] = None
        # Optional span hook: when not None, every transaction-carrying
        # message appends ("msg", send, done, src, dst, mtype,
        # requester) here once its delivery cycle is known (see
        # repro.obs.shardobs).  None costs one attribute check per
        # delivery, like the EventBus.active guard.
        self.span_log: Optional[list[tuple]] = None

    # ------------------------------------------------------------------
    # Sending.
    # ------------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Inject ``msg``; deliver in-region or queue for the boundary."""
        sim = self.sim
        now = sim._now
        src = msg.src
        dst = msg.dst
        mtype = msg.mtype

        if src == dst:
            # Node-local messages never touch the ports and are always
            # region-internal: same path and cost as the serial mesh.
            done = now + self._local_access
            self._c_local.value += 1
            self._bump_type(mtype)
            if self.span_log is not None and msg.txn is not None:
                self.span_log.append(("msg", now, done, src, dst,
                                      mtype.value, msg.requester))
            handler = self._unit_handlers[msg.unit][dst]
            sim.schedule(done - now, handler, msg)
            return

        flits = self._flits_by_type[mtype]
        flit_cycles = self._flit_cycles
        serialize = flits * flit_cycles
        # Entry-port queuing at the source (source-region state).
        entry_free = self._entry_free
        inject = entry_free[src]
        if inject < now:
            inject = now
        entry_free[src] = inject + serialize
        x, y = self._x, self._y
        hops = self._xd[x[src]][x[dst]] + self._yd[y[src]][y[dst]]
        tail_arrival = (inject + hops * self._hop_cycles
                        + (flits - 1) * flit_cycles)
        src_seq = self._send_seq[src]
        self._send_seq[src] = src_seq + 1
        # Source-side accounting; latency is known only at the exit port.
        self._c_messages.value += 1
        self._c_flits.value += flits
        self._bump_type(mtype)

        # Captured before the outbox branch may release the message.
        unit = msg.unit
        block = msg.block
        chain = msg.chain
        requester = msg.requester

        if self._mine[dst]:
            heappush(self._arrivals[dst],
                     (tail_arrival, now, src, src_seq, msg))
            sim.schedule_priority(tail_arrival - now, self._drain, dst)
        else:
            self._outbox.append((
                tail_arrival, now, src, src_seq, dst, mtype.name,
                unit.name, block, chain, requester,
                msg.payload, msg.txn is not None,
            ))
            msg.payload = None  # the outbox tuple owns it now
            Message.release(msg)

        if (self.faults is not None and mtype is MessageType.DROP
                and self.faults.net_dup(src)):
            # Same duplicate-drop fault as the serial mesh: drawn at the
            # source in the source's own send order, so the decision is
            # invariant under sharding even when dst is another region.
            self.send(Message.acquire(
                mtype, src, dst, unit, block,
                chain=chain, requester=requester,
            ))

    def _bump_type(self, mtype: MessageType) -> None:
        counter = self._type_counters.get(mtype)
        if counter is None:
            counter = self._type_counters[mtype] = (
                self.stats.type_counter(mtype.value)
            )
        counter.value += 1

    # ------------------------------------------------------------------
    # Exit-port arbitration (destination side).
    # ------------------------------------------------------------------

    def _drain(self, dst: int) -> None:
        """Arbitrate every arrival due at ``dst`` this cycle.

        One drain is scheduled per buffered arrival; the first at a
        given (node, cycle) claims the exit port for all of them in
        canonical key order, later ones find the buffer empty and
        no-op — so drains commute, as ``schedule_priority`` requires.
        """
        arrivals = self._arrivals[dst]
        now = self.sim._now
        exit_free = self._exit_free
        log = self.arrival_log
        span_log = self.span_log
        handlers = self._unit_handlers
        schedule_priority = self.sim.schedule_priority
        faults = self.faults
        while arrivals and arrivals[0][0] == now:
            tail_arrival, send_time, src, src_seq, msg = heappop(arrivals)
            serialize = self._flits_by_type[msg.mtype] * self._flit_cycles
            ready = exit_free[dst]
            if ready < tail_arrival:
                ready = tail_arrival
            done = ready + serialize
            if faults is not None:
                # Injected congestion, drawn per destination in
                # canonical arbitration order — the same sequence at
                # any shard count, and FIFO-preserving like the serial
                # mesh (exit_free extends past the delayed drain).
                done += faults.net_delay(dst)
            exit_free[dst] = done
            latency = done - send_time
            self._c_latency.value += latency
            self._latency_hist.observe(latency)
            if log is not None:
                log.append((dst, tail_arrival, send_time, src, src_seq))
            if span_log is not None and msg.txn is not None:
                span_log.append(("msg", send_time, done, src, dst,
                                 msg.mtype.value, msg.requester))
            schedule_priority(done - now, handlers[msg.unit][dst], msg)

    # ------------------------------------------------------------------
    # Window exchange.
    # ------------------------------------------------------------------

    def take_outbox(self) -> list[BoundaryMessage]:
        """Drain and return the boundary messages of the last window."""
        outbox = self._outbox
        self._outbox = []
        return outbox

    def inject(self, entries: list[BoundaryMessage]) -> None:
        """Accept boundary messages addressed to this region.

        Called between window runs, at a cycle no later than any
        entry's tail arrival (the conservative-window invariant).  A
        message that carried a transaction is re-armed with the
        sentinel foreign transaction; see the module docstring for why
        that is invisible to the protocol.
        """
        sim = self.sim
        now = sim._now
        for (tail_arrival, send_time, src, src_seq, dst, mtype_name,
             unit_name, block, chain, requester, payload,
             has_txn) in entries:
            if tail_arrival <= now:
                raise SimulationError(
                    f"boundary message {src}->{dst} arrives at "
                    f"{tail_arrival} but the region already ran to {now}; "
                    "the window was wider than the safe lookahead"
                )
            msg = Message.acquire(
                MessageType[mtype_name], src, dst, Unit[unit_name], block,
                txn=_FOREIGN_TXN if has_txn else None,
                chain=chain, requester=requester, payload=payload,
            )
            heappush(self._arrivals[dst],
                     (tail_arrival, send_time, src, src_seq, msg))
            sim.schedule_priority(tail_arrival - now, self._drain, dst)

    def in_flight(self) -> int:
        """Buffered arrivals not yet arbitrated (plus outbox entries)."""
        return sum(len(b) for b in self._arrivals) + len(self._outbox)


def pack_config_key(msg: Any) -> tuple:  # pragma: no cover - debug aid
    """Stable identity of a boundary tuple (for logging/tests)."""
    return tuple(msg[:5])
