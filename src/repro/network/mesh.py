"""Wormhole-routed mesh with entry/exit port contention.

Latency model (matching the paper's description of its back end):

* Each node has one network-entry port and one network-exit port, each able
  to accept one flit per ``flit_cycles`` cycles.  Messages queue FIFO at
  these ports; this is the only place network contention is modeled
  ("contention at the entry and exit of the network, though not at internal
  nodes").
* Once injected, a message pipelines through the mesh wormhole-style: the
  head flit pays ``hop_cycles`` per hop and the remaining flits stream
  behind it, so transit time is ``hops * hop_cycles + (flits - 1) *
  flit_cycles``.
* Node-local messages (``src == dst``) bypass the network entirely and pay
  a small fixed bus latency.

Delivery invokes a handler registered per (node, unit).

Observability: every delivered message increments the ``net.*`` counters
in the machine's :class:`~repro.obs.registry.MetricsRegistry`, and —
when anyone is listening — emits ``msg.send``/``msg.deliver`` events on
the machine's :class:`~repro.obs.events.EventBus` (record them with an
:class:`~repro.obs.events.EventRecorder`).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..config import SimConfig
from ..errors import SimulationError
from ..obs.events import EventBus
from ..obs.registry import MetricsRegistry
from ..sim.engine import Simulator
from .message import Message, MessageType, Unit
from .topology import make_topology

__all__ = ["WormholeMesh", "NetworkStats"]

Handler = Callable[[Message], None]

_NETWORK_FIELDS = {name: name for name in (
    "messages", "local_messages", "flits", "total_latency")}


class NetworkStats:
    """Aggregate network counters, read by the registry as ``net.*``.

    The scalar attributes are the counters; ``by_type`` is materialized
    from the ``net.by_type.<TYPE>`` registry counters.
    """

    __slots__ = ("messages", "local_messages", "flits", "total_latency",
                 "registry", "latency_hist", "_by_type")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        #: Non-local messages delivered.
        self.messages = 0
        #: Node-local messages delivered.
        self.local_messages = 0
        #: Flits injected by non-local messages.
        self.flits = 0
        #: Summed non-local message latency.
        self.total_latency = 0
        reg = registry if registry is not None else MetricsRegistry()
        reg.attach("net", self, _NETWORK_FIELDS)
        self.registry = reg
        self.latency_hist = reg.histogram("net.latency")
        self._by_type: dict[str, object] = {}

    @property
    def by_type(self) -> dict[str, int]:
        """Messages per type (``net.by_type.<TYPE>`` counters)."""
        return {key: counter.value for key, counter in self._by_type.items()}

    def type_counter(self, key: str):
        """The (lazily created) ``net.by_type.<key>`` counter."""
        counter = self._by_type.get(key)
        if counter is None:
            counter = self._by_type[key] = self.registry.counter(
                f"net.by_type.{key}"
            )
        return counter

    @property
    def mean_latency(self) -> float:
        """Mean network latency of non-local messages."""
        messages = self.messages
        return self.total_latency / messages if messages else 0.0


class WormholeMesh:
    """The interconnect: routes :class:`Message` objects between nodes."""

    def __init__(
        self,
        sim: Simulator,
        config: SimConfig,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        machine = config.machine
        timing = config.timing
        self.topology = make_topology(machine)
        # Per-unit handler vectors: one dict probe + one list index on
        # the send fast path.
        self._unit_handlers: dict[Unit, list[Optional[Handler]]] = {
            unit: [None] * machine.n_nodes for unit in Unit
        }
        self._n_nodes = machine.n_nodes
        # Earliest cycle at which each port can begin accepting a message.
        self._entry_free = [0] * machine.n_nodes
        self._exit_free = [0] * machine.n_nodes
        self.stats = NetworkStats(registry)
        self.events = events if events is not None else EventBus()
        # Fault-injection plane; the machine installs its injector here.
        # None keeps the fault-free fast path (docs/robustness.md).
        self.faults = None
        # Hot-path caches: flit sizes per message type, timing constants,
        # the topology's coordinates and per-axis hop tables, and the
        # latency histogram's sample dict.  All are pure derivations of
        # frozen config / construction-time state.
        data_flits = machine.data_flits(timing)
        self._flits_by_type = {
            mtype: data_flits if mtype.carries_data else timing.header_flits
            for mtype in MessageType
        }
        self._local_access = timing.local_access
        self._flit_cycles = timing.flit_cycles
        self._hop_cycles = timing.hop_cycles
        topology = self.topology
        self._x, self._y = topology._x, topology._y
        self._xd, self._yd = topology._xd, topology._yd
        self._latency_samples = self.stats.latency_hist.samples
        self._type_counters: dict[MessageType, Any] = {}

    def register(self, node: int, unit: Unit, handler: Handler) -> None:
        """Install the delivery handler for ``unit`` at ``node``."""
        self._unit_handlers[unit][node] = handler

    def message_flits(self, msg: Message) -> int:
        """Size of ``msg`` in flits."""
        return self._flits_by_type[msg.mtype]

    def _observe(self, msg: Message, sent: int, delivered: int) -> None:
        """Emit the message's send/deliver events (no sim effects)."""
        bus = self.events
        if bus.active:
            fields = dict(
                mtype=msg.mtype.value,
                src=msg.src,
                dst=msg.dst,
                unit=msg.unit.value,
                block=msg.block,
                chain=msg.chain,
                requester=msg.requester,
                msg_id=msg.msg_id,
                has_txn=msg.txn is not None,
            )
            bus.emit("msg.send", sent, node=msg.src, delivered=delivered,
                     **fields)
            bus.emit("msg.deliver", delivered, node=msg.dst, sent=sent,
                     **fields)

    def send(self, msg: Message) -> None:
        """Inject ``msg``; schedules its delivery at the destination.

        This is the hottest non-engine function in the machine; the
        timing model is identical to the long-hand form it replaces
        (entry-port serialize, wormhole transit, exit-port drain), with
        every constant and counter pre-resolved at construction.
        """
        dst = msg.dst
        src = msg.src
        try:
            handler = self._unit_handlers[msg.unit][dst]
        except (KeyError, IndexError):
            handler = None
        # A negative id would index from the end of the port and handler
        # vectors, reaching another node.
        if handler is None or dst < 0:
            raise SimulationError(
                f"no handler registered for node {dst} unit {msg.unit}"
            )
        if not 0 <= src < self._n_nodes:
            raise SimulationError(
                f"message source {src} outside the {self._n_nodes}-node mesh"
            )
        mtype = msg.mtype
        flits = self._flits_by_type[mtype]
        sim = self.sim
        now = sim._now

        if src == dst:
            # Node-local: cache <-> local memory over the node bus.
            done = now + self._local_access
            self.stats.local_messages += 1
        else:
            flit_cycles = self._flit_cycles
            serialize = flits * flit_cycles
            # Entry-port queuing at the source.
            entry_free = self._entry_free
            inject = entry_free[src]
            if inject < now:
                inject = now
            entry_free[src] = inject + serialize
            # Wormhole transit: head flit pays the hops, tail streams.
            x, y = self._x, self._y
            hops = self._xd[x[src]][x[dst]] + self._yd[y[src]][y[dst]]
            tail_arrival = (inject + hops * self._hop_cycles
                            + (flits - 1) * flit_cycles)
            # Exit-port queuing at the destination.
            exit_free = self._exit_free
            ready = exit_free[dst]
            if ready < tail_arrival:
                ready = tail_arrival
            done = ready + serialize
            faults = self.faults
            if faults is not None:
                # Injected congestion: hold the exit port past this
                # message's drain.  Extending exit_free keeps the port
                # FIFO, so no same-destination reorder is possible.
                done += faults.net_delay(dst)
            exit_free[dst] = done
            latency = done - now
            stats = self.stats
            stats.messages += 1
            stats.flits += flits
            stats.total_latency += latency
            # Histogram.observe without the call: latency >= 0 here.
            samples = self._latency_samples
            samples[latency] = samples.get(latency, 0) + 1
        type_counter = self._type_counters.get(mtype)
        if type_counter is None:
            type_counter = self._type_counters[mtype] = (
                self.stats.type_counter(mtype.value)
            )
        type_counter.value += 1

        txn = msg.txn
        if txn is not None:
            # TxnBreakdown.credit("network", done), inlined.
            cursor = txn.cursor
            if done > cursor:
                txn.network += done - cursor
                txn.cursor = done
        if self.events.active:
            self._observe(msg, now, done)
        sim.schedule(done - now, handler, msg)
        if (self.faults is not None and src != dst
                and mtype is MessageType.DROP
                and self.faults.net_dup(src)):
            # Duplicate delivery of the idempotent drop notice: a fresh
            # message one serialize slot behind the original, so it can
            # never overtake a later request from the same source.
            self.send(Message(
                mtype, src, dst, msg.unit, msg.block,
                chain=msg.chain, requester=msg.requester,
            ))
