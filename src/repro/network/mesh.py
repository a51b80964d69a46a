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
the machine's :class:`~repro.obs.events.EventBus`.  The legacy
single-slot ``observer`` attribute is kept for backward compatibility;
new code should subscribe to the bus instead (see
:class:`repro.debug.trace.ProtocolTracer`).
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


class NetworkStats:
    """Aggregate network counters (registry-backed, ``net.*``).

    The historical attribute spelling (``mesh.stats.messages``,
    ``mesh.stats.by_type``) keeps working as property shims over the
    registry counters.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        reg = registry if registry is not None else MetricsRegistry()
        self.registry = reg
        self._messages = reg.counter("net.messages")
        self._local_messages = reg.counter("net.local_messages")
        self._flits = reg.counter("net.flits")
        self._total_latency = reg.counter("net.total_latency")
        self._latency_hist = reg.histogram("net.latency")
        self._by_type: dict[str, object] = {}

    # -- property shims over the registry ------------------------------

    @property
    def messages(self) -> int:
        """Non-local messages delivered (``net.messages``)."""
        return self._messages.value

    @messages.setter
    def messages(self, value: int) -> None:
        self._messages.value = value

    @property
    def local_messages(self) -> int:
        """Node-local messages delivered (``net.local_messages``)."""
        return self._local_messages.value

    @local_messages.setter
    def local_messages(self, value: int) -> None:
        self._local_messages.value = value

    @property
    def flits(self) -> int:
        """Flits injected by non-local messages (``net.flits``)."""
        return self._flits.value

    @flits.setter
    def flits(self, value: int) -> None:
        self._flits.value = value

    @property
    def total_latency(self) -> int:
        """Summed non-local message latency (``net.total_latency``)."""
        return self._total_latency.value

    @total_latency.setter
    def total_latency(self, value: int) -> None:
        self._total_latency.value = value

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

    def record(self, msg: Message, flits: int, latency: int, local: bool) -> None:
        """Account one delivered message."""
        if local:
            self._local_messages.inc()
        else:
            self._messages.inc()
            self._flits.inc(flits)
            self._total_latency.inc(latency)
            self._latency_hist.observe(latency)
        self.type_counter(msg.mtype.value).inc()  # type: ignore[union-attr]

    @property
    def mean_latency(self) -> float:
        """Mean network latency of non-local messages."""
        messages = self._messages.value
        return self._total_latency.value / messages if messages else 0.0


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
        self._handlers: dict[tuple[int, Unit], Handler] = {}
        # Per-unit handler vectors: one dict probe + one list index on
        # the send fast path instead of a tuple-keyed dict lookup.
        self._unit_handlers: dict[Unit, list[Optional[Handler]]] = {
            unit: [None] * machine.n_nodes for unit in Unit
        }
        # Earliest cycle at which each port can begin accepting a message.
        self._entry_free = [0] * machine.n_nodes
        self._exit_free = [0] * machine.n_nodes
        self.stats = NetworkStats(registry)
        self.events = events if events is not None else EventBus()
        # Legacy single-slot observer(msg, send_time, deliver_time) hook.
        self.observer: Callable[[Message, int, int], None] | None = None
        # Fault-injection plane; the machine installs its injector here.
        # None keeps the fault-free fast path (docs/robustness.md).
        self.faults = None
        # Hot-path caches: flit sizes per message type, timing constants,
        # the topology's coordinates and per-axis hop tables, and the raw
        # registry counters (bypassing the NetworkStats property shims).
        # All are pure derivations of frozen config / construction-time
        # state.
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
        stats = self.stats
        self._c_messages = stats._messages
        self._c_local = stats._local_messages
        self._c_flits = stats._flits
        self._c_latency = stats._total_latency
        self._latency_hist = stats._latency_hist
        self._type_counters: dict[MessageType, Any] = {}

    def register(self, node: int, unit: Unit, handler: Handler) -> None:
        """Install the delivery handler for ``unit`` at ``node``."""
        self._handlers[(node, unit)] = handler
        self._unit_handlers[unit][node] = handler

    def message_flits(self, msg: Message) -> int:
        """Size of ``msg`` in flits."""
        return self._flits_by_type[msg.mtype]

    def _observe(self, msg: Message, sent: int, delivered: int) -> None:
        """Feed the legacy observer and the event bus (no sim effects)."""
        if self.observer is not None:
            self.observer(msg, sent, delivered)
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
        try:
            handler = self._unit_handlers[msg.unit][dst]
        except (KeyError, IndexError):
            handler = None
        if handler is None:
            raise SimulationError(
                f"no handler registered for node {dst} unit {msg.unit}"
            )
        mtype = msg.mtype
        flits = self._flits_by_type[mtype]
        sim = self.sim
        now = sim._now
        src = msg.src

        if src == dst:
            # Node-local: cache <-> local memory over the node bus.
            done = now + self._local_access
            self._c_local.value += 1
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
            self._c_messages.value += 1
            self._c_flits.value += flits
            self._c_latency.value += latency
            self._latency_hist.observe(latency)
        type_counter = self._type_counters.get(mtype)
        if type_counter is None:
            type_counter = self._type_counters[mtype] = (
                self.stats.type_counter(mtype.value)
            )
        type_counter.value += 1

        txn = msg.txn
        if txn is not None:
            breakdown = getattr(txn, "breakdown", None)
            if breakdown is not None:
                breakdown.credit("network", done)
        if self.observer is not None or self.events.active:
            self._observe(msg, now, done)
        sim.schedule(done - now, handler, msg)
        if (self.faults is not None and src != dst
                and mtype is MessageType.DROP
                and self.faults.net_dup(src)):
            # Duplicate delivery of the idempotent drop notice: a fresh
            # message one serialize slot behind the original, so it can
            # never overtake a later request from the same source.
            self.send(Message.acquire(
                mtype, src, dst, msg.unit, msg.block,
                chain=msg.chain, requester=msg.requester,
            ))
