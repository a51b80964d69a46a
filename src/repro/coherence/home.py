"""The home-node protocol engine: directory plus memory-side atomics.

Every message addressed to a node's HOME unit passes through the node's
queued memory module (FIFO, ``memory_service`` cycles each) and is then
interpreted here.  The engine implements:

* the base write-invalidate protocol (GETS/GETX with ownership transfer
  *through the home*, giving the paper's Table 1 serialized-message
  counts: 2 to an uncached line, 3 to a remote-shared line, 4 to a
  remote-exclusive line);
* the write-update (UPD) and uncached (UNC) handling of synchronization
  variables, with fetch_and_phi / compare_and_swap / load_linked /
  store_conditional executed by the memory module;
* the INVd / INVs compare_and_swap variants, where the comparison runs at
  the home (or is delegated to the owner) so a failing CAS does not
  invalidate cached copies;
* the in-memory reservation bookkeeping for LL/SC (pluggable strategy);
* the drop_copy race: a recall that finds the owner gone produces an
  owner→requester NAK and leaves the entry busy until the in-flight
  writeback lands.

The directory entry is *blocking per block*: requests arriving during an
ownership transfer queue FIFO on the entry and replay when it completes.
"""

from __future__ import annotations

from typing import Any

from ..errors import ProtocolError
from ..memory.directory import Directory, DirState
from ..memory.module import MemoryModule
from ..memory.reservations import ReservationTable
from ..network.mesh import WormholeMesh
from ..network.message import Message, MessageType, Unit
from ..primitives.semantics import apply_phi
from .policy import SyncPolicy

__all__ = ["HomeNode"]

_REQUESTS = frozenset(
    {
        MessageType.GETS,
        MessageType.GETX,
        MessageType.SYNC_REQ,
        MessageType.SC_REQ,
    }
)
_DROP = MessageType.DROP
_INV_MSG = MessageType.INV
_CACHE = Unit.CACHE
_INV = SyncPolicy.INV
_HOME_FIELDS = {"requests": "requests", "queued": "queued"}


class HomeNode:
    """Directory controller + memory-side ALU for one node's memory."""

    def __init__(
        self,
        node: int,
        mesh: WormholeMesh,
        memory: MemoryModule,
        directory: Directory,
        reservations: ReservationTable,
        machine: Any,
    ) -> None:
        self.node = node
        self.mesh = mesh
        self.memory = memory
        self.directory = directory
        self.reservations = reservations
        self.machine = machine
        self.events = mesh.events
        registry = getattr(machine, "registry", None)
        if registry is None:
            from ..obs.registry import MetricsRegistry
            registry = MetricsRegistry()
        #: Messages delivered to this home (``home.<node>.requests``).
        self.requests = 0
        #: Requests that found their entry busy (``home.<node>.queued``).
        self.queued = 0
        registry.attach(f"home.{node}", self, _HOME_FIELDS)
        self._registry = registry
        # Imprecise sharer representations (limited-pointer, coarse
        # vector) can fan invalidations/updates out beyond the true
        # sharers; those extras are counted lazily so an exact directory
        # publishes an unchanged metric set.
        self._imprecise = directory.imprecise
        self._c_spurious = None
        self._c_fanouts = None
        self._service = memory.service
        self._t_directory = memory.config.timing.directory_service
        self._policies = machine._policies
        self.faults = getattr(machine, "faults", None)
        mesh.register(node, Unit.HOME, self.handle)

    # ------------------------------------------------------------------
    # Delivery and dispatch.
    # ------------------------------------------------------------------

    def handle(self, msg: Message) -> None:
        """Network delivery: queue the message at the memory module.

        Drop notices only touch directory state (no DRAM data), so they
        occupy the module for the shorter directory-service time.
        """
        self.requests += 1
        mtype = msg.mtype
        faults = self.faults
        if (faults is not None and mtype in _REQUESTS
                and faults.home_nak(self.node)):
            # Transient busy-NAK: the home pretends to be occupied and
            # retries the request after the penalty.  The replay goes
            # straight to the memory queue (not back through handle),
            # so each message is NAK'd at most once and the retry can
            # never starve — termination is preserved by construction.
            self.machine.sim.schedule(
                faults.plan.home_nak_penalty, self._replay_nak, msg
            )
            return
        self._service(
            self._process, msg,
            service_time=self._t_directory if mtype is _DROP else None,
            txn=msg.txn, block=msg.block, mtype=mtype,
            requester=msg.requester)

    def _replay_nak(self, msg: Message) -> None:
        """Re-queue a busy-NAK'd request at the memory module."""
        self._service(self._process, msg, txn=msg.txn, block=msg.block,
                      mtype=msg.mtype, requester=msg.requester)

    def _account_fanout(self, entry: Any, others: list, requester: int) -> None:
        """Count fan-out beyond the exact sharers (imprecise directories).

        Called before the entry mutates, with the targets about to be
        multicast.  ``spurious_targets`` counts messages sent to nodes
        that hold no copy; ``imprecise_fanouts`` counts multicasts issued
        while the representation had lost per-node precision.  Both
        counters are created on first use so exact-equivalent
        configurations (e.g. enough pointers) publish identical metrics.
        """
        sharers = entry.sharers
        extra = len(others) - sharers.exact_targets(requester)
        if extra:
            if self._c_spurious is None:
                self._c_spurious = self._registry.counter(
                    f"home.{self.node}.spurious_targets"
                )
            self._c_spurious.value += extra
        if sharers.overflowed:
            if self._c_fanouts is None:
                self._c_fanouts = self._registry.counter(
                    f"home.{self.node}.imprecise_fanouts"
                )
            self._c_fanouts.value += 1

    def _process(self, msg: Message) -> None:
        mtype = msg.mtype
        if mtype in _REQUESTS:
            entry = self.directory.entry(msg.block)
            if entry.busy:
                self.queued += 1
                if self.events.active:
                    holder = (entry.pending.requester
                              if entry.pending is not None else None)
                    self.events.emit(
                        "dir.queue.enter", self.machine.sim.now,
                        node=self.node, block=msg.block, mtype=mtype.value,
                        requester=msg.requester,
                        depth=len(entry.waiters) + 1, holder=holder,
                    )
                entry.waiters.append(msg)
                return
        handler = _HANDLERS.get(mtype)
        if handler is None:
            raise ProtocolError(f"home {self.node} cannot handle {msg}")
        handler(self, msg)

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _send(
        self,
        prev: Message,
        mtype: MessageType,
        dst: int,
        unit: Unit,
        **payload: Any,
    ) -> None:
        """Send the next protocol message, extending the serialized chain.

        Node-local hops (home and destination on the same node) do not
        cross the network and do not lengthen the chain.
        """
        node = self.node
        chain = prev.chain + (1 if dst != node else 0)
        self.mesh.send(Message(mtype, node, dst, unit, prev.block, prev.txn,
                               chain, prev.requester, payload))

    def _multicast(self, prev: Message, mtype: MessageType, targets: list[int],
                   payload: dict[str, Any]) -> None:
        """Send ``mtype`` to every cache in ``targets``, in order.

        As :meth:`_send` for each target, but every message shares the
        one ``payload`` dict (payloads are never mutated after send).
        """
        node = self.node
        send = self.mesh.send
        block, txn, requester = prev.block, prev.txn, prev.requester
        chain = prev.chain
        for dst in targets:
            send(Message(mtype, node, dst, _CACHE, block, txn,
                         chain + 1 if dst != node else chain, requester,
                         payload))

    def _unbusy(self, block: int) -> None:
        """Release the entry and replay queued requests in order.

        Replayed requests re-enter the memory service queue (they access
        the directory again), which also gives a freshly granted owner the
        cycles it needs to perform its local atomic operation before the
        next recall arrives.
        """
        entry = self.directory.entry(block)
        entry.busy = False
        entry.pending = None
        if entry.waiters:
            waiters = list(entry.waiters)
            entry.waiters.clear()
            bus = self.events
            for msg in waiters:
                if bus.active:
                    bus.emit("dir.queue.leave", self.machine.sim.now,
                             node=self.node, block=msg.block,
                             mtype=msg.mtype.value, requester=msg.requester)
                self._service(self._process, msg, txn=msg.txn,
                              block=msg.block, mtype=msg.mtype,
                              requester=msg.requester)

    def _note(self, msg: Message, is_write: bool) -> None:
        """Record a memory-side access for sharing-pattern statistics."""
        addr = msg.payload.get("addr")
        if addr is not None:
            self.machine.stats.writerun.note_access(addr, msg.requester,
                                                    is_write)

    # ------------------------------------------------------------------
    # Base write-invalidate protocol.
    # ------------------------------------------------------------------

    def _gets(self, msg: Message) -> None:
        entry = self.directory.entry(msg.block)
        requester = msg.requester
        if entry.state in (DirState.UNCACHED, DirState.SHARED):
            entry.add_sharer(requester)
            data = self.memory.read_block(msg.block)
            self._send(msg, MessageType.DATA_S, requester, Unit.CACHE, data=data)
            return
        # EXCLUSIVE: recall through the home.
        if entry.owner == requester:
            raise ProtocolError(
                f"GETS from {requester} but directory says it owns block "
                f"{msg.block}"
            )
        entry.busy = True
        entry.pending = msg
        self._send(msg, MessageType.DOWNGRADE_REQ, entry.owner, Unit.CACHE)

    def _getx(self, msg: Message) -> None:
        entry = self.directory.entry(msg.block)
        requester = msg.requester
        if entry.state is DirState.UNCACHED:
            entry.set_exclusive(requester)
            data = self.memory.read_block(msg.block)
            self._send(
                msg, MessageType.DATA_X, requester, Unit.CACHE, data=data, acks=0
            )
            return
        if entry.state is DirState.SHARED:
            others = entry.targets(requester)
            if self._imprecise:
                self._account_fanout(entry, others, requester)
            entry.set_exclusive(requester)
            self._multicast(msg, _INV_MSG, others, {})
            data = self.memory.read_block(msg.block)
            self._send(
                msg,
                MessageType.DATA_X,
                requester,
                Unit.CACHE,
                data=data,
                acks=len(others),
            )
            return
        # EXCLUSIVE elsewhere: recall through the home.
        if entry.owner == requester:
            raise ProtocolError(
                f"GETX from {requester} but directory says it owns block "
                f"{msg.block}"
            )
        entry.busy = True
        entry.pending = msg
        self._send(msg, MessageType.FLUSH_REQ, entry.owner, Unit.CACHE)

    def _flush_reply(self, msg: Message) -> None:
        """Owner surrendered an exclusive line (recall or delegated CAS)."""
        entry = self.directory.entry(msg.block)
        self.memory.write_block(msg.block, msg.payload["data"])
        pending = entry.pending
        if pending is None:
            raise ProtocolError(f"unexpected FLUSH_REPLY for block {msg.block}")
        requester = pending.requester
        data = self.memory.read_block(msg.block)
        if pending.mtype is MessageType.GETX:
            entry.set_exclusive(requester)
            self._send(msg, MessageType.DATA_X, requester, Unit.CACHE, data=data, acks=0)
        elif pending.mtype is MessageType.SYNC_REQ:
            # Delegated INVd/INVs CAS that succeeded at the owner: grant
            # the requester an exclusive copy; it applies the new value.
            if not msg.payload.get("cas_ok"):
                raise ProtocolError("FLUSH_REPLY for SYNC_REQ without cas_ok")
            entry.set_exclusive(requester)
            self._note(pending, is_write=True)
            self._send(
                msg,
                MessageType.DATA_X,
                requester,
                Unit.CACHE,
                data=data,
                acks=0,
                cas_granted=True,
                old=msg.payload.get("old"),
            )
        else:
            raise ProtocolError(f"FLUSH_REPLY while pending {pending.mtype}")
        self._unbusy(msg.block)

    def _share_wb(self, msg: Message) -> None:
        """Owner demoted its exclusive line to shared."""
        entry = self.directory.entry(msg.block)
        self.memory.write_block(msg.block, msg.payload["data"])
        pending = entry.pending
        if pending is None:
            raise ProtocolError(f"unexpected SHARE_WB for block {msg.block}")
        requester = pending.requester
        entry.set_shared({msg.src})
        data = self.memory.read_block(msg.block)
        if pending.mtype is MessageType.GETS:
            entry.add_sharer(requester)
            self._send(msg, MessageType.DATA_S, requester, Unit.CACHE, data=data)
        elif pending.mtype is MessageType.SYNC_REQ:
            # Delegated INVs CAS that failed at the owner: requester gets a
            # read-only copy along with the failure result.
            self._note(pending, is_write=False)
            entry.add_sharer(requester)
            self._send(
                msg,
                MessageType.SYNC_REPLY,
                requester,
                Unit.CACHE,
                result=("cas", False, msg.payload.get("old")),
                data=data,
                acks=0,
            )
        else:
            raise ProtocolError(f"SHARE_WB while pending {pending.mtype}")
        self._unbusy(msg.block)

    def _flush_nak(self, msg: Message) -> None:
        """The owner could not serve a recall.

        ``reason == "cas_fail"``: a delegated INVd comparison failed; the
        owner kept its line and answered the requester directly — just
        release the entry.  ``reason == "gone"``: the owner dropped or
        evicted the line; its writeback is in flight (or already here), and
        the entry stays busy until the writeback lands.
        """
        entry = self.directory.entry(msg.block)
        if entry.pending is None:
            raise ProtocolError(f"unexpected FLUSH_NAK for block {msg.block}")
        entry.pending = None
        if msg.payload.get("reason") == "cas_fail":
            self._unbusy(msg.block)
            return
        if entry.state is DirState.UNCACHED:
            # The writeback overtook the NAK and was already applied.
            self._unbusy(msg.block)
        else:
            entry.awaiting_wb = True

    def _wb(self, msg: Message) -> None:
        """Writeback of a dirty exclusive line (drop_copy or eviction)."""
        entry = self.directory.entry(msg.block)
        self.memory.write_block(msg.block, msg.payload["data"])
        if entry.state is DirState.EXCLUSIVE and entry.owner == msg.src:
            entry.set_uncached()
        if entry.awaiting_wb:
            entry.awaiting_wb = False
            self._unbusy(msg.block)

    def _drop(self, msg: Message) -> None:
        """Notice that a shared copy was dropped or evicted."""
        entry = self.directory.entry(msg.block)
        if entry.state is DirState.SHARED:
            entry.remove_sharer(msg.src)

    # ------------------------------------------------------------------
    # INV-policy store_conditional arbitration.
    # ------------------------------------------------------------------

    def _sc_req(self, msg: Message) -> None:
        """store_conditional from a cache holding a shared copy.

        Succeeds only if the directory still shows the line shared with the
        requester among the sharers; the write is then granted and every
        other copy is invalidated.  If the line went exclusive or uncached
        in the meantime, some other write serialized first, so the
        store_conditional must fail (paper §3).
        """
        entry = self.directory.entry(msg.block)
        requester = msg.requester
        if entry.state is DirState.SHARED and entry.is_sharer(requester):
            others = entry.targets(requester)
            if self._imprecise:
                self._account_fanout(entry, others, requester)
            entry.set_exclusive(requester)
            self._multicast(msg, _INV_MSG, others, {})
            self._note(msg, is_write=True)
            self._send(
                msg,
                MessageType.DATA_X,
                requester,
                Unit.CACHE,
                data=None,
                acks=len(others),
                sc_grant=True,
            )
        else:
            self._note(msg, is_write=False)
            self._send(msg, MessageType.SC_FAIL, requester, Unit.CACHE)

    # ------------------------------------------------------------------
    # Memory-side operations (UNC, UPD, and INVd/INVs CAS).
    # ------------------------------------------------------------------

    def _sync_req(self, msg: Message) -> None:
        policy = self._policies.get(msg.block, _INV)
        kind = msg.payload["kind"]
        if policy is SyncPolicy.UNC:
            self._sync_unc(msg, kind)
        elif policy is SyncPolicy.UPD:
            self._sync_upd(msg, kind)
        elif policy in (SyncPolicy.INVD, SyncPolicy.INVS) and kind == "cas":
            self._sync_cas_variant(msg, policy)
        else:
            raise ProtocolError(
                f"SYNC_REQ kind={kind!r} not valid under policy {policy}"
            )

    def _apply_op(self, msg: Message, kind: str) -> tuple[Any, bool]:
        """Execute one memory-side operation on the block's word.

        Returns ``(result, wrote)`` where ``wrote`` is True if the stored
        word's value actually changed (a same-value store keeps copies
        coherent without any update traffic).  Reservations die on *any*
        write, including same-value ones.  Each branch notes the access
        (a write if the op stored, whatever the value) after any event
        it emits.
        """
        block, offset = msg.block, msg.payload["offset"]
        old = self.memory.read_word(block, offset)
        if kind == "load":
            self._note(msg, False)
            return old, False
        if kind == "store":
            value = msg.payload["value"]
            self.memory.write_word(block, offset, value)
            self.reservations.write(block)
            self._note(msg, True)
            return None, value != old
        if kind == "faa":
            new = apply_phi(msg.payload["phi"], old, msg.payload["operand"])
            self.memory.write_word(block, offset, new)
            self.reservations.write(block)
            self._note(msg, True)
            return old, new != old
        if kind == "cas":
            expected, new = msg.payload["expected"], msg.payload["new"]
            if old == expected:
                self.memory.write_word(block, offset, new)
                self.reservations.write(block)
                self._note(msg, True)
                return ("cas", True, old), new != old
            self._note(msg, False)
            return ("cas", False, old), False
        if kind == "ll":
            grant = self.reservations.load_linked(msg.requester, block)
            if self.events.active:
                self.events.emit("res.grant", self.machine.sim.now,
                                 node=self.node, block=block,
                                 requester=msg.requester, doomed=grant.doomed,
                                 memory_side=True)
            self._note(msg, False)
            return ("ll", old, grant.token, grant.doomed), False
        if kind == "sc":
            value, token = msg.payload["value"], msg.payload.get("token")
            if self.reservations.consume(msg.requester, block, token):
                self.memory.write_word(block, offset, value)
                if self.events.active:
                    self.events.emit("res.revoke", self.machine.sim.now,
                                     node=self.node, block=block,
                                     requester=msg.requester,
                                     reason="sc_consumed", memory_side=True)
                self._note(msg, True)
                return ("sc", True), value != old
            self._note(msg, False)
            return ("sc", False), False
        raise ProtocolError(f"unknown memory-side op kind {kind!r}")

    def _sync_unc(self, msg: Message, kind: str) -> None:
        """Uncached operation: execute at memory, reply; never any copies."""
        result, _wrote = self._apply_op(msg, kind)
        self._send(
            msg,
            MessageType.SYNC_REPLY,
            msg.requester,
            Unit.CACHE,
            result=result,
            data=None,
            acks=0,
        )

    def _sync_upd(self, msg: Message, kind: str) -> None:
        """Write-update operation: execute at memory, multicast updates.

        The requester retains (or acquires) a shared copy; every other
        sharer receives the new block contents and acknowledges directly to
        the requester.
        """
        entry = self.directory.entry(msg.block)
        requester = msg.requester
        result, wrote = self._apply_op(msg, kind)
        # The fan-out is taken before add_sharer, and only when it is
        # sent: most contended UPD attempts fail and write nothing.
        others = entry.targets(requester) if wrote else ()
        if wrote and self._imprecise:
            self._account_fanout(entry, others, requester)
        entry.add_sharer(requester)
        data = self.memory.read_block(msg.block)
        acks = 0
        if wrote:
            self._multicast(msg, MessageType.UPDATE, others, {"data": data})
            acks = len(others)
        self._send(
            msg,
            MessageType.SYNC_REPLY,
            requester,
            Unit.CACHE,
            result=result,
            data=data,
            acks=acks,
        )

    def _sync_cas_variant(self, msg: Message, policy: SyncPolicy) -> None:
        """INVd/INVs compare_and_swap with the comparison at home or owner."""
        entry = self.directory.entry(msg.block)
        requester = msg.requester
        offset = msg.payload["offset"]
        expected, new = msg.payload["expected"], msg.payload["new"]

        if entry.state is DirState.EXCLUSIVE:
            if entry.owner == requester:
                raise ProtocolError(
                    f"INVd/INVs CAS from {requester} which owns block {msg.block}"
                )
            # The owner has the most up-to-date copy: delegate the compare.
            entry.busy = True
            entry.pending = msg
            self._send(
                msg,
                MessageType.CAS_CMP,
                entry.owner,
                Unit.CACHE,
                offset=offset,
                expected=expected,
                new=new,
                variant=policy,
            )
            return

        # Home memory is current: compare here.
        old = self.memory.read_word(msg.block, offset)
        if old == expected:
            # Success: behave like INV — grant an exclusive copy; the
            # requester's cache applies the new value.
            others = entry.targets(requester)
            if self._imprecise:
                self._account_fanout(entry, others, requester)
            entry.set_exclusive(requester)
            self._multicast(msg, _INV_MSG, others, {})
            self._note(msg, is_write=True)
            data = self.memory.read_block(msg.block)
            self._send(
                msg,
                MessageType.DATA_X,
                requester,
                Unit.CACHE,
                data=data,
                acks=len(others),
                cas_granted=True,
                old=old,
            )
            return

        # Failure: do not disturb existing copies.
        self._note(msg, is_write=False)
        if policy is SyncPolicy.INVD:
            self._send(
                msg,
                MessageType.SYNC_REPLY,
                requester,
                Unit.CACHE,
                result=("cas", False, old),
                data=None,
                acks=0,
            )
        else:  # INVs: grant a read-only copy alongside the failure.
            entry.add_sharer(requester)
            data = self.memory.read_block(msg.block)
            self._send(
                msg,
                MessageType.SYNC_REPLY,
                requester,
                Unit.CACHE,
                result=("cas", False, old),
                data=data,
                acks=0,
            )


# Home-bound message type -> handler.
_HANDLERS = {
    MessageType.GETS: HomeNode._gets,
    MessageType.GETX: HomeNode._getx,
    MessageType.SYNC_REQ: HomeNode._sync_req,
    MessageType.SC_REQ: HomeNode._sc_req,
    MessageType.FLUSH_REPLY: HomeNode._flush_reply,
    MessageType.SHARE_WB: HomeNode._share_wb,
    MessageType.FLUSH_NAK: HomeNode._flush_nak,
    MessageType.WB: HomeNode._wb,
    MessageType.DROP: HomeNode._drop,
}
