"""The cache controller: requester-side protocol engine.

One controller per node.  It executes the processor's memory operations
against the local cache, issuing protocol transactions to home nodes on
misses, and it answers remote protocol traffic (invalidations, updates,
recalls, delegated CAS comparisons).

Operation routing by sync policy (ordinary data is ``INV``):

=====================  ==========================================
policy                 behaviour
=====================  ==========================================
``INV``                all primitives execute in this controller on an
                       exclusive copy; loads get shared copies
``INVd`` / ``INVs``    as INV, except a missing compare_and_swap is sent
                       to the home/owner for comparison
``UPD``                loads hit shared copies; every write-flavoured
                       primitive (and load_linked) goes to the memory
``UNC``                every operation goes to the memory; no caching
=====================  ==========================================

The controller owns the node's LL/SC reservation: a reservation bit, the
reserved address, and (for memory-side strategies) the grant token and
doomed flag returned by the memory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..cache.cache import Cache
from ..cache.line import LineState
from ..cache.mshr import Mshr, Transaction
from ..config import SimConfig
from ..errors import AddressError, ProtocolError
from ..network.mesh import WormholeMesh
from ..network.message import Message, MessageType, Unit
from ..obs.registry import MetricsRegistry
from ..primitives.ops import (
    CasResult,
    CompareAndSwap,
    DropCopy,
    FetchAndPhi,
    LLValue,
    Load,
    LoadExclusive,
    LoadLinked,
    Store,
    StoreConditional,
)
from ..primitives.semantics import apply_phi
from .policy import SyncPolicy

__all__ = ["CacheController", "LocalReservation"]

Callback = Callable[[Any], None]

_REPLIES = frozenset(
    {
        MessageType.DATA_S,
        MessageType.DATA_X,
        MessageType.SYNC_REPLY,
        MessageType.SC_FAIL,
        MessageType.CAS_FAIL,
    }
)
_ACKS = frozenset({MessageType.INV_ACK, MessageType.UPDATE_ACK})
_RECALLS = frozenset(
    {MessageType.FLUSH_REQ, MessageType.DOWNGRADE_REQ, MessageType.CAS_CMP}
)
_GETS = MessageType.GETS
_GETX = MessageType.GETX
_SYNC_REQ = MessageType.SYNC_REQ
_HOME = Unit.HOME
_SHARED = LineState.SHARED
_EXCLUSIVE = LineState.EXCLUSIVE
_INV = SyncPolicy.INV
_CONTROLLER_FIELDS = {name: name for name in (
    "ops", "local_hits", "sc_local_failures", "spurious_losses",
    "nak_retries")}


@dataclass
class LocalReservation:
    """The per-cache LL reservation bit and address register.

    For memory-side LL/SC (UNC/UPD) the controller also remembers the
    memory's grant: the serial-number ``token`` and the ``doomed`` flag of
    an over-limit reservation, which lets the matching store_conditional
    fail locally with no network traffic.
    """

    valid: bool = False
    block: int = -1
    addr: int = -1
    token: Optional[int] = None
    doomed: bool = False

    def clear(self) -> None:
        """Invalidate the reservation."""
        self.valid = False
        self.block = -1
        self.addr = -1
        self.token = None
        self.doomed = False

    def set(
        self, block: int, addr: int, token: Optional[int] = None, doomed: bool = False
    ) -> None:
        """Record a new reservation (load_linked completed)."""
        self.valid = True
        self.block = block
        self.addr = addr
        self.token = token
        self.doomed = doomed


class ControllerStats:
    """Per-controller counters, read by the registry as ``ctrl.<node>.*``.

    The scalar attributes are the counters.  ``chains`` (summed
    serialized-chain depth per transaction kind) is materialized from
    the ``<prefix>.chain.<kind>`` registry counters.
    """

    __slots__ = ("ops", "local_hits", "sc_local_failures", "spurious_losses",
                 "nak_retries", "_registry", "_prefix", "_chains")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        prefix: str = "ctrl",
    ) -> None:
        #: Operations executed by this controller.
        self.ops = 0
        #: Operations satisfied without leaving the node.
        self.local_hits = 0
        #: store_conditionals failed locally with no network traffic.
        self.sc_local_failures = 0
        #: Reservations lost to the spurious-invalidation model.
        self.spurious_losses = 0
        #: Transactions reissued after an OWNER_NAK.
        self.nak_retries = 0
        reg = registry if registry is not None else MetricsRegistry()
        reg.attach(prefix, self, _CONTROLLER_FIELDS)
        self._registry = reg
        self._prefix = prefix
        self._chains: dict[str, Any] = {}

    def note_chain(self, kind: str, chain: int) -> None:
        """Accumulate the serialized-chain depth of one transaction."""
        counter = self._chains.get(kind)
        if counter is None:
            counter = self._chains[kind] = self._registry.counter(
                f"{self._prefix}.chain.{kind}"
            )
        counter.value += chain

    @property
    def chains(self) -> dict[str, int]:
        """Summed chain depth per transaction kind."""
        return {kind: c.value for kind, c in self._chains.items()}


class CacheController:
    """Requester-side coherence engine for one node."""

    def __init__(
        self, node: int, mesh: WormholeMesh, config: SimConfig, machine: Any
    ) -> None:
        self.node = node
        self.mesh = mesh
        self.config = config
        self.machine = machine
        self.sim = machine.sim
        self.events = mesh.events
        registry = getattr(machine, "registry", None)
        self.cache = Cache(config.machine, registry, name=f"cache.{node}")
        self.mshr = Mshr()
        self.reservation = LocalReservation()
        self.stats = ControllerStats(registry, prefix=f"ctrl.{node}")
        self.last_chain = 0
        # Spurious reservation loss (paper §2.1: context switches / TLB
        # exceptions reset the LLbit on real processors).  The RNG is
        # only ever drawn when the rate is non-zero, so only then built.
        self._spurious_rate = config.spurious_sc_rate
        self._spurious_rng = (
            random.Random((config.seed << 8) ^ node)
            if self._spurious_rate else None
        )
        # Hot-path caches (cProfile-guided): timing constants off the
        # frozen config, the address geometry and the machine's
        # block -> policy map, all resolved once.  Block and word sizes
        # are powers of two (MachineConfig checks), so a word's offset
        # in its block is (addr & _block_mask) >> _word_shift, computed
        # inline where it is read; execute() checks alignment first.
        timing = config.timing
        self._t_hit = timing.cache_hit
        self._t_occ = timing.controller_occupancy
        address = machine.address
        self._block_bits = address.block_bits
        self._n_nodes = address.n_nodes
        self._block_mask = address.block_size - 1
        self._word_shift = address.word_size.bit_length() - 1
        self._align_mask = address.word_size - 1
        self._policies = machine._policies
        mesh.register(node, Unit.CACHE, self.handle)

    # ==================================================================
    # Observability helpers.
    #
    # Every emission site tests ``events.active`` before it builds any
    # event fields, so a machine with no subscribers pays one attribute
    # check and never constructs an Event — the simulation itself is
    # never perturbed.
    # ==================================================================

    def _emit_transition(self, block: int, frm: LineState | None,
                         to: LineState | None) -> None:
        if self.events.active and frm is not to:
            self.events.emit(
                "cache.transition", self.sim.now, node=self.node, block=block,
                frm=frm.value if frm is not None else "invalid",
                to=to.value if to is not None else "invalid",
            )

    def _grant_reservation(
        self, block: int, addr: int,
        token: Optional[int] = None, doomed: bool = False,
    ) -> None:
        """Record an LL reservation (and announce it on the bus)."""
        self.reservation.set(block, addr, token=token, doomed=doomed)
        if self.events.active:
            self.events.emit("res.grant", self.sim.now, node=self.node,
                             block=block, addr=addr, doomed=doomed)

    def _revoke_reservation(self, reason: str,
                            by: Optional[int] = None) -> None:
        """Kill the LL reservation, noting why (and whose write did it)."""
        res = self.reservation
        if res.valid and self.events.active:
            self.events.emit("res.revoke", self.sim.now, node=self.node,
                             block=res.block, reason=reason, by=by)
        res.clear()

    # ==================================================================
    # Processor-facing interface.
    # ==================================================================

    def execute(self, op: Any, callback: Callback) -> None:
        """Perform ``op`` and eventually call ``callback(result)``.

        The block's sync policy picks a route table (:data:`_ROUTES`)
        and the operation's type picks the route within it.  A word
        operation on a misaligned address raises before it touches the
        cache or the network; ``drop_copy`` addresses a whole block.
        """
        self.stats.ops += 1
        addr = op.addr
        if addr < 0:
            raise AddressError(f"negative address {addr}")
        if addr & self._align_mask and type(op) is not DropCopy:
            raise AddressError(f"address {addr:#x} is not word aligned")
        block = addr >> self._block_bits
        policy = self._policies.get(block, _INV)
        if self.events.active:
            self.events.emit(
                "atomic.start", self.sim.now, node=self.node,
                op=type(op).__name__, addr=addr, block=block,
                policy=policy.value)
        route = _ROUTES[policy].get(type(op))
        if route is None:
            raise ProtocolError(f"cannot execute {op!r} under {policy.value}")
        route(self, op, block, callback)

    # ------------------------------------------------------------------
    # Memory-side routes (UNC for everything, UPD for writes and LL/SC,
    # INVd/INVs for a compare_and_swap that misses).  Each opens a
    # SYNC_REQ transaction whose payload names the operation and the
    # word's address and offset.
    # ------------------------------------------------------------------

    def _sync_load(self, op: Any, block: int, callback: Callback) -> None:
        addr = op.addr
        self._start_txn(op, block, callback, "sync_load", _SYNC_REQ, {
            "kind": "load", "addr": addr,
            "offset": (addr & self._block_mask) >> self._word_shift})

    def _sync_store(self, op: Store, block: int, callback: Callback) -> None:
        addr = op.addr
        self._start_txn(op, block, callback, "sync_store", _SYNC_REQ, {
            "kind": "store", "value": op.value, "addr": addr,
            "offset": (addr & self._block_mask) >> self._word_shift})

    def _sync_faa(self, op: FetchAndPhi, block: int,
                  callback: Callback) -> None:
        addr = op.addr
        self._start_txn(op, block, callback, "sync_faa", _SYNC_REQ, {
            "kind": "faa", "phi": op.phi, "operand": op.operand,
            "addr": addr,
            "offset": (addr & self._block_mask) >> self._word_shift})

    def _sync_cas(self, op: CompareAndSwap, block: int,
                  callback: Callback) -> None:
        addr = op.addr
        self._start_txn(op, block, callback, "sync_cas", _SYNC_REQ, {
            "kind": "cas", "expected": op.expected, "new": op.new,
            "addr": addr,
            "offset": (addr & self._block_mask) >> self._word_shift})

    def _sync_ll(self, op: LoadLinked, block: int, callback: Callback) -> None:
        # The reservation must be set at the memory, which also has the
        # authoritative data — load_linked always travels (paper §3).
        addr = op.addr
        self._start_txn(op, block, callback, "sync_ll", _SYNC_REQ, {
            "kind": "ll", "addr": addr,
            "offset": (addr & self._block_mask) >> self._word_shift})

    def _spurious_reservation_loss(self) -> bool:
        """Model §2.1's spurious reservation invalidations, if enabled."""
        if self._spurious_rate and self.reservation.valid:
            if self._spurious_rng.random() < self._spurious_rate:
                self._revoke_reservation("spurious")
                self.stats.spurious_losses += 1
                return True
        return False

    def _store_conditional_memory(
        self, op: StoreConditional, block: int, callback: Callback
    ) -> None:
        """Memory-side store_conditional with local fast-fail paths."""
        self._spurious_reservation_loss()
        res = self.reservation
        token = op.token
        if token is None and res.valid and res.addr == op.addr:
            token = res.token
            if res.doomed:
                # Over-limit reservation: guaranteed failure, no traffic.
                self._revoke_reservation("doomed")
                self.stats.sc_local_failures += 1
                self._hit_result(False, callback)
                return
        if token is None and not (res.valid and res.addr == op.addr):
            # No reservation was ever established and no explicit token:
            # the store_conditional cannot succeed; fail locally.
            self.stats.sc_local_failures += 1
            self._hit_result(False, callback)
            return
        addr = op.addr
        if res.valid and res.addr == addr:
            self._revoke_reservation("sc_consumed")
        self._start_txn(op, block, callback, "sync_sc", _SYNC_REQ, {
            "kind": "sc", "value": op.value, "token": token, "addr": addr,
            "offset": (addr & self._block_mask) >> self._word_shift})

    # ------------------------------------------------------------------
    # Cached routes: INV-family primitives execute here on an exclusive
    # copy; loads (UPD's too) hit any valid copy.  Each route makes
    # exactly one touching cache lookup.
    # ------------------------------------------------------------------

    def _load(self, op: Any, block: int, callback: Callback) -> None:
        line = self.cache.lookup(block)
        if line is not None:
            addr = op.addr
            offset = (addr & self._block_mask) >> self._word_shift
            self._hit(addr, line.read_word(offset), callback,
                      is_write=False)
        else:
            self._start_txn(op, block, callback, "load", _GETS, {})

    def _load_exclusive(self, op: LoadExclusive, block: int,
                        callback: Callback) -> None:
        line = self.cache.lookup(block)
        if line is not None and line.state is _EXCLUSIVE:
            addr = op.addr
            offset = (addr & self._block_mask) >> self._word_shift
            self._hit(addr, line.read_word(offset), callback,
                      is_write=False)
        else:
            self._start_txn(op, block, callback, "lx", _GETX, {})

    def _store(self, op: Store, block: int, callback: Callback) -> None:
        line = self.cache.lookup(block)
        if line is not None and line.state is _EXCLUSIVE:
            addr = op.addr
            line.write_word((addr & self._block_mask) >> self._word_shift,
                            op.value)
            self._hit(addr, None, callback, is_write=True)
        else:
            self._start_txn(op, block, callback, "store", _GETX, {})

    def _fetch_phi(self, op: FetchAndPhi, block: int,
                   callback: Callback) -> None:
        line = self.cache.lookup(block)
        if line is not None and line.state is _EXCLUSIVE:
            addr = op.addr
            offset = (addr & self._block_mask) >> self._word_shift
            old = line.read_word(offset)
            line.write_word(offset, apply_phi(op.phi, old, op.operand))
            self._hit(addr, old, callback, is_write=True, atomic=True)
        else:
            self._start_txn(op, block, callback, "faa", _GETX, {})

    def _cas(self, op: CompareAndSwap, block: int, callback: Callback) -> None:
        """INV: acquire an exclusive copy unconditionally, compare locally."""
        if not self._cas_hit(op, block, callback):
            self._start_txn(op, block, callback, "cas", _GETX, {})

    def _cas_delegated(self, op: CompareAndSwap, block: int,
                       callback: Callback) -> None:
        """INVd/INVs: let the home (or the owner) do the comparison so a
        failing CAS does not invalidate other copies."""
        if not self._cas_hit(op, block, callback):
            self._sync_cas(op, block, callback)

    def _cas_hit(self, op: CompareAndSwap, block: int,
                 callback: Callback) -> bool:
        """Compare and swap on an exclusive copy; False if there is none."""
        line = self.cache.lookup(block)
        if line is None or line.state is not _EXCLUSIVE:
            return False
        addr = op.addr
        offset = (addr & self._block_mask) >> self._word_shift
        old = line.read_word(offset)
        success = old == op.expected
        if success:
            line.write_word(offset, op.new)
        self._hit(addr, CasResult(success, old), callback,
                  is_write=success, atomic=True)
        return True

    def _load_linked(self, op: LoadLinked, block: int,
                     callback: Callback) -> None:
        line = self.cache.lookup(block)
        if line is not None:
            addr = op.addr
            offset = (addr & self._block_mask) >> self._word_shift
            self._grant_reservation(block, addr)
            self._hit(addr, LLValue(line.read_word(offset)), callback,
                      is_write=False)
        else:
            self._start_txn(op, block, callback, "ll_inv", _GETS, {})

    def _store_conditional(self, op: StoreConditional, block: int,
                           callback: Callback) -> None:
        line = self.cache.lookup(block)
        self._spurious_reservation_loss()
        res = self.reservation
        addr = op.addr
        if not (res.valid and res.addr == addr):
            self.stats.sc_local_failures += 1
            self._hit_result(False, callback)
            return
        if line is not None and line.state is _EXCLUSIVE:
            # Exclusive and reserved: succeed entirely locally.
            self._revoke_reservation("sc_consumed")
            line.write_word((addr & self._block_mask) >> self._word_shift,
                            op.value)
            self._hit(addr, True, callback, is_write=True, atomic=True)
            return
        if line is not None and line.state is _SHARED:
            # The home arbitrates: success iff the line is still shared.
            offset = (addr & self._block_mask) >> self._word_shift
            self._start_txn(op, block, callback, "sc_inv",
                            MessageType.SC_REQ,
                            {"addr": addr, "offset": offset})
            return
        # Line gone; the invalidation should have killed the reservation,
        # but be defensive: fail locally.
        self._revoke_reservation("line_gone")
        self.stats.sc_local_failures += 1
        self._hit_result(False, callback)

    # ------------------------------------------------------------------
    # drop_copy (every policy).
    # ------------------------------------------------------------------

    def _drop_copy(self, op: DropCopy, block: int, callback: Callback) -> None:
        line = self.cache.lookup(block, touch=False)
        if line is not None and not self.mshr.pending_for(block):
            self._relinquish(block, line)
        if self.events.active:
            self.events.emit("atomic.complete", self.sim.now + self._t_occ,
                             node=self.node, block=block, local=True)
        self.sim.schedule(self._t_occ, callback, None)

    def _relinquish(self, block: int, line: Any) -> None:
        """Give up a cached line: write back or send a drop notice."""
        if line.state is LineState.EXCLUSIVE:
            self._send_unsolicited(MessageType.WB, block, data=list(line.data))
        else:
            self._send_unsolicited(MessageType.DROP, block)
        self._emit_transition(block, line.state, None)
        self.cache.drop(block)
        if self.reservation.block == block:
            self._revoke_reservation("drop_copy")

    # ==================================================================
    # Transaction plumbing.
    # ==================================================================

    def _hit(
        self,
        addr: int,
        result: Any,
        callback: Callback,
        is_write: bool,
        atomic: bool = False,
    ) -> None:
        """Complete an operation that was satisfied locally."""
        self.stats.local_hits += 1
        self.last_chain = 0
        self.machine.stats.writerun.note_access(addr, self.node, is_write)
        delay = self._t_occ if atomic else self._t_hit
        if self.events.active:
            self.events.emit("atomic.complete", self.sim.now + delay,
                             node=self.node, addr=addr, local=True)
        self.sim.schedule(delay, callback, result)

    def _hit_result(self, result: Any, callback: Callback) -> None:
        """Complete a local operation that touched no memory state."""
        self.last_chain = 0
        if self.events.active:
            self.events.emit("atomic.complete", self.sim.now + self._t_hit,
                             node=self.node, local=True)
        self.sim.schedule(self._t_hit, callback, result)

    def _start_txn(
        self,
        op: Any,
        block: int,
        callback: Callback,
        txn_kind: str,
        mtype: MessageType,
        payload: dict[str, Any],
    ) -> None:
        """Open a transaction whose request carries ``payload``.

        The request and any OWNER_NAK reissue send ``payload`` itself:
        payloads are never mutated after send (see
        :mod:`repro.network.message`).
        """
        mshr = self.mshr
        if mshr.current is not None:
            # The processor blocks on every memory operation, so this
            # is a bug, not a resource stall.
            raise ProtocolError(
                f"MSHR busy with block {mshr.current.block}, "
                f"cannot start block {block}")
        txn = mshr.current = Transaction(op, block, callback, txn_kind, mtype,
                                         payload)
        self._issue(txn)

    def _issue(self, txn: Transaction) -> None:
        node = self.node
        block = txn.block
        # Block-interleaved memory: AddressSpace.home_of, inlined.
        home = block % self._n_nodes
        chain = txn.chain
        if home != node:
            chain += 1
            txn.chain = chain
        self.mesh.send(Message(txn.request_mtype, node, home, _HOME, block,
                               chain, node, txn.request_payload))

    def _send_unsolicited(self, mtype: MessageType, block: int, **payload) -> None:
        node = self.node
        self.mesh.send(Message(mtype, node, block % self._n_nodes, _HOME,
                               block, 0, node, payload))

    def _reply_to(
        self, msg: Message, mtype: MessageType, dst: int, unit: Unit, **payload
    ) -> None:
        node = self.node
        chain = msg.chain + (1 if dst != node else 0)
        self.mesh.send(Message(mtype, node, dst, unit, msg.block, chain,
                               msg.requester, payload))

    # ==================================================================
    # Network handler.
    # ==================================================================

    def handle(self, msg: Message) -> None:
        """Delivery point for all CACHE-unit messages at this node."""
        mtype = msg.mtype
        if mtype in _REPLIES:
            self._on_reply(msg)
        elif mtype in _ACKS:
            self._on_ack(msg)
        elif mtype is MessageType.OWNER_NAK:
            self._on_owner_nak(msg)
        elif mtype is MessageType.INV:
            self._on_inv(msg)
        elif mtype is MessageType.UPDATE:
            self._on_update(msg)
        elif mtype in _RECALLS:
            txn = self.mshr.current
            if (txn is not None and txn.block == msg.block
                    and txn.reply is not None):
                # Our exclusive grant is in hand but acks are still
                # arriving: we are the new owner, so hold the recall until
                # the transaction completes.  (A recall cannot overtake the
                # grant: both travel home->us, in order.)
                self.mshr.defer(msg)
            else:
                # No transaction, or ours has not been granted yet.  In the
                # latter case the directory's ownership record is stale (we
                # dropped or evicted the line; the writeback is in flight),
                # and deferring would deadlock the home against our own
                # queued request — answer the recall now (NAK if the line
                # is gone).
                self._on_recall(msg)
        else:
            raise ProtocolError(f"cache {self.node} cannot handle {msg}")

    # Replies, acks and NAKs run once or more per transaction, so each
    # matches the transaction, keeps its deepest chain and tests for
    # completion in its own frame.

    def _unmatched(self, msg: Message) -> ProtocolError:
        return ProtocolError(
            f"node {self.node}: {msg} matches no outstanding transaction")

    def _on_reply(self, msg: Message) -> None:
        txn = self.mshr.current
        if txn is None or txn.block != msg.block:
            raise self._unmatched(msg)
        txn.reply = msg
        acks = txn.acks_needed = msg.payload.get("acks", 0)
        chain = msg.chain
        if chain > txn.chain:
            txn.chain = chain
        if txn.acks_got == acks:
            self._finish(txn)

    def _on_ack(self, msg: Message) -> None:
        txn = self.mshr.current
        if txn is None or txn.block != msg.block:
            raise self._unmatched(msg)
        acks = txn.acks_got = txn.acks_got + 1
        chain = msg.chain
        if chain > txn.chain:
            txn.chain = chain
        if txn.reply is not None and acks == txn.acks_needed:
            self._finish(txn)

    def _on_owner_nak(self, msg: Message) -> None:
        txn = self.mshr.current
        if txn is None or txn.block != msg.block:
            raise self._unmatched(msg)
        txn.retries += 1
        self.stats.nak_retries += 1
        if txn.retries > Mshr.MAX_RETRIES:
            raise ProtocolError(f"transaction for block {txn.block} livelocked")
        if msg.chain > txn.chain:
            txn.chain = msg.chain
        txn.reply = None
        txn.acks_needed = None
        txn.acks_got = 0
        self.sim.schedule(self.config.timing.controller_occupancy,
                          self._issue, txn)

    def _on_inv(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block, touch=False)
        if line is not None:
            self._emit_transition(msg.block, line.state, None)
            line.invalidate()
            self.cache.drop(msg.block)
        if self.reservation.block == msg.block:
            self._revoke_reservation("invalidated", by=msg.requester)
        self._reply_to(msg, MessageType.INV_ACK, msg.requester, Unit.CACHE)

    def _on_update(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block, touch=False)
        if line is not None:
            line.data = list(msg.payload["data"])
        self._reply_to(msg, MessageType.UPDATE_ACK, msg.requester, Unit.CACHE)

    # ------------------------------------------------------------------
    # Recalls (home -> owner).
    # ------------------------------------------------------------------

    def _on_recall(self, msg: Message) -> None:
        line = self.cache.lookup(msg.block, touch=False)
        home = msg.block % self._n_nodes
        if line is None or line.state is not LineState.EXCLUSIVE:
            # We dropped or evicted the line; the writeback is in flight.
            self._reply_to(msg, MessageType.FLUSH_NAK, home, Unit.HOME,
                           reason="gone")
            self._reply_to(msg, MessageType.OWNER_NAK, msg.requester,
                           Unit.CACHE)
            return
        if msg.mtype is MessageType.FLUSH_REQ:
            data = list(line.data)
            self._emit_transition(msg.block, line.state, None)
            self.cache.drop(msg.block)
            if self.reservation.block == msg.block:
                self._revoke_reservation("recalled", by=msg.requester)
            self._reply_to(msg, MessageType.FLUSH_REPLY, home, Unit.HOME,
                           data=data)
        elif msg.mtype is MessageType.DOWNGRADE_REQ:
            self._emit_transition(msg.block, line.state, LineState.SHARED)
            line.state = LineState.SHARED
            data = list(line.data)
            line.dirty = False
            self._reply_to(msg, MessageType.SHARE_WB, home, Unit.HOME,
                           data=data)
        elif msg.mtype is MessageType.CAS_CMP:
            self._on_cas_cmp(msg, line, home)
        else:  # pragma: no cover - guarded by _RECALLS
            raise ProtocolError(f"bad recall {msg}")

    def _on_cas_cmp(self, msg: Message, line: Any, home: int) -> None:
        """Delegated INVd/INVs comparison at the owning cache."""
        offset = msg.payload["offset"]
        old = line.read_word(offset)
        if old == msg.payload["expected"]:
            # Success: surrender the line; the requester takes it exclusive
            # and applies the new value there.
            data = list(line.data)
            self._emit_transition(msg.block, line.state, None)
            self.cache.drop(msg.block)
            if self.reservation.block == msg.block:
                self._revoke_reservation("cas_taken", by=msg.requester)
            self._reply_to(msg, MessageType.FLUSH_REPLY, home, Unit.HOME,
                           data=data, cas_ok=True, old=old)
            return
        if msg.payload["variant"] is SyncPolicy.INVD:
            # Failure, deny: keep our exclusive copy; tell the requester
            # directly and release the home.
            self._reply_to(msg, MessageType.CAS_FAIL, msg.requester,
                           Unit.CACHE, old=old)
            self._reply_to(msg, MessageType.FLUSH_NAK, home, Unit.HOME,
                           reason="cas_fail")
        else:
            # Failure, share: demote to shared; the home sends the
            # requester a read-only copy with the failure result.
            self._emit_transition(msg.block, line.state, LineState.SHARED)
            line.state = LineState.SHARED
            line.dirty = False
            self._reply_to(msg, MessageType.SHARE_WB, home, Unit.HOME,
                           data=list(line.data), cas_fail=True, old=old)

    # ==================================================================
    # Completion.
    # ==================================================================

    def _finish(self, txn: Transaction) -> None:
        """Complete ``txn``: run its kind's completion action
        (:data:`_COMPLETIONS`), free the MSHR slot and account for it."""
        kind = txn.kind
        complete = _COMPLETIONS.get(kind)
        if complete is None:
            raise ProtocolError(f"unknown transaction kind {kind!r}")
        reply = txn.reply
        result = complete(self, txn, reply, reply.payload.get("data"))
        mshr = self.mshr
        mshr.current = None
        chain = txn.chain
        block = txn.block
        self.last_chain = chain
        self.stats.note_chain(kind, chain)
        if mshr.deferred:
            # Serve remote requests that arrived while we were in flight.
            for deferred in mshr.take_deferred(block):
                self._on_recall(deferred)
        if self.events.active:
            self.events.emit("atomic.complete", self.sim._now + self._t_occ,
                             node=self.node, block=block, op=kind, chain=chain,
                             local=False,
                             policy=self._policies.get(block, _INV).value)
        self.sim.schedule(self._t_occ, txn.callback, result)

    def _complete_load(
        self, txn: Transaction, reply: Message, data: list[int]
    ) -> int:
        """A shared copy arrived for a load."""
        addr = txn.op.addr
        self._install(txn.block, _SHARED, data)
        self.machine.stats.writerun.note_access(addr, self.node, False)
        return data[(addr & self._block_mask) >> self._word_shift]

    def _complete_ll_inv(
        self, txn: Transaction, reply: Message, data: list[int]
    ) -> LLValue:
        """A shared copy arrived for an INV-policy load_linked."""
        addr = txn.op.addr
        self._install(txn.block, _SHARED, data)
        self._grant_reservation(txn.block, addr)
        self.machine.stats.writerun.note_access(addr, self.node, False)
        return LLValue(data[(addr & self._block_mask) >> self._word_shift])

    def _complete_exclusive(
        self, txn: Transaction, reply: Message, data: list[int]
    ) -> Any:
        """Install an exclusive copy and run the operation locally."""
        if reply.mtype is not MessageType.DATA_X:
            raise ProtocolError(f"{txn.kind} expected DATA_X, got {reply}")
        op = txn.op
        offset = (op.addr & self._block_mask) >> self._word_shift
        line_data = list(data)
        kind = txn.kind
        if kind == "lx":
            result: Any = line_data[offset]
            dirty = False
            is_write = False
        elif kind == "store":
            line_data[offset] = op.value
            result = None
            dirty = True
            is_write = True
        elif kind == "faa":
            old = line_data[offset]
            line_data[offset] = apply_phi(op.phi, old, op.operand)
            result = old
            dirty = True
            is_write = True
        else:  # cas (plain INV: compare locally on the fresh copy)
            old = line_data[offset]
            success = old == op.expected
            if success:
                line_data[offset] = op.new
            result = CasResult(success, old)
            dirty = success
            is_write = success
        self._install(txn.block, LineState.EXCLUSIVE, line_data, dirty=dirty)
        self.machine.stats.writerun.note_access(op.addr, self.node, is_write)
        return result

    def _complete_sc_inv(
        self, txn: Transaction, reply: Message, data: Any
    ) -> bool:
        """INV-policy store_conditional arbitration came back."""
        op = txn.op
        self._revoke_reservation("sc_consumed")
        if reply.mtype is MessageType.SC_FAIL:
            return False
        if not reply.payload.get("sc_grant"):
            raise ProtocolError(f"sc_inv expected SC grant, got {reply}")
        line = self.cache.lookup(txn.block, touch=False)
        if line is None:
            raise ProtocolError("SC granted but the shared copy vanished")
        self._emit_transition(txn.block, line.state, LineState.EXCLUSIVE)
        line.state = LineState.EXCLUSIVE
        line.write_word((op.addr & self._block_mask) >> self._word_shift,
                        op.value)
        self.machine.stats.writerun.note_access(op.addr, self.node, True)
        return True

    def _complete_sync(self, txn: Transaction, reply: Message, data: Any) -> Any:
        """Memory-side operation finished (UNC/UPD/INVd/INVs)."""
        op = txn.op
        kind = txn.kind

        if reply.mtype is MessageType.DATA_X and reply.payload.get("cas_granted"):
            # INVd/INVs comparison succeeded: we take the line exclusive
            # and apply the new value here.
            offset = (op.addr & self._block_mask) >> self._word_shift
            line_data = list(data)
            old = reply.payload.get("old", line_data[offset])
            line_data[offset] = op.new
            self._install(txn.block, LineState.EXCLUSIVE, line_data, dirty=True)
            return CasResult(True, old)

        if reply.mtype is MessageType.CAS_FAIL:
            # INVd failure answered directly by the owner; no copy for us.
            return CasResult(False, reply.payload.get("old", 0))

        if reply.mtype is not MessageType.SYNC_REPLY:
            raise ProtocolError(f"{kind} expected SYNC_REPLY, got {reply}")

        if data is not None:
            # UPD result or INVs failure: we hold/refresh a shared copy.
            self._install(txn.block, LineState.SHARED, data)

        result = reply.payload.get("result")
        if kind == "sync_ll":
            _tag, value, token, doomed = result
            self._grant_reservation(txn.block, op.addr, token=token,
                                    doomed=doomed)
            return LLValue(value, token=token, doomed=doomed)
        if kind == "sync_sc":
            return result[1]
        if kind == "sync_cas":
            _tag, success, old = result
            return CasResult(success, old)
        return result

    def _install(
        self, block: int, state: LineState, data: list[int], dirty: bool = False
    ) -> None:
        """Install a line, writing back or dropping any evicted victim."""
        if self.events.active:
            prev = self.cache.lookup(block, touch=False)
            self._emit_transition(
                block, prev.state if prev is not None else None, state
            )
        victim = self.cache.install(block, state, data, dirty=dirty)
        if victim is None:
            return
        self._emit_transition(victim.block, victim.state, None)
        if victim.state is LineState.EXCLUSIVE:
            self._send_unsolicited(MessageType.WB, victim.block,
                                   data=victim.data)
        else:
            self._send_unsolicited(MessageType.DROP, victim.block)
        if self.reservation.block == victim.block:
            self._revoke_reservation("evicted")


# Route tables: sync policy -> operation type -> route.  UPD reads hit
# shared copies; every other UPD operation, and every UNC operation,
# goes to the memory.
_UNC_ROUTES = {
    Load: CacheController._sync_load,
    LoadExclusive: CacheController._sync_load,
    Store: CacheController._sync_store,
    FetchAndPhi: CacheController._sync_faa,
    CompareAndSwap: CacheController._sync_cas,
    LoadLinked: CacheController._sync_ll,
    StoreConditional: CacheController._store_conditional_memory,
    DropCopy: CacheController._drop_copy,
}
_UPD_ROUTES = {
    **_UNC_ROUTES,
    Load: CacheController._load,
    LoadExclusive: CacheController._load,
}
_INV_ROUTES = {
    Load: CacheController._load,
    LoadExclusive: CacheController._load_exclusive,
    Store: CacheController._store,
    FetchAndPhi: CacheController._fetch_phi,
    CompareAndSwap: CacheController._cas,
    LoadLinked: CacheController._load_linked,
    StoreConditional: CacheController._store_conditional,
    DropCopy: CacheController._drop_copy,
}
_DELEGATED_CAS_ROUTES = {
    **_INV_ROUTES,
    CompareAndSwap: CacheController._cas_delegated,
}
_ROUTES = {
    SyncPolicy.INV: _INV_ROUTES,
    SyncPolicy.INVD: _DELEGATED_CAS_ROUTES,
    SyncPolicy.INVS: _DELEGATED_CAS_ROUTES,
    SyncPolicy.UPD: _UPD_ROUTES,
    SyncPolicy.UNC: _UNC_ROUTES,
}

# Transaction kind -> completion action.
_COMPLETIONS = {
    "load": CacheController._complete_load,
    "ll_inv": CacheController._complete_ll_inv,
    "lx": CacheController._complete_exclusive,
    "store": CacheController._complete_exclusive,
    "faa": CacheController._complete_exclusive,
    "cas": CacheController._complete_exclusive,
    "sc_inv": CacheController._complete_sc_inv,
    **dict.fromkeys(("sync_load", "sync_store", "sync_faa", "sync_cas",
                     "sync_ll", "sync_sc"), CacheController._complete_sync),
}
