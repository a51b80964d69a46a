"""Coherence-protocol message definitions.

Every transaction in the machine is carried by :class:`Message` objects.
Each message records ``chain``, the number of serialized network messages
that preceded it (inclusive) within its transaction — the quantity the
paper's Table 1 reports.  When a component forwards or answers a message it
constructs the successor with ``chain = incoming.chain + 1``; messages sent
in parallel (e.g. an invalidation multicast) share the same chain value.

``Message`` is a ``__slots__`` class built once per hop and never reused:
a handler may keep a message it received (a reply parked in
``txn.reply`` until its transaction completes, a request queued on a
directory entry or deferred in an MSHR) for as long as it likes.
``msg_id`` comes off one global counter, so ids, and therefore traces,
depend only on the order messages are built.

A payload is never mutated after its message is sent.  Senders may
therefore hand the same dict to several messages: a requester reissues
its transaction's request payload as is after an OWNER_NAK, and a home's
INV or UPDATE multicast gives every target's message the same dict.
Handlers only read payloads; anything they keep is copied out
(``list(msg.payload["data"])``).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

__all__ = ["MessageType", "Unit", "Message"]

_msg_ids = itertools.count()


class Unit(enum.Enum):
    """Destination unit within a node."""

    CACHE = "cache"
    HOME = "home"

    __hash__ = object.__hash__  # identity; see MessageType


class MessageType(enum.Enum):
    """Protocol message types.

    Requests travel requester→home; the home either answers directly or
    involves the current owner / sharers.  See DESIGN.md §5 for the
    transaction flows.
    """

    # Requester -> home.
    GETS = "GETS"  # read, want a shared copy
    GETX = "GETX"  # write/atomic, want an exclusive copy
    SYNC_REQ = "SYNC_REQ"  # memory-side operation (UNC/UPD/INVd/INVs/LLSC)
    SC_REQ = "SC_REQ"  # INV-policy store_conditional from a shared line

    # Home -> requester.
    DATA_S = "DATA_S"  # shared copy grant
    DATA_X = "DATA_X"  # exclusive copy grant
    SYNC_REPLY = "SYNC_REPLY"  # result of a memory-side operation
    SC_FAIL = "SC_FAIL"  # store_conditional failure

    # Home -> owner and back (ownership transfer through the home).
    FLUSH_REQ = "FLUSH_REQ"  # recall an exclusive line (invalidate+writeback)
    DOWNGRADE_REQ = "DOWNGRADE_REQ"  # demote exclusive to shared
    CAS_CMP = "CAS_CMP"  # INVd/INVs comparison delegated to the owner
    FLUSH_REPLY = "FLUSH_REPLY"  # owner -> home: data, line surrendered
    SHARE_WB = "SHARE_WB"  # owner -> home: data, line now shared
    FLUSH_NAK = "FLUSH_NAK"  # owner no longer has the line

    # Home -> sharers, sharers -> requester.
    INV = "INV"  # invalidate a shared copy
    INV_ACK = "INV_ACK"  # acknowledgment, sent to the *requester*
    UPDATE = "UPDATE"  # write-update of a shared copy
    UPDATE_ACK = "UPDATE_ACK"  # acknowledgment, sent to the *requester*

    # Owner/INVd/INVs fast paths (owner -> requester).
    CAS_FAIL = "CAS_FAIL"  # comparison failed at home/owner
    OWNER_NAK = "OWNER_NAK"  # owner raced a drop_copy; requester retries

    # Unsolicited cache -> home traffic.
    WB = "WB"  # writeback of a dirty exclusive line
    DROP = "DROP"  # notice that a shared copy was dropped/evicted

    # Members are singletons compared by identity, so hashing by identity
    # answers every dict/set probe exactly as Enum's name hash does,
    # without a Python-level ``__hash__`` call per probe.
    __hash__ = object.__hash__

    @property
    def carries_data(self) -> bool:
        """True for messages that carry a full cache block."""
        return self in _DATA_MESSAGES


_DATA_MESSAGES = frozenset(
    {
        MessageType.DATA_S,
        MessageType.DATA_X,
        MessageType.SYNC_REPLY,
        MessageType.FLUSH_REPLY,
        MessageType.SHARE_WB,
        MessageType.UPDATE,
        MessageType.WB,
        MessageType.CAS_FAIL,
    }
)


class Message:
    """One protocol message in flight.

    Attributes:
        mtype: Protocol message type.
        src: Sending node id.
        dst: Receiving node id.
        unit: Which unit at ``dst`` handles the message.
        block: Block number the message concerns.
        txn: The requester's :class:`~repro.cache.mshr.Transaction`, or
            None for traffic no transaction waits on; carried so acks
            complete the right transaction and each hop credits its
            cycles to the transaction's latency breakdown.  A reply
            parked in ``txn.reply`` is dropped when the transaction
            completes, so the two never form a reference cycle.
        chain: Serialized-message count including this message.
        requester: Node id of the transaction's originator.
        payload: Message-specific fields (operation descriptors, data
            words, ack counts, ...).  Never mutated after send, so the
            messages of one multicast share one payload dict.
    """

    __slots__ = ("mtype", "src", "dst", "unit", "block", "txn", "chain",
                 "requester", "payload", "msg_id")

    def __init__(
        self,
        mtype: MessageType,
        src: int,
        dst: int,
        unit: Unit,
        block: int,
        txn: Any = None,
        chain: int = 1,
        requester: int = -1,
        payload: Optional[dict[str, Any]] = None,
        msg_id: Optional[int] = None,
    ) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.unit = unit
        self.block = block
        self.txn = txn
        self.chain = chain
        self.requester = requester
        self.payload = {} if payload is None else payload
        self.msg_id = next(_msg_ids) if msg_id is None else msg_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.mtype.value} {self.src}->{self.dst} "
            f"block={self.block} chain={self.chain})"
        )
