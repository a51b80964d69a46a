"""Outstanding-transaction bookkeeping (MSHR) for a cache controller.

Processors in this machine are blocking — each issues at most one memory
operation at a time — so a single transaction slot per cache suffices.
The MSHR also holds remote requests (flushes, downgrades, delegated CAS
comparisons) that arrived for the block while our own transaction on it
was still in flight; they are replayed once the transaction completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..errors import ProtocolError
from ..network.message import Message

__all__ = ["Transaction", "Mshr"]


@dataclass(slots=True)
class Transaction:
    """One in-flight requester-side transaction.

    Attributes:
        op: The processor operation being performed.
        block: Block number the transaction targets.
        callback: Invoked with the operation result on completion.
        reply: The home/owner reply message, once received.
        acks_needed: Invalidation/update acks to await (known on reply).
        acks_got: Acks received so far (may precede the reply).
        chain: Deepest serialized-message chain observed.
        retries: OWNER_NAK retry count (bounded to catch livelock bugs).
        kind: Controller-internal transaction kind (``"load"``, ``"faa"``,
            ``"sync_cas"``, ...), selecting the completion action.
        request_mtype: Message type of the original request, kept so an
            OWNER_NAK can reissue it.
        request_payload: Payload of the original request, sent as is by
            the request and by every reissue.
        breakdown: Latency attribution for this transaction (a
            :class:`repro.obs.latency.TxnBreakdown`); components credit
            their cycles to it as the transaction flows through them.
    """

    op: Any
    block: int
    callback: Callable[[Any], None]
    reply: Optional[Message] = None
    acks_needed: Optional[int] = None
    acks_got: int = 0
    chain: int = 0
    retries: int = 0
    kind: str = ""
    request_mtype: Any = None
    request_payload: dict = field(default_factory=dict)
    breakdown: Any = None

    def note_chain(self, chain: int) -> None:
        """Track the deepest serialized chain of this transaction."""
        if chain > self.chain:
            self.chain = chain

    @property
    def complete(self) -> bool:
        """True once the reply and all expected acks have arrived."""
        return self.reply is not None and self.acks_got == (self.acks_needed or 0)


class Mshr:
    """Single-slot MSHR plus a deferred-message queue per block."""

    MAX_RETRIES = 1000

    def __init__(self) -> None:
        self.current: Optional[Transaction] = None
        #: Deferred remote requests per block (empty when none wait).
        self.deferred: dict[int, list[Message]] = {}

    def begin(self, txn: Transaction) -> None:
        """Occupy the slot; the processor model guarantees it is free."""
        if self.current is not None:
            raise ProtocolError(
                f"MSHR busy with block {self.current.block}, "
                f"cannot start block {txn.block}"
            )
        self.current = txn

    def finish(self) -> Transaction:
        """Release the slot, returning the completed transaction."""
        if self.current is None:
            raise ProtocolError("MSHR finish with no transaction")
        txn, self.current = self.current, None
        return txn

    def pending_for(self, block: int) -> bool:
        """True if our own transaction on ``block`` is outstanding."""
        return self.current is not None and self.current.block == block

    def defer(self, msg: Message) -> None:
        """Hold a remote request until our transaction on its block ends."""
        self.deferred.setdefault(msg.block, []).append(msg)

    def take_deferred(self, block: int) -> list[Message]:
        """Remove and return deferred messages for ``block``."""
        return self.deferred.pop(block, [])
