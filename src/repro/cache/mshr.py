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

from ..network.message import Message

__all__ = ["Transaction", "Mshr"]


@dataclass(slots=True)
class Transaction:
    """One in-flight requester-side transaction.

    The fields set when the transaction opens come first, so the
    controller builds it positionally.  It is complete once the reply
    and all expected acks have arrived; the controller's reply and ack
    handlers test that, and keep ``chain`` at the deepest serialized
    chain any of its messages carried.  No message refers to a
    transaction, so reference counting frees it once the MSHR slot lets
    go.

    Attributes:
        op: The processor operation being performed.
        block: Block number the transaction targets.
        callback: Invoked with the operation result on completion.
        kind: Controller-internal transaction kind (``"load"``, ``"faa"``,
            ``"sync_cas"``, ...), selecting the completion action.
        request_mtype: Message type of the original request, kept so an
            OWNER_NAK can reissue it.
        request_payload: Payload of the original request, sent as is by
            the request and by every reissue.
        reply: The home/owner reply message, from its arrival until
            the transaction completes.
        acks_needed: Invalidation/update acks to await (known on reply).
        acks_got: Acks received so far (may precede the reply).
        chain: Deepest serialized-message chain observed.
        retries: OWNER_NAK retry count (bounded to catch livelock bugs).
    """

    op: Any
    block: int
    callback: Callable[[Any], None]
    kind: str = ""
    request_mtype: Any = None
    request_payload: dict = field(default_factory=dict)
    reply: Optional[Message] = None
    acks_needed: Optional[int] = None
    acks_got: int = 0
    chain: int = 0
    retries: int = 0


class Mshr:
    """Single-slot MSHR plus a deferred-message queue per block.

    The controller fills the slot (``current``) when it opens a
    transaction, after checking that it is free, and empties it when
    the transaction completes.
    """

    MAX_RETRIES = 1000

    def __init__(self) -> None:
        self.current: Optional[Transaction] = None
        #: Deferred remote requests per block (empty when none wait).
        self.deferred: dict[int, list[Message]] = {}

    def pending_for(self, block: int) -> bool:
        """True if our own transaction on ``block`` is outstanding."""
        return self.current is not None and self.current.block == block

    def defer(self, msg: Message) -> None:
        """Hold a remote request until our transaction on its block ends."""
        self.deferred.setdefault(msg.block, []).append(msg)

    def take_deferred(self, block: int) -> list[Message]:
        """Remove and return deferred messages for ``block``."""
        return self.deferred.pop(block, [])
