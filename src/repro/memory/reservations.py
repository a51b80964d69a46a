"""Reservation bookkeeping for in-memory load_linked/store_conditional.

When LL/SC is implemented at the memory (the UNC and UPD policies), the
memory must remember which processors hold reservations on each block.
Section 3.1 of the paper discusses four options; we implement three as
interchangeable strategies:

* :class:`BitVectorReservations` — one reservation bit per processor per
  block (conceptually a bit vector in the directory entry).  Exact
  semantics, quadratic total directory growth.
* :class:`LimitedReservations` — at most ``k`` concurrent reservations per
  block.  A load_linked beyond the limit is told immediately that it is
  *doomed*: its store_conditional can then fail locally with no network
  traffic.  Compromises lock-freedom under very high contention.
* :class:`SerialNumberReservations` — a per-block write serial number.
  load_linked returns the current serial number; store_conditional
  succeeds only if the serial number is unchanged.  No per-processor
  state, immune to the ABA/pointer problem, and allows a *bare*
  store_conditional (one not preceded by load_linked) — the paper's
  preferred design.

All strategies share one interface so the home-node protocol never needs
to know which is configured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError

__all__ = [
    "LLGrant",
    "ReservationTable",
    "BitVectorReservations",
    "LimitedReservations",
    "SerialNumberReservations",
    "make_reservation_table",
]


@dataclass(frozen=True)
class LLGrant:
    """What the memory tells a load_linked requester.

    Attributes:
        doomed: True if the reservation could not be recorded; the matching
            store_conditional is guaranteed to fail and may do so locally.
        token: Strategy-specific token the requester must present to
            store_conditional (the serial number for
            :class:`SerialNumberReservations`; ``None`` otherwise).
    """

    doomed: bool = False
    token: Optional[int] = None


#: The two answers of the tables that keep no serial number.
_GRANTED = LLGrant()
_DOOMED = LLGrant(doomed=True)


class ReservationTable:
    """Interface for per-block LL/SC reservation bookkeeping at a memory."""

    # Fault-injection plane: the machine installs its injector plus the
    # table's home-node index on each instance (docs/robustness.md).
    # The class defaults keep bare tables (tests, tools) fault-free.
    faults = None
    fault_node = 0

    def load_linked(self, pid: int, block: int) -> LLGrant:
        """Record a reservation for ``pid`` on ``block``."""
        raise NotImplementedError

    def check(self, pid: int, block: int, token: Optional[int]) -> bool:
        """Would a store_conditional by ``pid`` succeed right now?"""
        raise NotImplementedError

    def consume(self, pid: int, block: int, token: Optional[int]) -> bool:
        """Atomically check and, on success, clear ``block``'s reservations.

        Called for a store_conditional arriving at the memory.  On success
        every other processor's reservation dies with the write.
        """
        faults = self.faults
        if faults is not None and faults.res_kill(self.fault_node):
            # Spurious reservation loss (paper §2.1: context switches,
            # TLB exceptions): everything reserved on the block dies
            # just before the check, so this store_conditional fails
            # and its retry loop must recover.
            self.write(block)
        if not self.check(pid, block, token):
            return False
        self.write(block)
        return True

    def write(self, block: int) -> None:
        """A write to ``block`` occurred: all reservations on it die."""
        raise NotImplementedError

    def holders(self, block: int) -> int:
        """Number of live reservations on ``block`` (0 for serial-number)."""
        return 0


class BitVectorReservations(ReservationTable):
    """One reservation bit per processor per block (sparse dict-of-sets)."""

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._bits: dict[int, set[int]] = {}

    def load_linked(self, pid: int, block: int) -> LLGrant:
        bits = self._bits.get(block)
        if bits is None:
            self._bits[block] = {pid}
        else:
            bits.add(pid)
        return _GRANTED

    def check(self, pid: int, block: int, token: Optional[int]) -> bool:
        return pid in self._bits.get(block, ())

    def write(self, block: int) -> None:
        self._bits.pop(block, None)

    def holders(self, block: int) -> int:
        return len(self._bits.get(block, ()))


class LimitedReservations(ReservationTable):
    """At most ``limit`` concurrent reservations per block."""

    def __init__(self, n_nodes: int, limit: int = 4) -> None:
        if limit < 1:
            raise ConfigError("reservation limit must be >= 1")
        self.n_nodes = n_nodes
        self.limit = limit
        self._slots: dict[int, set[int]] = {}
        self.denied = 0

    def load_linked(self, pid: int, block: int) -> LLGrant:
        slots = self._slots.get(block)
        if slots is None:
            self._slots[block] = {pid}
        elif pid not in slots:
            if len(slots) >= self.limit:
                self.denied += 1
                return _DOOMED
            slots.add(pid)
        return _GRANTED

    def check(self, pid: int, block: int, token: Optional[int]) -> bool:
        return pid in self._slots.get(block, ())

    def write(self, block: int) -> None:
        self._slots.pop(block, None)

    def holders(self, block: int) -> int:
        return len(self._slots.get(block, ()))


class SerialNumberReservations(ReservationTable):
    """Per-block write serial numbers (the paper's preferred option).

    The serial number is conceptually a hardware counter wide enough
    (e.g. 32 bits) that wrap-around is not a practical concern; we model it
    as an unbounded integer.  A store_conditional presenting a stale serial
    number fails.  Because success depends only on the (block, serial)
    pair, a processor that knows an expected serial number may issue a bare
    store_conditional with no preceding load_linked.
    """

    def __init__(self, n_nodes: int) -> None:
        self.n_nodes = n_nodes
        self._serial: dict[int, int] = {}

    def current(self, block: int) -> int:
        """The block's current write serial number."""
        return self._serial.get(block, 0)

    def load_linked(self, pid: int, block: int) -> LLGrant:
        return LLGrant(doomed=False, token=self.current(block))

    def check(self, pid: int, block: int, token: Optional[int]) -> bool:
        if token is None:
            return False
        return token == self.current(block)

    def write(self, block: int) -> None:
        self._serial[block] = self.current(block) + 1


class LinkedListReservations(ReservationTable):
    """Reservation lists drawn from a bounded free list (paper §3.1).

    The paper's second option: per-block linked lists of reserver ids,
    with only a list head stored in the directory entry when reservations
    exist.  The nodes come from a finite free list maintained by the
    coherence protocol; when it runs dry, further load_linked's cannot be
    recorded and are *doomed* (their store_conditional's fail locally),
    exactly like the over-limit case of :class:`LimitedReservations`, but
    with the capacity shared across all blocks of the module rather than
    fixed per block.
    """

    def __init__(self, n_nodes: int, pool_size: int = 64) -> None:
        if pool_size < 1:
            raise ConfigError("free-list pool must hold at least one node")
        self.n_nodes = n_nodes
        self.pool_size = pool_size
        self._free = pool_size
        self._lists: dict[int, set[int]] = {}
        self.denied = 0

    def load_linked(self, pid: int, block: int) -> LLGrant:
        holders = self._lists.get(block)
        if holders is not None and pid in holders:
            return _GRANTED
        if self._free == 0:
            self.denied += 1
            return _DOOMED
        self._free -= 1
        if holders is None:
            self._lists[block] = {pid}
        else:
            holders.add(pid)
        return _GRANTED

    def check(self, pid: int, block: int, token: Optional[int]) -> bool:
        return pid in self._lists.get(block, ())

    def write(self, block: int) -> None:
        holders = self._lists.pop(block, None)
        if holders:
            self._free += len(holders)

    def holders(self, block: int) -> int:
        return len(self._lists.get(block, ()))

    @property
    def free_nodes(self) -> int:
        """Reservation nodes left on the free list (for tests/metrics)."""
        return self._free


def make_reservation_table(
    strategy: str, n_nodes: int, limit: int = 4
) -> ReservationTable:
    """Factory mapping :class:`repro.config.SimConfig` names to tables."""
    if strategy == "bitvector":
        return BitVectorReservations(n_nodes)
    if strategy == "limited":
        return LimitedReservations(n_nodes, limit)
    if strategy == "serial":
        return SerialNumberReservations(n_nodes)
    if strategy == "linkedlist":
        return LinkedListReservations(n_nodes, pool_size=max(limit, 1) * 16)
    raise ConfigError(f"unknown reservation strategy {strategy!r}")
