"""Operation objects yielded by simulated programs.

A program is a Python generator; every memory access, atomic primitive,
auxiliary instruction, local-compute delay, or experiment-control action is
expressed by yielding one of these objects.  The processor shell hands
memory operations to the cache controller and resumes the generator with
the operation's result:

========================  =====================================
operation                 result of the ``yield``
========================  =====================================
:class:`Load`             the word's value
:class:`Store`            ``None``
:class:`LoadExclusive`    the word's value
:class:`DropCopy`         ``None``
:class:`FetchAndPhi`      the *old* value
:class:`CompareAndSwap`   :class:`CasResult` (truthy on success)
:class:`LoadLinked`       :class:`LLValue`
:class:`StoreConditional` ``bool`` (success)
:class:`Think`            ``None``
:class:`MagicBarrier`     ``None``
:class:`ContendBegin`     ``None`` (statistics hook, zero time)
:class:`ContendEnd`       ``None`` (statistics hook, zero time)
========================  =====================================

Every operation and result is a :class:`typing.NamedTuple`: immutable
(assigning to a field raises ``AttributeError``), hashable, picklable,
and built without a Python frame when the hot path calls
``tuple.__new__(Cls, (field, ...))`` with every field given in order, as
the :class:`~repro.processor.api.Proc` factories and the cache
controller's result sites do.  ``Cls(...)`` works everywhere else, with
the defaults below.

The one caveat is equality: a NamedTuple compares as a plain tuple, so
ops of different types holding the same fields are equal
(``Load(8) == LoadLinked(8) == (8,)``).  The processor and the
controller dispatch on ``type(op)``, never on equality, and no code
compares ops of different types.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .semantics import PhiOp

__all__ = [
    "Load",
    "Store",
    "LoadExclusive",
    "DropCopy",
    "FetchAndPhi",
    "CompareAndSwap",
    "LoadLinked",
    "StoreConditional",
    "Think",
    "MagicBarrier",
    "ContendBegin",
    "ContendEnd",
    "LLValue",
    "CasResult",
]


class Load(NamedTuple):
    """Ordinary word load."""

    addr: int


class Store(NamedTuple):
    """Ordinary word store."""

    addr: int
    value: int


class LoadExclusive(NamedTuple):
    """Auxiliary instruction: load that acquires an exclusive copy.

    Under INV it primes the line for an upcoming compare_and_swap (or for
    migratory data) so the atomic update hits locally.  Under UPD/UNC it
    behaves as an ordinary load.
    """

    addr: int


class DropCopy(NamedTuple):
    """Auxiliary instruction: self-invalidate the cached line, if any.

    An exclusive line is written back; a shared copy sends a drop notice so
    the directory can forget the sharer.  A subsequent writer then finds
    the line uncached and pays 2 serialized messages instead of 3 or 4.
    """

    addr: int


class FetchAndPhi(NamedTuple):
    """The fetch_and_phi family (fetch_and_add, test_and_set, ...)."""

    addr: int
    phi: PhiOp
    operand: int = 0


class CompareAndSwap(NamedTuple):
    """compare_and_swap(addr, expected, new) -> CasResult."""

    addr: int
    expected: int
    new: int


class LoadLinked(NamedTuple):
    """load_linked(addr) -> LLValue; sets a reservation."""

    addr: int


class StoreConditional(NamedTuple):
    """store_conditional(addr, value[, token]) -> bool.

    ``token`` is only meaningful with the serial-number reservation
    strategy, where it enables a *bare* store_conditional: a processor that
    knows the expected serial number may attempt the store without a
    preceding load_linked (paper §3.1).  When ``None``, the token from the
    most recent load_linked is used.
    """

    addr: int
    value: int
    token: Optional[int] = None


class Think(NamedTuple):
    """Local computation for ``cycles`` cycles; no memory traffic."""

    cycles: int


class MagicBarrier(NamedTuple):
    """Constant-time barrier, as provided by MINT in the paper.

    Used by the synthetic applications to control sharing patterns.  It
    aligns the participating processors' clocks at the latest arrival time
    and costs nothing else — no memory or network traffic.  Real
    applications use the memory-based tree barrier in
    :mod:`repro.sync.barrier` instead.
    """

    barrier_id: int
    participants: int


class ContendBegin(NamedTuple):
    """Statistics hook: this processor starts contending for ``addr``."""

    addr: int


class ContendEnd(NamedTuple):
    """Statistics hook: this processor stops contending for ``addr``."""

    addr: int


class LLValue(NamedTuple):
    """Result of a load_linked.

    Attributes:
        value: The word read.
        token: Serial-number token to pass to a matching
            store_conditional (serial strategy only; ``None`` otherwise).
        doomed: True when the memory could not record the reservation
            (limited strategy over capacity); the matching
            store_conditional will fail locally without network traffic.
    """

    value: int
    token: Optional[int] = None
    doomed: bool = False


class CasResult(NamedTuple):
    """Result of a compare_and_swap: success flag plus the old value."""

    success: bool
    old: int

    def __bool__(self) -> bool:
        return self.success
