"""The program-facing API.

A :class:`Proc` is handed to every simulated program.  Its methods build
operation objects for the program to ``yield``; the processor shell
executes them and the ``yield`` evaluates to the result:

.. code-block:: python

    def my_program(p: Proc, counter: int):
        old = yield p.fetch_add(counter, 1)
        ok = yield p.cas(counter, old + 1, 42)
        yield p.think(100)

Composite synchronization operations (locks, barriers, counters) in
:mod:`repro.sync` are generators used with ``yield from``.

Every factory builds its operation with ``tuple.__new__``, one C call,
so a yielded operation costs the program one Python frame: the
factory's own.
"""

from __future__ import annotations

import random
from typing import Any, Optional

from ..primitives.ops import (
    CompareAndSwap,
    ContendBegin,
    ContendEnd,
    DropCopy,
    FetchAndPhi,
    Load,
    LoadExclusive,
    LoadLinked,
    MagicBarrier,
    Store,
    StoreConditional,
    Think,
)
from ..primitives.semantics import PhiOp

__all__ = ["Proc"]

# Builds an operation from all of its fields without running the
# NamedTuple's generated ``__new__`` (a Python frame).
_new = tuple.__new__


class Proc:
    """Operation factory bound to one processor.

    ``processor`` is anything with an ``rng`` attribute (the
    :class:`~repro.processor.processor.Processor`); :attr:`rng` reads
    through to it, so the processor's RNG is built only if the program
    draws from it.
    """

    def __init__(self, pid: int, nprocs: int, processor: Any) -> None:
        self.pid = pid
        self.nprocs = nprocs
        self._processor = processor

    @property
    def rng(self) -> random.Random:
        """The processor's deterministic RNG, for backoff and think times."""
        return self._processor.rng

    # ------------------------------------------------------------------
    # Ordinary accesses.
    # ------------------------------------------------------------------

    def load(self, addr: int) -> Load:
        """Word load; yields the value."""
        return _new(Load, (addr,))

    def store(self, addr: int, value: int) -> Store:
        """Word store."""
        return _new(Store, (addr, value))

    # ------------------------------------------------------------------
    # Atomic primitives.
    # ------------------------------------------------------------------

    def fetch_add(self, addr: int, operand: int = 1) -> FetchAndPhi:
        """fetch_and_add; yields the old value."""
        return _new(FetchAndPhi, (addr, PhiOp.ADD, operand))

    def fetch_store(self, addr: int, value: int) -> FetchAndPhi:
        """fetch_and_store (atomic swap); yields the old value."""
        return _new(FetchAndPhi, (addr, PhiOp.STORE, value))

    def fetch_or(self, addr: int, operand: int) -> FetchAndPhi:
        """fetch_and_or; yields the old value."""
        return _new(FetchAndPhi, (addr, PhiOp.OR, operand))

    def test_and_set(self, addr: int) -> FetchAndPhi:
        """test_and_set; stores 1, yields the old value."""
        return _new(FetchAndPhi, (addr, PhiOp.TEST_AND_SET, 1))

    def cas(self, addr: int, expected: int, new: int) -> CompareAndSwap:
        """compare_and_swap; yields a truthy CasResult on success."""
        return _new(CompareAndSwap, (addr, expected, new))

    def ll(self, addr: int) -> LoadLinked:
        """load_linked; yields an LLValue and sets the reservation."""
        return _new(LoadLinked, (addr,))

    def sc(self, addr: int, value: int,
           token: Optional[int] = None) -> StoreConditional:
        """store_conditional; yields True on success.

        Pass ``token`` for a *bare* store_conditional under the
        serial-number reservation strategy.
        """
        return _new(StoreConditional, (addr, value, token))

    # ------------------------------------------------------------------
    # Auxiliary instructions.
    # ------------------------------------------------------------------

    def load_exclusive(self, addr: int) -> LoadExclusive:
        """Load that acquires an exclusive copy (paper §3)."""
        return _new(LoadExclusive, (addr,))

    def drop_copy(self, addr: int) -> DropCopy:
        """Self-invalidate the cached copy of ``addr``'s line, if any."""
        return _new(DropCopy, (addr,))

    # ------------------------------------------------------------------
    # Experiment control.
    # ------------------------------------------------------------------

    def think(self, cycles: int) -> Think:
        """Local computation for ``cycles`` cycles."""
        return _new(Think, (cycles,))

    def barrier(self, barrier_id: int, participants: int | None = None
                ) -> MagicBarrier:
        """Constant-time barrier over ``participants`` processors.

        ``None`` means all processors; any other count, 0 included, is
        passed on as given.  Magic barriers are an experiment instrument
        (the paper uses MINT's); applications that want to measure
        barrier cost use :func:`repro.sync.barrier.tree_barrier`.
        """
        if participants is None:
            participants = self.nprocs
        return _new(MagicBarrier, (barrier_id, participants))

    def contend_begin(self, addr: int) -> ContendBegin:
        """Mark the start of one contended access attempt (statistics)."""
        return _new(ContendBegin, (addr,))

    def contend_end(self, addr: int) -> ContendEnd:
        """Mark the end of one contended access attempt (statistics)."""
        return _new(ContendEnd, (addr,))
