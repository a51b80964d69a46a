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
        return Load(addr)

    def store(self, addr: int, value: int) -> Store:
        """Word store."""
        return Store(addr, value)

    # ------------------------------------------------------------------
    # Atomic primitives.
    # ------------------------------------------------------------------

    def fetch_add(self, addr: int, operand: int = 1) -> FetchAndPhi:
        """fetch_and_add; yields the old value."""
        return FetchAndPhi(addr, PhiOp.ADD, operand)

    def fetch_store(self, addr: int, value: int) -> FetchAndPhi:
        """fetch_and_store (atomic swap); yields the old value."""
        return FetchAndPhi(addr, PhiOp.STORE, value)

    def fetch_or(self, addr: int, operand: int) -> FetchAndPhi:
        """fetch_and_or; yields the old value."""
        return FetchAndPhi(addr, PhiOp.OR, operand)

    def test_and_set(self, addr: int) -> FetchAndPhi:
        """test_and_set; stores 1, yields the old value."""
        return FetchAndPhi(addr, PhiOp.TEST_AND_SET, 1)

    def cas(self, addr: int, expected: int, new: int) -> CompareAndSwap:
        """compare_and_swap; yields a truthy CasResult on success."""
        return CompareAndSwap(addr, expected, new)

    def ll(self, addr: int) -> LoadLinked:
        """load_linked; yields an LLValue and sets the reservation."""
        return LoadLinked(addr)

    def sc(self, addr: int, value: int,
           token: Optional[int] = None) -> StoreConditional:
        """store_conditional; yields True on success.

        Pass ``token`` for a *bare* store_conditional under the
        serial-number reservation strategy.
        """
        return StoreConditional(addr, value, token)

    # ------------------------------------------------------------------
    # Auxiliary instructions.
    # ------------------------------------------------------------------

    def load_exclusive(self, addr: int) -> LoadExclusive:
        """Load that acquires an exclusive copy (paper §3)."""
        return LoadExclusive(addr)

    def drop_copy(self, addr: int) -> DropCopy:
        """Self-invalidate the cached copy of ``addr``'s line, if any."""
        return DropCopy(addr)

    # ------------------------------------------------------------------
    # Experiment control.
    # ------------------------------------------------------------------

    def think(self, cycles: int) -> Think:
        """Local computation for ``cycles`` cycles."""
        return Think(cycles)

    def barrier(self, barrier_id: int, participants: int | None = None
                ) -> MagicBarrier:
        """Constant-time barrier over ``participants`` processors.

        Defaults to all processors.  Magic barriers are an experiment
        instrument (the paper uses MINT's); applications that want to
        measure barrier cost use :func:`repro.sync.barrier.tree_barrier`.
        """
        return MagicBarrier(barrier_id, participants or self.nprocs)

    def contend_begin(self, addr: int) -> ContendBegin:
        """Mark the start of one contended access attempt (statistics)."""
        return ContendBegin(addr)

    def contend_end(self, addr: int) -> ContendEnd:
        """Mark the end of one contended access attempt (statistics)."""
        return ContendEnd(addr)
