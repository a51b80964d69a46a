"""Pure value semantics of the fetch_and_phi family.

A ``fetch_and_phi`` atomically replaces a word with ``phi(old, operand)``
and returns the old value.  These functions are the "adders and
comparators" the paper adds to cache controllers (INV) or memory modules
(UPD/UNC); keeping them pure lets both placements share one definition and
makes them trivially property-testable.
"""

from __future__ import annotations

import enum

__all__ = ["PhiOp", "apply_phi", "WORD_MASK"]

WORD_MASK = (1 << 32) - 1
"""Atomic words are 32 bits, matching the MIPS R4000 word size."""


class PhiOp(enum.Enum):
    """The fetch_and_phi variants used in the paper."""

    ADD = "add"  # fetch_and_add
    STORE = "store"  # fetch_and_store (atomic swap)
    OR = "or"  # fetch_and_or
    AND = "and"  # fetch_and_and
    TEST_AND_SET = "test_and_set"  # read old, store 1

    __hash__ = object.__hash__  # identity; see MessageType


def apply_phi(op: PhiOp, old: int, operand: int) -> int:
    """Compute the new value ``phi(old, operand)`` for a fetch_and_phi.

    All arithmetic wraps at 32 bits, like the hardware it models.
    """
    if op is PhiOp.ADD:
        return (old + operand) & WORD_MASK
    if op is PhiOp.STORE:
        return operand & WORD_MASK
    if op is PhiOp.OR:
        return (old | operand) & WORD_MASK
    if op is PhiOp.AND:
        return (old & operand) & WORD_MASK
    if op is PhiOp.TEST_AND_SET:
        return 1
    raise ValueError(f"unknown PhiOp {op!r}")
