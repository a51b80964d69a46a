"""Atomic-primitive definitions: operation types and their semantics."""

from .ops import (
    Load,
    Store,
    LoadExclusive,
    DropCopy,
    FetchAndPhi,
    CompareAndSwap,
    LoadLinked,
    StoreConditional,
    Think,
    MagicBarrier,
    ContendBegin,
    ContendEnd,
    LLValue,
    CasResult,
)
from .semantics import PhiOp, apply_phi

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
    "PhiOp",
    "apply_phi",
]
