"""Cache lines and their coherence states."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["LineState", "CacheLine"]


class LineState(enum.Enum):
    """Stable cache-line states of the write-invalidate protocol.

    ``SHARED`` lines are read-only copies; ``EXCLUSIVE`` lines are held by
    exactly one cache, which may write them (the directory knows the
    owner).  Write-update (UPD) blocks only ever use ``SHARED`` in caches,
    since memory stays the owner.
    """

    INVALID = "invalid"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    __hash__ = object.__hash__  # identity; see MessageType


@dataclass
class CacheLine:
    """One cache line: tag, state, data, and bookkeeping bits."""

    block: int
    state: LineState = LineState.INVALID
    data: list[int] = field(default_factory=list)
    dirty: bool = False
    last_use: int = 0

    @property
    def valid(self) -> bool:
        """True unless the line is INVALID."""
        return self.state is not LineState.INVALID

    def read_word(self, offset: int) -> int:
        """Read one word from the line."""
        return self.data[offset]

    def write_word(self, offset: int, value: int) -> None:
        """Write one word and mark the line dirty."""
        self.data[offset] = value
        self.dirty = True

    def invalidate(self) -> None:
        """Drop the line's contents and permissions."""
        self.state = LineState.INVALID
        self.dirty = False
        self.data = []
