"""Directory state, one entry per locally-homed block.

The directory records, for every memory block homed at a node, which
caches hold copies and in what mode.  Entries also carry the home-side
transaction bookkeeping: a ``busy`` flag set while an ownership transfer
is in flight, and a FIFO of requests that arrived while busy (the paper's
"queued memory" discipline extends to the directory).

How sharers are *represented* is pluggable (``MachineConfig.directory``):
the default is the paper's full bit vector, with limited-pointer
(Dir_i_B, broadcast on overflow) and coarse-vector (region-granularity)
alternatives for large machines — see :mod:`repro.memory.sharers`.
Protocol decisions are identical across representations; only the
invalidation/update fan-out (:meth:`DirectoryEntry.targets`) differs.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from ..errors import ProtocolError
from .sharers import SharerSet

__all__ = ["DirState", "DirectoryEntry", "Directory"]


class DirState(enum.Enum):
    """Stable states of a directory entry."""

    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"

    __hash__ = object.__hash__  # identity; see MessageType


@dataclass
class DirectoryEntry:
    """Directory record for one block."""

    state: DirState = DirState.UNCACHED
    sharers: SharerSet = field(default_factory=SharerSet)
    owner: Optional[int] = None
    busy: bool = False
    # Requests that arrived while the entry was busy, replayed FIFO.
    waiters: deque = field(default_factory=deque)
    # Home-side context of the in-flight transaction (message being served).
    pending: Any = None
    # Set when a recall found the owner gone (it raced a drop_copy or an
    # eviction); the entry stays busy until the in-flight writeback lands.
    awaiting_wb: bool = False

    def set_uncached(self) -> None:
        """Transition to UNCACHED, clearing copy bookkeeping."""
        self.state = DirState.UNCACHED
        self.sharers.clear()
        self.owner = None

    def set_shared(self, sharers: Iterable[int]) -> None:
        """Transition to SHARED with the given copy holders."""
        sharers = list(sharers)
        if not sharers:
            self.set_uncached()
            return
        self.state = DirState.SHARED
        self.sharers.replace(sharers)
        self.owner = None

    def set_exclusive(self, owner: int) -> None:
        """Transition to EXCLUSIVE with a single owning cache."""
        self.state = DirState.EXCLUSIVE
        self.sharers.clear()
        self.owner = owner

    def add_sharer(self, node: int) -> None:
        """Add one sharer (entry must not be EXCLUSIVE)."""
        if self.state is DirState.EXCLUSIVE:
            raise ProtocolError("cannot add a sharer to an exclusive entry")
        self.sharers.add(node)
        self.state = DirState.SHARED

    def remove_sharer(self, node: int) -> None:
        """Drop one sharer; collapses to UNCACHED when none remain."""
        self.sharers.discard(node)
        if self.state is DirState.SHARED and not self.sharers:
            self.set_uncached()

    def is_sharer(self, node: int) -> bool:
        """Exact membership test (identical across representations)."""
        return node in self.sharers

    def targets(self, exclude: int) -> list[int]:
        """Invalidation/update fan-out, ascending node id, without
        ``exclude``.  Exact sharers for the full bit vector; a superset
        for imprecise representations (see :mod:`repro.memory.sharers`).
        """
        return self.sharers.targets(exclude)


class Directory:
    """All directory entries homed at one node (created on demand).

    ``make_sharers`` builds each entry's sharer set; it is what
    :func:`~repro.memory.sharers.make_sharer_factory` returns, built
    once per machine and shared by every node's directory.
    """

    def __init__(
        self,
        node: int,
        make_sharers: Callable[[], SharerSet] = SharerSet,
    ) -> None:
        self.node = node
        #: True when fan-out may exceed the exact sharer set (every
        #: representation but the full bit vector); the home node only
        #: accounts spurious-message counters in that case.
        self.imprecise = make_sharers is not SharerSet
        self._make_sharers = make_sharers
        self._entries: dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        """The entry for ``block``, creating an UNCACHED one if absent."""
        ent = self._entries.get(block)
        if ent is None:
            ent = DirectoryEntry(sharers=self._make_sharers())
            self._entries[block] = ent
        return ent

    def known_blocks(self) -> list[int]:
        """Blocks with materialized entries (for inspection/tests)."""
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
