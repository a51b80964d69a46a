"""Average write-run length (paper §4.2).

A *write run* is a sequence of consecutive writes (including atomic
updates) by one processor to an atomically accessed location with no
intervening access — read or write — by any other processor [Eggers &
Katz].  The paper reports runs of 1.70–1.83 for LocusRoute's locks,
1.59–1.62 for Cholesky's, and ≈1.0 for Transitive Closure's counter.

The tracker observes the logical access stream (every program-level read
and write of registered synchronization addresses, in serialization order)
and accumulates completed runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["WriteRunTracker"]


@dataclass
class _RunState:
    writer: int | None = None
    length: int = 0


@dataclass
class _RunTotals:
    runs: int = 0
    total_length: int = 0
    histogram: dict[int, int] = field(default_factory=dict)

    def close(self, length: int) -> None:
        if length <= 0:
            return
        self.runs += 1
        self.total_length += length
        self.histogram[length] = self.histogram.get(length, 0) + 1


class WriteRunTracker:
    """Tracks write runs for registered synchronization addresses."""

    def __init__(self) -> None:
        self._registered: set[int] = set()
        self._state: dict[int, _RunState] = {}
        self._totals: dict[int, _RunTotals] = {}

    def register(self, addr: int) -> None:
        """Start tracking ``addr`` as an atomically accessed location."""
        self._registered.add(addr)

    @property
    def registered(self) -> frozenset[int]:
        """The tracked addresses."""
        return frozenset(self._registered)

    def note_access(self, addr: int, pid: int, is_write: bool) -> None:
        """Observe one access in serialization order."""
        if addr not in self._registered:
            return
        state = self._state.get(addr)
        if state is None:
            state = self._state[addr] = _RunState()
        totals = self._totals.get(addr)
        if totals is None:
            totals = self._totals[addr] = _RunTotals()
        if is_write:
            if state.writer == pid:
                state.length += 1
            else:
                totals.close(state.length)
                state.writer = pid
                state.length = 1
        else:
            if state.writer is not None and state.writer != pid:
                # A foreign read ends the current run.
                totals.close(state.length)
                state.writer = None
                state.length = 0
            # A read by the current writer does not break its own run.

    def finalize(self) -> None:
        """Close all open runs (call at end of simulation)."""
        for addr, state in self._state.items():
            self._totals.setdefault(addr, _RunTotals()).close(state.length)
            state.writer = None
            state.length = 0

    def average(self, addr: int | None = None) -> float:
        """Average write-run length for ``addr`` (or over all addresses)."""
        if addr is not None:
            totals = self._totals.get(addr)
            if totals is None or not totals.runs:
                return 0.0
            return totals.total_length / totals.runs
        runs = sum(t.runs for t in self._totals.values())
        if not runs:
            return 0.0
        length = sum(t.total_length for t in self._totals.values())
        return length / runs

    def run_count(self, addr: int | None = None) -> int:
        """Number of completed runs."""
        if addr is not None:
            totals = self._totals.get(addr)
            return totals.runs if totals else 0
        return sum(t.runs for t in self._totals.values())
