"""Contention histograms (paper Figure 2).

The paper measures, at the beginning of each access to an atomically
accessed shared location, how many processors are concurrently trying to
access it.  Programs bracket each attempt (a lock acquisition, a lock-free
update) with :class:`repro.primitives.ops.ContendBegin` /
:class:`~repro.primitives.ops.ContendEnd`; the tracker samples the number
of concurrent contenders — including the newcomer — at every begin.
"""

from __future__ import annotations

from collections import Counter

__all__ = ["ContentionTracker"]


class ContentionTracker:
    """Counts concurrent contenders per synchronization variable."""

    def __init__(self) -> None:
        self._active: dict[int, set[int]] = {}
        self.histogram: Counter[int] = Counter()
        self.per_addr: dict[int, Counter[int]] = {}

    def begin(self, addr: int, pid: int) -> None:
        """Processor ``pid`` starts contending for ``addr``."""
        # Probe first: a ``setdefault`` default is built on every call.
        active = self._active.get(addr)
        if active is None:
            active = self._active[addr] = set()
        active.add(pid)
        level = len(active)
        self.histogram[level] += 1
        per_level = self.per_addr.get(addr)
        if per_level is None:
            per_level = self.per_addr[addr] = Counter()
        per_level[level] += 1

    def end(self, addr: int, pid: int) -> None:
        """Processor ``pid`` stops contending for ``addr``."""
        active = self._active.get(addr)
        if active is not None:
            active.discard(pid)

    @property
    def samples(self) -> int:
        """Total number of access attempts recorded."""
        return sum(self.histogram.values())

    def percentage(self, level: int) -> float:
        """Percentage of accesses that saw exactly ``level`` contenders."""
        total = self.samples
        return 100.0 * self.histogram.get(level, 0) / total if total else 0.0

    def percentages(self) -> dict[int, float]:
        """Histogram normalized to percentages, keyed by contention level."""
        total = self.samples
        if not total:
            return {}
        return {
            level: 100.0 * count / total
            for level, count in sorted(self.histogram.items())
        }

    def mean_level(self) -> float:
        """Average contention level over all recorded accesses."""
        total = self.samples
        if not total:
            return 0.0
        return sum(level * n for level, n in self.histogram.items()) / total
