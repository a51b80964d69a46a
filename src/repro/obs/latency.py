"""Per-transaction latency breakdown.

Each requester transaction's end-to-end cycles are attributed to four
categories along its serialized path:

* ``network`` — flight time (including entry/exit-port queuing) of the
  transaction's messages;
* ``queue`` — waiting in a memory module's FIFO before service began;
* ``memory`` — occupancy of the memory module (directory + DRAM work);
* ``controller`` — requester-side controller occupancy on completion.

Attribution uses a cursor over simulation time: every contribution
credits only the span past the last accounted cycle, so overlapping
work (an invalidation multicast, acks racing the data reply) is never
double-counted and the categories **sum exactly** to the transaction's
end-to-end latency — the invariant the test suite asserts.  Idle gaps
not claimed by any component are folded into the next segment.

A requester transaction (:class:`~repro.cache.mshr.Transaction`) is its
own :class:`TxnBreakdown`: the categories are integer fields of the
transaction, so no separate object is built per transaction.

:class:`LatencyTracker` aggregates finished breakdowns per
``primitive × policy`` and reports p50/p95/max.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["CATEGORIES", "TxnBreakdown", "LatencyStats", "LatencyTracker"]

CATEGORIES = ("network", "queue", "memory", "controller")


@dataclass(slots=True, init=False, eq=False)
class TxnBreakdown:
    """Cycle attribution for one in-flight transaction.

    ``start`` is the cycle the transaction opened, ``cursor`` the last
    cycle accounted for, and each of :data:`CATEGORIES` is an integer
    field of the cycles credited to it.  A dataclass subclass's
    generated ``__init__`` takes none of them and sets them all to 0;
    its owner sets ``start`` and ``cursor`` when the transaction opens.
    """

    start: int = field(default=0, init=False)
    cursor: int = field(default=0, init=False)
    network: int = field(default=0, init=False)
    queue: int = field(default=0, init=False)
    memory: int = field(default=0, init=False)
    controller: int = field(default=0, init=False)

    def __init__(self, start: int) -> None:
        self.start = self.cursor = start
        self.network = self.queue = self.memory = self.controller = 0

    def credit(self, category: str, end: int) -> None:
        """Attribute cycles up to ``end`` to ``category``.

        Only the span beyond the current cursor is credited; calls whose
        interval is already covered (parallel messages) add nothing.
        The hot path applies this rule inline, on the category's field,
        in three places: ``WormholeMesh.send`` (``network``, once per
        message), ``MemoryModule.service`` (``queue`` then ``memory``,
        once per service) and ``CacheController._finish``
        (``controller``, once per transaction).  A change here must be
        made in all three.
        """
        cursor = self.cursor
        if end > cursor:
            setattr(self, category, getattr(self, category) + end - cursor)
            self.cursor = end

    @property
    def parts(self) -> dict[str, int]:
        """``{category: cycles}`` of the categories credited so far
        (those with nonzero cycles), in :data:`CATEGORIES` order."""
        return {c: getattr(self, c) for c in CATEGORIES if getattr(self, c)}

    @property
    def total(self) -> int:
        """Cycles accounted so far (== cursor - start, by construction)."""
        return self.cursor - self.start


def _percentile(sorted_values: list[int], p: float) -> int:
    """Nearest-rank percentile of a pre-sorted list."""
    if not sorted_values:
        return 0
    rank = max(1, int(round(p / 100.0 * len(sorted_values))))
    return sorted_values[min(rank, len(sorted_values)) - 1]


@dataclass
class LatencyStats:
    """Aggregated breakdowns for one (primitive, policy) key."""

    count: int = 0
    totals: list[int] = field(default_factory=list)
    by_category: dict[str, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        """Mean end-to-end cycles."""
        return sum(self.totals) / self.count if self.count else 0.0

    def percentiles(self) -> dict[str, int]:
        """p50/p95/max of end-to-end cycles."""
        ordered = sorted(self.totals)
        return {
            "p50": _percentile(ordered, 50),
            "p95": _percentile(ordered, 95),
            "max": ordered[-1] if ordered else 0,
        }

    def snapshot(self) -> dict:
        """JSON-able summary of this key."""
        return {
            "count": self.count,
            "mean": self.mean,
            **self.percentiles(),
            "by_category": {
                c: self.by_category.get(c, 0) for c in CATEGORIES
                if self.by_category.get(c, 0)
            },
        }


class LatencyTracker:
    """Breakdowns of every completed transaction, per primitive × policy."""

    def __init__(self) -> None:
        self._keys: dict[tuple[str, str], LatencyStats] = {}
        # The same stats keyed as callers pass them: the controller
        # passes SyncPolicy members, so its per-transaction path never
        # reads the (Python-level) ``Enum.value``.
        self._by_caller_key: dict[tuple[str, Any], LatencyStats] = {}

    def note(self, kind: str, policy: Any, breakdown: TxnBreakdown) -> None:
        """Record one completed transaction.

        ``policy`` is a policy label (``"INV"``) or an enum member whose
        ``value`` is that label; the tracker reports labels.
        """
        stats = self._by_caller_key.get((kind, policy))
        if stats is None:
            label = getattr(policy, "value", policy)
            stats = self._keys.setdefault((kind, label), LatencyStats())
            self._by_caller_key[(kind, policy)] = stats
        # Fold the breakdown in here: this runs once per transaction.
        # A category is a key of ``by_category`` once it has been
        # credited, as ``parts`` reports it.
        stats.count += 1
        stats.totals.append(breakdown.cursor - breakdown.start)
        by_category = stats.by_category
        cycles = breakdown.network
        if cycles:
            by_category["network"] = by_category.get("network", 0) + cycles
        cycles = breakdown.queue
        if cycles:
            by_category["queue"] = by_category.get("queue", 0) + cycles
        cycles = breakdown.memory
        if cycles:
            by_category["memory"] = by_category.get("memory", 0) + cycles
        cycles = breakdown.controller
        if cycles:
            by_category["controller"] = (by_category.get("controller", 0)
                                         + cycles)

    def get(self, kind: str, policy: str) -> LatencyStats | None:
        """The aggregate for one key, or None."""
        return self._keys.get((kind, policy))

    def keys(self) -> list[tuple[str, str]]:
        """All (primitive, policy) keys seen, sorted."""
        return sorted(self._keys)

    def snapshot(self) -> dict[str, dict]:
        """JSON-able map ``"kind/policy" -> summary``."""
        return {
            f"{kind}/{policy}": stats.snapshot()
            for (kind, policy), stats in sorted(self._keys.items())
        }

    def render(self) -> str:
        """A readable table of the breakdown (for ``repro stats``)."""
        lines = ["latency breakdown (cycles): primitive/policy  "
                 "n  mean  p50  p95  max  [network/queue/memory/controller]"]
        for (kind, policy), stats in sorted(self._keys.items()):
            pct = stats.percentiles()
            cats = "/".join(str(stats.by_category.get(c, 0)) for c in CATEGORIES)
            lines.append(
                f"{kind + '/' + policy:24s} {stats.count:5d} "
                f"{stats.mean:8.1f} {pct['p50']:5d} {pct['p95']:5d} "
                f"{pct['max']:5d}  [{cats}]"
            )
        return "\n".join(lines)
