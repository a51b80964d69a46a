"""Per-cache-line contention scoring.

:class:`HotspotTracker` subscribes to a machine's event bus and keeps,
for every block that sees protocol traffic:

* cycles spent waiting — in memory-module FIFOs (``mem.service``'s
  ``arrival``→``start`` gap) and parked on busy directory entries
  (``dir.queue.enter``→``leave``);
* invalidation/update multicasts (INV and UPDATE sends);
* failed atomics — SC_FAIL / CAS_FAIL / OWNER_NAK replies and LL
  reservations killed by *another* transaction's write;
* a cycle-windowed directory-queue-depth time series (max depth seen
  per window), for spotting convoys.

Blocks are ranked by a single *contention score*: the waiting cycles
plus fixed penalties per failure and per multicast (the penalties are
class attributes, tunable by tests).  :meth:`HotspotTracker.render`
(the 10 hottest blocks) is the hotspot part of ``repro stats``, and
``repro stats --json`` folds :meth:`~HotspotTracker.snapshot` into the
envelope under the ``hotspots`` key.

Like every bus subscriber, the tracker only listens — it never mutates
machine state, and detaching it restores the zero-cost unobserved path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .events import Event, EventBus

__all__ = ["BlockStats", "HotspotTracker"]

_FAIL_MTYPES = frozenset({"SC_FAIL", "CAS_FAIL", "OWNER_NAK"})
_MULTICAST_MTYPES = frozenset({"INV", "UPDATE"})


@dataclass
class BlockStats:
    """Contention counters for one cache line."""

    block: int
    queue_wait: int = 0
    dir_wait: int = 0
    dir_enters: int = 0
    max_depth: int = 0
    multicasts: int = 0
    failures: int = 0
    res_kills: int = 0
    messages: int = 0
    depth_windows: dict[int, int] = field(default_factory=dict)

    def score(self, fail_penalty: int, multicast_penalty: int) -> int:
        """The block's contention score (higher = hotter)."""
        return (self.queue_wait + self.dir_wait
                + fail_penalty * (self.failures + self.res_kills)
                + multicast_penalty * self.multicasts)

    def to_dict(self, window: int, fail_penalty: int,
                multicast_penalty: int) -> dict[str, Any]:
        """JSON-able summary, depth series expanded to [cycle, depth]."""
        return {
            "block": self.block,
            "score": self.score(fail_penalty, multicast_penalty),
            "queue_wait": self.queue_wait,
            "dir_wait": self.dir_wait,
            "dir_enters": self.dir_enters,
            "max_depth": self.max_depth,
            "multicasts": self.multicasts,
            "failures": self.failures,
            "res_kills": self.res_kills,
            "messages": self.messages,
            "depth_series": [
                [idx * window, depth]
                for idx, depth in sorted(self.depth_windows.items())
            ],
        }


class HotspotTracker:
    """Rank cache lines by contention, from bus events alone.

    .. code-block:: python

        tracker = HotspotTracker(machine.events)
        ...  # run programs
        print(tracker.render(top_n=5))
    """

    FAIL_PENALTY = 25
    MULTICAST_PENALTY = 5

    def __init__(self, bus: EventBus, window: int = 256) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.bus = bus
        self.window = window
        self.blocks: dict[int, BlockStats] = {}
        self._dirwaits: dict[tuple, int] = {}
        self._token: Optional[int] = bus.subscribe(
            self._on_event,
            kinds=("msg.send", "mem.service", "dir.queue.enter",
                   "dir.queue.leave", "res.revoke"),
        )

    def detach(self) -> None:
        """Stop tracking (idempotent)."""
        if self._token is not None:
            self.bus.unsubscribe(self._token)
            self._token = None

    # -- event plumbing -------------------------------------------------

    def _stats(self, block: int) -> BlockStats:
        stats = self.blocks.get(block)
        if stats is None:
            stats = self.blocks[block] = BlockStats(block)
        return stats

    def _on_event(self, event: Event) -> None:
        block = event.block
        if block is None:
            return
        kind = event.kind
        if kind == "msg.send":
            stats = self._stats(block)
            stats.messages += 1
            mtype = event.data.get("mtype")
            if mtype in _MULTICAST_MTYPES:
                stats.multicasts += 1
            elif mtype in _FAIL_MTYPES:
                stats.failures += 1
        elif kind == "mem.service":
            start = event.data.get("start")
            arrival = event.data.get("arrival")
            if start is not None and arrival is not None and start > arrival:
                self._stats(block).queue_wait += start - arrival
        elif kind == "dir.queue.enter":
            stats = self._stats(block)
            stats.dir_enters += 1
            depth = event.data.get("depth", 1)
            stats.max_depth = max(stats.max_depth, depth)
            idx = event.ts // self.window
            stats.depth_windows[idx] = max(stats.depth_windows.get(idx, 0),
                                           depth)
            key = (event.node, block, event.data.get("requester"))
            self._dirwaits[key] = event.ts
        elif kind == "dir.queue.leave":
            key = (event.node, block, event.data.get("requester"))
            entered = self._dirwaits.pop(key, None)
            if entered is not None:
                self._stats(block).dir_wait += event.ts - entered
        elif kind == "res.revoke":
            if event.data.get("by") is not None:
                self._stats(block).res_kills += 1

    # -- queries --------------------------------------------------------

    def top(self, n: int = 10) -> list[BlockStats]:
        """The ``n`` hottest blocks, descending score."""
        ranked = sorted(
            self.blocks.values(),
            key=lambda s: (-s.score(self.FAIL_PENALTY,
                                    self.MULTICAST_PENALTY), s.block),
        )
        return ranked[:n]

    def snapshot(self, top_n: int = 10) -> dict[str, Any]:
        """JSON-able aggregation (the envelope's ``hotspots`` value)."""
        return {
            "window": self.window,
            "blocks_seen": len(self.blocks),
            "top": [
                stats.to_dict(self.window, self.FAIL_PENALTY,
                              self.MULTICAST_PENALTY)
                for stats in self.top(top_n)
            ],
        }

    def render(self, top_n: int = 10) -> str:
        """Readable table, the hotspot part of ``repro stats``."""
        lines = [f"hotspots: {len(self.blocks)} block(s) saw traffic; "
                 f"top {min(top_n, len(self.blocks))} by contention score"]
        if not self.blocks:
            lines.append("  (no protocol traffic observed)")
            return "\n".join(lines)
        lines.append("  block    score  queue_wait  dir_wait  enters  "
                     "maxdepth  multicast  failed  res_kills")
        for stats in self.top(top_n):
            score = stats.score(self.FAIL_PENALTY, self.MULTICAST_PENALTY)
            lines.append(
                f"  {stats.block:5d} {score:8d} {stats.queue_wait:11d} "
                f"{stats.dir_wait:9d} {stats.dir_enters:7d} "
                f"{stats.max_depth:9d} {stats.multicasts:10d} "
                f"{stats.failures:7d} {stats.res_kills:10d}"
            )
        return "\n".join(lines)
