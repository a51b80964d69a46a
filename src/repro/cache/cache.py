"""The set-associative cache array.

The array only manages placement and replacement; all coherence decisions
live in :mod:`repro.cache.controller`.  Installing a line into a full set
returns the evicted victim so the controller can write it back or notify
the directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import MachineConfig
from ..obs.registry import MetricsRegistry
from .line import CacheLine, LineState

__all__ = ["Cache", "Eviction"]

_INVALID = LineState.INVALID
_CACHE_FIELDS = {"hits": "hits", "misses": "misses", "evictions": "evictions"}


@dataclass
class Eviction:
    """A victim line pushed out by an install."""

    block: int
    state: LineState
    data: list[int]
    dirty: bool


class Cache:
    """Set-associative, LRU-replaced cache of 32-byte blocks.

    ``hits``, ``misses`` and ``evictions`` are the counters; a cache
    built with a registry publishes them as ``<name>.hits`` /
    ``.misses`` / ``.evictions``.
    """

    def __init__(
        self,
        config: MachineConfig,
        registry: Optional[MetricsRegistry] = None,
        name: str = "cache",
    ) -> None:
        self.config = config
        self.n_sets = config.cache_sets
        self.assoc = config.cache_assoc
        self._sets: dict[int, dict[int, CacheLine]] = {}
        self._tick = 0
        #: Lookups that found a valid line.
        self.hits = 0
        #: Lookups that found nothing.
        self.misses = 0
        #: Installs that pushed out a victim line.
        self.evictions = 0
        if registry is not None:
            registry.attach(name, self, _CACHE_FIELDS)

    def _set_for(self, block: int) -> dict[int, CacheLine]:
        index = block % self.n_sets
        group = self._sets.get(index)
        if group is None:
            group = {}
            self._sets[index] = group
        return group

    def lookup(self, block: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the valid line for ``block``, or ``None`` on a miss.

        Only touching lookups (processor-initiated accesses) count
        toward the hit/miss statistics; ``touch=False`` peeks from the
        protocol engines do not.
        """
        group = self._sets.get(block % self.n_sets)
        line = group.get(block) if group is not None else None
        if line is None or line.state is _INVALID:
            if touch:
                self.misses += 1
            return None
        if touch:
            self.hits += 1
            tick = self._tick + 1
            self._tick = tick
            line.last_use = tick
        return line

    def install(
        self,
        block: int,
        state: LineState,
        data: list[int],
        dirty: bool = False,
    ) -> Optional[Eviction]:
        """Place ``block`` in the cache, returning any evicted victim."""
        group = self._set_for(block)
        self._tick += 1
        existing = group.get(block)
        if existing is not None:
            existing.state = state
            existing.data = list(data)
            existing.dirty = dirty
            existing.last_use = self._tick
            return None

        victim = None
        live = [line for line in group.values() if line.valid]
        if len(live) >= self.assoc:
            loser = min(live, key=lambda line: line.last_use)
            victim = Eviction(
                block=loser.block,
                state=loser.state,
                data=list(loser.data),
                dirty=loser.dirty,
            )
            del group[loser.block]
            self.evictions += 1
        # Purge any stale invalid entries for tidiness.
        for stale in [b for b, line in group.items() if not line.valid]:
            del group[stale]

        group[block] = CacheLine(
            block=block,
            state=state,
            data=list(data),
            dirty=dirty,
            last_use=self._tick,
        )
        return victim

    def drop(self, block: int) -> None:
        """Remove ``block`` from the cache without any notification."""
        group = self._set_for(block)
        group.pop(block, None)

    def valid_blocks(self) -> list[int]:
        """All blocks currently cached in a valid state (for tests)."""
        return sorted(
            line.block
            for group in self._sets.values()
            for line in group.values()
            if line.valid
        )
