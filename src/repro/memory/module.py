"""Queued memory modules.

Each node hosts one memory module holding its slice of the interleaved
physical address space.  The module is *queued*: requests are serviced one
at a time, FIFO, each taking ``memory_service`` cycles, so memory
contention shows up as queuing delay — exactly the behaviour the paper's
back end models.

Data is stored per block as a list of words; blocks spring into existence
zero-filled, like real DRAM after initialization.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..config import SimConfig
from ..network.message import UNSOLICITED, MessageType
from ..obs.events import EventBus
from ..obs.registry import MetricsRegistry
from ..sim.engine import Simulator

__all__ = ["MemoryModule"]

_MEMORY_FIELDS = {"accesses": "accesses", "queue_wait": "total_queue_wait"}


class MemoryModule:
    """One node's memory: block storage plus a FIFO service queue.

    ``accesses`` and ``total_queue_wait`` are the counters, published as
    ``mem.<node>.accesses`` and ``mem.<node>.queue_wait``; the registry
    also keeps a log-bucketed ``mem.<node>.queue_wait_hist`` of
    per-request waits.
    """

    def __init__(
        self,
        sim: Simulator,
        node: int,
        config: SimConfig,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[EventBus] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.config = config
        self.events = events
        self.words_per_block = config.machine.words_per_block
        self._blocks: dict[int, list[int]] = {}
        self._next_free = 0
        #: Requests serviced.
        self.accesses = 0
        #: Summed cycles spent waiting for service.
        self.total_queue_wait = 0
        reg = registry if registry is not None else MetricsRegistry()
        prefix = f"mem.{node}"
        self.queue_wait_hist = reg.histogram(f"{prefix}.queue_wait_hist")
        reg.attach(prefix, self, _MEMORY_FIELDS)
        # Hot-path caches: the wait histogram's sample dict and the
        # frozen service time, resolved once.
        self._wait_samples = self.queue_wait_hist.samples
        self._t_service = config.timing.memory_service

    # ------------------------------------------------------------------
    # Data access (zero latency; timing is applied via `service`).
    # ------------------------------------------------------------------

    # The home reads or writes a block once or more per request, so the
    # accessors it uses probe ``_blocks`` themselves and call ``_block``
    # only to create a block on first touch.

    def read_block(self, block: int) -> list[int]:
        """Return a copy of the block's words."""
        data = self._blocks.get(block)
        if data is None:
            data = self._block(block)
        return list(data)

    def write_block(self, block: int, words: list[int]) -> None:
        """Replace the block's contents."""
        data = self._block(block)
        if len(words) != self.words_per_block:
            raise ValueError(
                f"block write needs {self.words_per_block} words, got {len(words)}"
            )
        data[:] = words

    def read_word(self, block: int, offset: int) -> int:
        """Read one word of a block (``offset`` in words)."""
        data = self._blocks.get(block)
        if data is None:
            data = self._block(block)
        return data[offset]

    def write_word(self, block: int, offset: int, value: int) -> None:
        """Write one word of a block."""
        data = self._blocks.get(block)
        if data is None:
            data = self._block(block)
        data[offset] = value

    def _block(self, block: int) -> list[int]:
        data = self._blocks.get(block)
        if data is None:
            data = [0] * self.words_per_block
            self._blocks[block] = data
        return data

    # ------------------------------------------------------------------
    # Queued service.
    # ------------------------------------------------------------------

    def service(
        self,
        fn: Callable[..., None],
        *args: Any,
        service_time: int | None = None,
        block: int | None = None,
        mtype: MessageType | None = None,
        requester: int | None = None,
    ) -> None:
        """Enqueue a request; run ``fn(*args)`` when service completes.

        Models the FIFO memory queue: the request waits until the module is
        free, then occupies it for ``memory_service`` cycles (or
        ``service_time``, for directory-only work).
        ``block``/``mtype``/``requester`` only describe the request on the
        ``mem.service`` event stream (when anyone listens).
        """
        sim = self.sim
        now = sim._now
        start = self._next_free
        if start < now:
            start = now
        service = self._t_service if service_time is None else service_time
        end = start + service
        self._next_free = end
        self.accesses += 1
        wait = start - now
        self.total_queue_wait += wait
        # Histogram.observe without the call: start >= now.
        samples = self._wait_samples
        samples[wait] = samples.get(wait, 0) + 1
        events = self.events
        if events is not None and events.active:
            events.emit(
                "mem.service", end, node=self.node,
                arrival=now, start=start, block=block,
                mtype=mtype.value if mtype is not None else None,
                requester=requester,
                has_txn=mtype is not None and mtype not in UNSOLICITED,
            )
        sim.schedule(end - now, fn, *args)
