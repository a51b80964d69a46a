"""Machine-wide statistics aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.latency import LatencyTracker
from ..obs.registry import MetricsRegistry
from .contention import ContentionTracker
from .writerun import WriteRunTracker

__all__ = ["MachineStats"]


@dataclass
class MachineStats:
    """All cross-cutting counters of one simulation.

    Component-local counters (cache hit rates, memory queue waits, network
    flits) live on the components (attached to the registry; see
    :mod:`repro.obs.registry`); this object holds the sharing-pattern
    statistics the paper's evaluation is built on, per-transaction
    serialized-message accounting, and the per-transaction latency
    breakdown tracker.

    Transaction counts and chain totals live only in the metrics
    registry, as ``txn.<kind>.count`` / ``txn.<kind>.chain``: a private
    one until :meth:`attach_registry` (every :class:`~repro.machine.
    machine.Machine` attaches its own).
    """

    contention: ContentionTracker = field(default_factory=ContentionTracker)
    writerun: WriteRunTracker = field(default_factory=WriteRunTracker)
    latency: LatencyTracker = field(default_factory=LatencyTracker)

    def __post_init__(self) -> None:
        self._registry = MetricsRegistry()
        self._txn_counters: dict[str, tuple] = {}

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """Record transaction accounting in ``registry`` (``txn.*``)."""
        self._registry = registry
        self._txn_counters.clear()

    def note_transaction(self, kind: str, chain: int) -> None:
        """Record a completed requester transaction and its chain depth."""
        pair = self._txn_counters.get(kind)
        if pair is None:
            pair = self._txn_counters[kind] = (
                self._registry.counter(f"txn.{kind}.count"),
                self._registry.counter(f"txn.{kind}.chain"),
            )
        pair[0].value += 1
        pair[1].value += chain

    def mean_chain(self, kind: str) -> float:
        """Mean serialized messages for transactions of ``kind``."""
        count = self._registry.get(f"txn.{kind}.count")
        if count is None or not count.value:
            return 0.0
        return self._registry.get(f"txn.{kind}.chain").value / count.value
