"""Machine-wide statistics aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.latency import LatencyTracker
from .contention import ContentionTracker
from .writerun import WriteRunTracker

__all__ = ["MachineStats"]


@dataclass
class MachineStats:
    """All cross-cutting counters of one simulation.

    Component-local counters (cache hit rates, memory queue waits, network
    flits, each controller's serialized-chain totals) live on the
    components (attached to the registry; see :mod:`repro.obs.registry`);
    this object holds the sharing-pattern statistics the paper's
    evaluation is built on and the per-transaction latency breakdown
    tracker.
    """

    contention: ContentionTracker = field(default_factory=ContentionTracker)
    writerun: WriteRunTracker = field(default_factory=WriteRunTracker)
    latency: LatencyTracker = field(default_factory=LatencyTracker)
