"""repro.obs — the cross-cutting observability layer.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.registry` — the unified metrics registry every
  component registers its counters in (``machine.registry``);
* :mod:`repro.obs.events` / :mod:`repro.obs.exporters` — the structured
  event bus (``machine.events``) with text / JSONL / Chrome-trace
  exporters;
* :mod:`repro.obs.spans` / :mod:`repro.obs.critpath` /
  :mod:`repro.obs.hotspot` — causal span graphs per transaction, whose
  critical paths are the per-transaction latency breakdown (aggregated
  per primitive × policy and blamed by hop kind and component), and
  per-cache-line contention scores;
* :mod:`repro.obs.profile` — host-level self-observability:
  wall-clock attribution of the event-dispatch loop.

:mod:`repro.obs.schema` defines the stable ``repro.run/1`` JSON envelope
all ``--json`` output uses.
"""

from .critpath import CritPathAggregator
from .events import EVENT_KINDS, Event, EventBus, EventRecorder
from .exporters import (
    export_events,
    render_timeline,
    to_chrome_trace,
    to_jsonl,
)
from .hotspot import BlockStats, HotspotTracker
from .profile import ComponentProfiler, active_profiler, profiled
from .schema import (
    SCHEMA,
    dump_run,
    make_run_payload,
    validate_run_payload,
)
from .registry import Counter, Histogram, MetricsRegistry
from .spans import SPAN_KINDS, CritStep, Span, SpanBuilder, TxnSpanGraph

__all__ = [
    "MetricsRegistry",
    "Counter",
    "Histogram",
    "EventBus",
    "Event",
    "EventRecorder",
    "EVENT_KINDS",
    "render_timeline",
    "to_jsonl",
    "to_chrome_trace",
    "export_events",
    "SCHEMA",
    "make_run_payload",
    "validate_run_payload",
    "dump_run",
    "Span",
    "CritStep",
    "TxnSpanGraph",
    "SpanBuilder",
    "SPAN_KINDS",
    "CritPathAggregator",
    "HotspotTracker",
    "BlockStats",
    "ComponentProfiler",
    "profiled",
    "active_profiler",
]
