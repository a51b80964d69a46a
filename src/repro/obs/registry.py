"""The unified metrics registry.

Every counter in the machine lives here under a hierarchical dotted name
(``cache.3.hits``, ``mem.7.queue_wait``, ``net.flits``), so a whole
simulation's worth of counters can be enumerated, snapshotted, diffed,
and exported as JSON with a single call:

.. code-block:: python

    before = machine.registry.snapshot()
    machine.run()
    delta = MetricsRegistry.diff(before, machine.registry.snapshot())
    print(machine.registry.render())

Three metric types:

* :class:`Counter` — a monotonically adjusted integer (``inc``);
* :class:`Gauge` — a point-in-time value (``set``);
* :class:`Histogram` — log-bucketed (powers of two) distribution of
  non-negative integer samples, for latency/queue-wait distributions.

Component stats objects (``CacheStats``, ``MemoryStats``, ...) are thin
property shims over these metrics, so the historical attribute spelling
(``cache.stats.hits``) keeps working while the registry remains the
single source of truth.
"""

from __future__ import annotations

import json
from typing import Iterator, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

Metric = Union["Counter", "Gauge", "Histogram"]


class Counter:
    """A named cumulative counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (may be negative for property-shim writes)."""
        self.value += amount

    def snapshot(self) -> int:
        """The current value, as a JSON-able scalar."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def snapshot(self) -> float:
        """The current value, as a JSON-able scalar."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A log-bucketed histogram of non-negative integer samples.

    Bucket ``0`` holds exactly the value 0; bucket ``b`` (``b >= 1``)
    holds values in ``[2**(b-1), 2**b - 1]``.  This gives a compact,
    schema-stable representation of latency distributions whose upper
    range is not known in advance.

    Recording only counts exact values in ``samples`` (value -> count);
    every read first folds ``samples`` into the bucketed aggregate, so
    the per-sample cost is one dict update.  Hot writers may hold on to
    ``samples`` and update it directly: it is the same dict for the
    histogram's whole life, and a negative value written there raises on
    the next read.
    """

    __slots__ = ("name", "samples", "_buckets", "_count", "_total", "_min",
                 "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: dict[int, int] = {}
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: int | None = None
        self._max: int | None = None

    @staticmethod
    def bucket_of(value: int) -> int:
        """Bucket index of ``value`` (0 maps to bucket 0)."""
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        return value.bit_length()

    @staticmethod
    def bucket_bounds(bucket: int) -> tuple[int, int]:
        """Inclusive ``(lo, hi)`` value range of ``bucket``."""
        if bucket == 0:
            return (0, 0)
        return (1 << (bucket - 1), (1 << bucket) - 1)

    def observe(self, value: int) -> None:
        """Record one sample (bucketed as :meth:`bucket_of` does)."""
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        samples = self.samples
        samples[value] = samples.get(value, 0) + 1

    def _fold(self) -> None:
        """Move ``samples`` into the aggregate; all or nothing."""
        samples = self.samples
        if not samples:
            return
        lo, hi = min(samples), max(samples)
        if lo < 0:
            raise ValueError(f"histogram samples must be >= 0, got {lo}")
        buckets = self._buckets
        count = total = 0
        for value, n in samples.items():
            b = value.bit_length()
            buckets[b] = buckets.get(b, 0) + n
            count += n
            total += value * n
        samples.clear()
        self._count += count
        self._total += total
        if self._min is None or lo < self._min:
            self._min = lo
        if self._max is None or hi > self._max:
            self._max = hi

    @property
    def buckets(self) -> dict[int, int]:
        """Sample count per bucket index."""
        self._fold()
        return self._buckets

    @property
    def count(self) -> int:
        """Number of samples."""
        self._fold()
        return self._count

    @property
    def total(self) -> int:
        """Sum of all samples."""
        self._fold()
        return self._total

    @property
    def min(self) -> int | None:
        """Smallest sample, or None when empty."""
        self._fold()
        return self._min

    @property
    def max(self) -> int | None:
        """Largest sample, or None when empty."""
        self._fold()
        return self._max

    @property
    def mean(self) -> float:
        """Mean of all samples."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Approximate ``p``-th percentile (upper bound of its bucket)."""
        if not self.count:
            return 0
        rank = max(1, int(round(p / 100.0 * self.count)))
        seen = 0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= rank:
                hi = self.bucket_bounds(b)[1]
                return min(hi, self.max if self.max is not None else hi)
        return self.max or 0

    def snapshot(self) -> dict:
        """JSON-able summary: count/total/min/max plus bucket counts."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    def merge_summary(self, summary: dict) -> None:
        """Fold another histogram's :meth:`snapshot` into this one."""
        self._fold()
        buckets = self._buckets
        for bucket, n in summary.get("buckets", {}).items():
            b = int(bucket)
            buckets[b] = buckets.get(b, 0) + n
        self._count += summary.get("count", 0)
        self._total += summary.get("total", 0)
        lo, hi = summary.get("min"), summary.get("max")
        if lo is not None and (self._min is None or lo < self._min):
            self._min = lo
        if hi is not None and (self._max is None or hi > self._max):
            self._max = hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """All metrics of one machine, keyed by hierarchical dotted name.

    ``counter``/``gauge``/``histogram`` create-or-return, so components
    may be constructed in any order and stats shims can share metrics.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------------
    # Creation and lookup.
    # ------------------------------------------------------------------

    def _make(self, name: str, cls: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._make(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._make(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._make(name, Histogram)  # type: ignore[return-value]

    def get(self, name: str) -> Metric | None:
        """The metric named ``name``, or None."""
        return self._metrics.get(name)

    def names(self, prefix: str = "") -> list[str]:
        """Sorted metric names, optionally filtered by dotted prefix."""
        if not prefix:
            return sorted(self._metrics)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(
            n for n in self._metrics if n == prefix or n.startswith(dotted)
        )

    def __iter__(self) -> Iterator[Metric]:
        for name in sorted(self._metrics):
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Snapshot / diff / export.
    # ------------------------------------------------------------------

    def snapshot(self, prefix: str = "") -> dict[str, object]:
        """A plain-data view of every metric (scalars and bucket dicts)."""
        return {
            name: self._metrics[name].snapshot() for name in self.names(prefix)
        }

    @staticmethod
    def diff(before: dict[str, object], after: dict[str, object]) -> dict[str, object]:
        """Per-metric change between two snapshots.

        Scalars subtract; histogram summaries subtract field-wise (their
        ``min``/``max`` are taken from ``after``).  Metrics absent from
        ``before`` diff against zero.
        """
        delta: dict[str, object] = {}
        for name, now in after.items():
            was = before.get(name)
            if isinstance(now, dict):
                was = was if isinstance(was, dict) else {}
                was_buckets = was.get("buckets", {})
                buckets = {
                    b: n - was_buckets.get(b, 0)
                    for b, n in now.get("buckets", {}).items()
                    if n != was_buckets.get(b, 0)
                }
                delta[name] = {
                    "count": now["count"] - was.get("count", 0),
                    "total": now["total"] - was.get("total", 0),
                    "min": now.get("min"),
                    "max": now.get("max"),
                    "buckets": buckets,
                }
            else:
                base = was if isinstance(was, (int, float)) else 0
                delta[name] = now - base
        return delta

    def merge_snapshot(self, snapshot: dict[str, object]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Used by the parallel sweep executor to aggregate per-worker
        machine registries into the parent.  Snapshots carry values, not
        metric types, so merging is typed by the receiving metric when
        one exists and inferred otherwise: dict values merge as
        histograms, integers accumulate as counters, and floats become
        gauges keeping the last value seen.
        """
        for name, value in snapshot.items():
            if isinstance(value, dict):
                self.histogram(name).merge_summary(value)
            else:
                existing = self._metrics.get(name)
                if isinstance(existing, Gauge) or (
                    existing is None and isinstance(value, float)
                ):
                    self.gauge(name).set(value)
                else:
                    self.counter(name).inc(value)

    def to_json(self, prefix: str = "", indent: int | None = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(prefix), indent=indent, sort_keys=True)

    def render(self, prefix: str = "") -> str:
        """A readable text listing of the registry (for ``repro stats``)."""
        lines = []
        for name in self.names(prefix):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                lines.append(
                    f"{name:40s} n={metric.count} mean={metric.mean:.1f} "
                    f"min={metric.min if metric.min is not None else '-'} "
                    f"max={metric.max if metric.max is not None else '-'}"
                )
            else:
                lines.append(f"{name:40s} {metric.value}")
        return "\n".join(lines)
