"""The unified metrics registry.

Every counter in the machine lives here under a hierarchical dotted name
(``cache.3.hits``, ``mem.7.queue_wait``, ``net.flits``), so a whole
simulation's worth of counters can be enumerated, snapshotted and
rendered with a single call:

.. code-block:: python

    machine.run()
    snapshot = machine.registry.snapshot()   # name -> JSON-able value
    print(machine.registry.render())

Two metric types:

* :class:`Counter` — a monotonically adjusted integer (``inc``);
* :class:`Histogram` — log-bucketed (powers of two) distribution of
  non-negative integer samples, for latency/queue-wait distributions.

Per-node counters are not :class:`Counter` objects: a component keeps
them as plain attributes of its stats record (``cache.stats.hits``) and
increments them directly, and :meth:`MetricsRegistry.attach` tells the
registry which attribute holds which metric.  The registry reads those
attributes by name only when asked, through live :class:`Counter` views,
so every reader sees one namespace of counters and histograms.
"""

from __future__ import annotations

from typing import Iterator, Union

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

Metric = Union["Counter", "Histogram"]


class Counter:
    """A named cumulative counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def snapshot(self) -> int:
        """The current value, as a JSON-able scalar."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class _AttributeCounter(Counter):
    """A live :class:`Counter` view of one attribute of an attached record."""

    __slots__ = ("_record", "_attr")

    def __init__(self, name: str, record: object, attr: str) -> None:
        self.name = name
        self._record = record
        self._attr = attr

    @property
    def value(self) -> int:  # type: ignore[override]
        """The attribute's current value."""
        return getattr(self._record, self._attr)

    @value.setter
    def value(self, value: int) -> None:
        setattr(self._record, self._attr, value)


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

    def observe(self, value: int) -> None:
        """Record one sample (bucket ``value.bit_length()``)."""
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

    def snapshot(self) -> dict:
        """JSON-able summary: count/total/min/max plus bucket counts."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """All metrics of one machine, keyed by hierarchical dotted name.

    ``counter``/``histogram`` create-or-return, so components
    may be constructed in any order.  Per-node counters are attached
    instead (:meth:`attach`): their values stay attributes of the
    component's stats record, and the registry reads them by name.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        # prefix -> (record, {metric suffix: attribute of record}).
        self._records: dict[str, tuple[object, dict[str, str]]] = {}
        # Counter views of attached names, built when first read.
        self._views: dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Creation and lookup.
    # ------------------------------------------------------------------

    def attach(self, prefix: str, record: object, fields: dict[str, str]) -> None:
        """Publish attributes of ``record`` as counters ``<prefix>.<suffix>``.

        ``fields`` maps each metric suffix to the attribute of ``record``
        that holds its value.  The component increments its attributes
        directly; readers of the registry get live :class:`Counter`
        views of them.  Attach a record before anything creates an
        ordinary metric under one of its names.
        """
        if prefix in self._records:
            raise ValueError(f"metric prefix {prefix!r} is already attached")
        self._records[prefix] = (record, fields)

    def _view(self, name: str) -> Counter | None:
        """The counter view of the attached ``name``, or None."""
        view = self._views.get(name)
        if view is None:
            prefix, _, suffix = name.rpartition(".")
            attached = self._records.get(prefix)
            if attached is None or suffix not in attached[1]:
                return None
            record, fields = attached
            view = _AttributeCounter(name, record, fields[suffix])
            self._views[name] = view
        return view

    def _make(self, name: str, cls: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None and name.rpartition(".")[0] in self._records:
            metric = self._view(name)
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

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._make(name, Histogram)  # type: ignore[return-value]

    def get(self, name: str) -> Metric | None:
        """The metric named ``name``, or None."""
        metric = self._metrics.get(name)
        return metric if metric is not None else self._view(name)

    def names(self, prefix: str = "") -> list[str]:
        """Sorted metric names, optionally filtered by dotted prefix."""
        names = list(self._metrics)
        for record_prefix, (_, fields) in self._records.items():
            names += [f"{record_prefix}.{suffix}" for suffix in fields]
        if not prefix:
            return sorted(names)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(n for n in names if n == prefix or n.startswith(dotted))

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self.get(name)  # type: ignore[misc]

    def __len__(self) -> int:
        return len(self._metrics) + sum(
            len(fields) for _, fields in self._records.values())

    # ------------------------------------------------------------------
    # Snapshot and text views.
    # ------------------------------------------------------------------

    def snapshot(self, prefix: str = "") -> dict[str, object]:
        """A plain-data view of every metric (scalars and bucket dicts)."""
        return {name: self._read(name) for name in self.names(prefix)}

    def _read(self, name: str) -> object:
        """The snapshot value of ``name``; attached ones read directly."""
        metric = self._metrics.get(name)
        if metric is not None:
            return metric.snapshot()
        prefix, _, suffix = name.rpartition(".")
        record, fields = self._records[prefix]
        return getattr(record, fields[suffix])

    def render(self, prefix: str = "") -> str:
        """A readable text listing of the registry (for ``repro stats``)."""
        lines = []
        for name in self.names(prefix):
            metric = self._metrics.get(name)
            if isinstance(metric, Histogram):
                lines.append(
                    f"{name:40s} n={metric.count} mean={metric.mean:.1f} "
                    f"min={metric.min if metric.min is not None else '-'} "
                    f"max={metric.max if metric.max is not None else '-'}"
                )
            else:
                lines.append(f"{name:40s} {self._read(name)}")
        return "\n".join(lines)
