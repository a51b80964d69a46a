"""Run-level critical-path attribution.

:class:`CritPathAggregator` folds the per-transaction critical paths
produced by :class:`~repro.obs.spans.SpanBuilder` into a run-level
answer to "where did the cycles go?":

* **blame by hop kind** — message flight, memory-FIFO queuing, memory
  occupancy, directory-entry waits, controller occupancy;
* **blame by component** — which node's memory module, which mesh link,
  which directory actually carried the path;
* **composition per primitive × policy** — count, mean, p50/p95/max of
  end-to-end cycles, plus the kind blame restricted to that key (the
  run's per-transaction latency breakdown);
* **worst transactions** — the N largest end-to-end latencies with their
  full critical paths, feeding the HTML report's waterfall panel.

:meth:`CritPathAggregator.render` is the critical-path part of
``repro stats``, and ``repro stats --json`` folds
:meth:`~CritPathAggregator.snapshot` into the envelope under the
``critpath`` key (see :mod:`repro.obs.schema`).
"""

from __future__ import annotations

from typing import Any, Iterable

from .spans import SPAN_KINDS, TxnSpanGraph

__all__ = ["CritPathAggregator"]


def _percentile(sorted_values: list[int], p: float) -> int:
    """Nearest-rank percentile of a pre-sorted list."""
    if not sorted_values:
        return 0
    rank = max(1, int(round(p / 100.0 * len(sorted_values))))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class _KeyAgg:
    """Accumulated critical paths for one (op, policy) key."""

    __slots__ = ("count", "totals", "by_kind")

    def __init__(self) -> None:
        self.count = 0
        self.totals: list[int] = []
        self.by_kind: dict[str, int] = {}

    def note(self, graph: TxnSpanGraph) -> None:
        self.count += 1
        self.totals.append(graph.duration)
        for kind, cycles in graph.path_by_kind().items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + cycles

    def snapshot(self) -> dict[str, Any]:
        ordered = sorted(self.totals)
        return {
            "count": self.count,
            "mean": sum(self.totals) / self.count if self.count else 0.0,
            "p50": _percentile(ordered, 50),
            "p95": _percentile(ordered, 95),
            "max": ordered[-1] if ordered else 0,
            "by_kind": {k: self.by_kind[k] for k in SPAN_KINDS
                        if self.by_kind.get(k)},
        }


class CritPathAggregator:
    """Aggregate critical-path blame across a run's transactions.

    .. code-block:: python

        agg = CritPathAggregator.from_graphs(builder.completed)
        print(agg.render())
        payload["critpath"] = agg.snapshot()
    """

    def __init__(self, worst: int = 8) -> None:
        self.worst_limit = worst
        self.txns = 0
        self.cycles = 0
        self.by_kind: dict[str, int] = {}
        self.by_component: dict[str, int] = {}
        self._keys: dict[tuple[str, str], _KeyAgg] = {}
        self._worst: list[TxnSpanGraph] = []

    @classmethod
    def from_graphs(
        cls, graphs: Iterable[TxnSpanGraph], worst: int = 8,
        include_local: bool = False,
    ) -> "CritPathAggregator":
        """Build an aggregation over completed graphs.

        Local hits are excluded by default — they have no protocol
        critical path and would drown the remote signal.
        """
        agg = cls(worst=worst)
        for graph in graphs:
            if graph.local and not include_local:
                continue
            agg.note(graph)
        return agg

    def note(self, graph: TxnSpanGraph) -> None:
        """Fold one completed transaction in."""
        self.txns += 1
        self.cycles += graph.duration
        for kind, cycles in graph.path_by_kind().items():
            self.by_kind[kind] = self.by_kind.get(kind, 0) + cycles
        for component, cycles in graph.path_by_component().items():
            self.by_component[component] = (
                self.by_component.get(component, 0) + cycles
            )
        key = (graph.op, graph.policy or "-")
        bucket = self._keys.get(key)
        if bucket is None:
            bucket = self._keys[key] = _KeyAgg()
        bucket.note(graph)
        self._worst.append(graph)
        self._worst.sort(key=lambda g: -g.duration)
        del self._worst[self.worst_limit:]

    # -- queries --------------------------------------------------------

    def keys(self) -> list[tuple[str, str]]:
        """All (primitive, policy) keys seen, sorted."""
        return sorted(self._keys)

    def worst(self) -> list[TxnSpanGraph]:
        """The worst transactions, most expensive first."""
        return list(self._worst)

    def snapshot(self) -> dict[str, Any]:
        """JSON-able aggregation (the envelope's ``critpath`` value)."""
        return {
            "txns": self.txns,
            "cycles": self.cycles,
            "by_kind": {k: self.by_kind[k] for k in SPAN_KINDS
                        if self.by_kind.get(k)},
            "by_component": dict(sorted(self.by_component.items(),
                                        key=lambda kv: -kv[1])),
            "keys": {
                f"{op}/{policy}": bucket.snapshot()
                for (op, policy), bucket in sorted(self._keys.items())
            },
            "worst": [g.to_dict() for g in self._worst],
        }

    def render(self) -> str:
        """Readable report, the critical-path part of ``repro stats``."""
        lines = [f"critical path over {self.txns} remote transaction(s), "
                 f"{self.cycles} cycle(s)"]
        if not self.txns:
            lines.append("  (no remote transactions observed)")
            return "\n".join(lines)

        lines.append("")
        lines.append("blame by hop kind:")
        for kind in SPAN_KINDS:
            cycles = self.by_kind.get(kind, 0)
            if not cycles:
                continue
            pct = 100.0 * cycles / self.cycles if self.cycles else 0.0
            bar = "#" * int(round(pct / 2))
            lines.append(f"  {kind:8s} {cycles:8d} {pct:5.1f}% {bar}")

        lines.append("")
        lines.append("blame by component (top 10):")
        top = sorted(self.by_component.items(), key=lambda kv: -kv[1])[:10]
        for component, cycles in top:
            pct = 100.0 * cycles / self.cycles if self.cycles else 0.0
            lines.append(f"  {component:12s} {cycles:8d} {pct:5.1f}%")

        lines.append("")
        lines.append("per primitive/policy:  n  mean  p50  p95  max  dominant")
        for (op, policy), bucket in sorted(self._keys.items()):
            snap = bucket.snapshot()
            dominant = max(snap["by_kind"], key=snap["by_kind"].get,
                           default="-")
            lines.append(
                f"  {op + '/' + policy:22s} {snap['count']:4d} "
                f"{snap['mean']:7.1f} {snap['p50']:5d} {snap['p95']:5d} "
                f"{snap['max']:5d}  {dominant}"
            )

        lines.append("")
        lines.append("worst transactions:")
        for graph in self._worst:
            lines.append(
                f"  txn {graph.txn_id} {graph.op}/{graph.policy or '-'} "
                f"node {graph.node} block {graph.block}: "
                f"{graph.duration} cycles"
            )
            for step in graph.critical_path():
                span = step.span
                gap = f" (+{step.gap} idle)" if step.gap else ""
                lines.append(
                    f"    {span.t0:7d}..{span.t1:<7d} {span.kind:8s} "
                    f"{span.component:12s} {step.cycles:5d}{gap} "
                    f"{span.detail}"
                )
        return "\n".join(lines)
