"""Summarize the nightly benchmark trend history.

The nightly workflow appends one dated record per run to
``BENCH_trend.jsonl`` (see ``.github/workflows/nightly.yml``):

.. code-block:: json

    {"date": "2026-08-08T03:47:00Z", "sha": "…",
     "kernels": {"event_core": {"wall_seconds": 1.2,
                                "events_per_second": 800000.0,
                                "peak_alloc_kib": 512, "info": "…"}}}

``repro trend BENCH_trend.jsonl`` turns that history into a per-kernel
delta table: the latest record against the **median of all prior
records** (median, not mean, so one noisy night cannot move the
baseline).  A kernel is *flagged* when its wall time grew — or its
throughput dropped — by more than ``threshold_pct`` percent; flags are
advisory by default (``--strict`` makes them exit 1) because nightly
runners are noisy and the bit-exact gates live elsewhere
(``tools/diff_envelopes.py``, ``tools/check_perf_regression.py``).

Stdlib only, tolerant of the realities of an append-only history file:
blank and corrupt lines are skipped (and counted), kernels may appear
or disappear between nights, and a single-record history renders with
no deltas rather than failing.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Any, Optional

from ..errors import ConfigError
from ..obs.schema import make_run_payload
from .report import render_table

__all__ = [
    "load_trend",
    "summarize_trend",
    "render_trend",
    "trend_payload",
]


def load_trend(path, last: int = 0) -> list[dict[str, Any]]:
    """Read ``BENCH_trend.jsonl``; skip blank/corrupt lines.

    ``last`` keeps only the trailing N records (0 = all).  Blank and
    unparsable lines are dropped silently — an append-only history that
    survived a cache eviction or a truncated write should degrade to
    fewer records, not fail the whole summary.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigError(f"trend history not found: {path}")
    records: list[dict[str, Any]] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    if last > 0:
        records = records[-last:]
    return records


def _median(values: list[float]) -> Optional[float]:
    cleaned = [float(v) for v in values if isinstance(v, (int, float))]
    return statistics.median(cleaned) if cleaned else None


def _delta_pct(latest: Any, baseline: Optional[float]) -> Optional[float]:
    if baseline is None or not baseline:
        return None
    if not isinstance(latest, (int, float)):
        return None
    return round(100.0 * (float(latest) - baseline) / baseline, 2)


def _series(records: list[dict[str, Any]], name: str, field: str) -> list[float]:
    return [rec.get("kernels", {}).get(name, {}).get(field)
            for rec in records]


def summarize_trend(
    records: list[dict[str, Any]], threshold_pct: float = 10.0
) -> dict[str, Any]:
    """Latest record vs the median of the prior ones, per kernel.

    Returns a JSON-able summary: a ``kernels`` map of
    ``{latest fields, *_median, *_delta_pct, samples, flagged}`` plus a
    flat ``regressions`` list of human-readable flag strings (empty when
    clean, or when there is no history to compare against).
    """
    summary: dict[str, Any] = {
        "records": len(records),
        "threshold_pct": threshold_pct,
        "first_date": records[0].get("date") if records else None,
        "last_date": records[-1].get("date") if records else None,
        "sha": records[-1].get("sha") if records else None,
        "kernels": {},
        "regressions": [],
    }
    if not records:
        return summary
    latest, prior = records[-1], records[:-1]

    for name in sorted(latest.get("kernels", {})):
        kernel = latest["kernels"][name]
        row: dict[str, Any] = {
            "wall_seconds": kernel.get("wall_seconds"),
            "events_per_second": kernel.get("events_per_second"),
            "peak_alloc_kib": kernel.get("peak_alloc_kib"),
            "samples": 0,
            "flagged": False,
        }
        for field in ("wall_seconds", "events_per_second",
                      "peak_alloc_kib"):
            series = [v for v in _series(prior, name, field)
                      if isinstance(v, (int, float))]
            median = _median(series)
            row[f"{field}_median"] = median
            row[f"{field}_delta_pct"] = _delta_pct(kernel.get(field),
                                                   median)
            if field == "wall_seconds":
                row["samples"] = len(series)
        wall_up = row["wall_seconds_delta_pct"]
        eps_down = row["events_per_second_delta_pct"]
        if wall_up is not None and wall_up > threshold_pct:
            row["flagged"] = True
            summary["regressions"].append(
                f"kernel {name}: wall +{wall_up}% vs median of "
                f"{row['samples']} prior run(s)")
        if eps_down is not None and eps_down < -threshold_pct:
            row["flagged"] = True
            summary["regressions"].append(
                f"kernel {name}: throughput {eps_down}% vs median of "
                f"{row['samples']} prior run(s)")
        summary["kernels"][name] = row
    return summary


def _fmt(value: Any, spec: str = ",.3f") -> str:
    if not isinstance(value, (int, float)):
        return "-"
    return format(value, spec)


def _fmt_delta(value: Optional[float]) -> str:
    if value is None:
        return "-"
    return f"{value:+.1f}%"


def render_trend(summary: dict[str, Any]) -> str:
    """Readable report for ``repro trend``."""
    header = (f"trend — {summary['records']} record(s)"
              + (f", {summary['first_date']} → {summary['last_date']}"
                 if summary["records"] else ""))
    if not summary["records"]:
        return header + "\n  (no trend history yet)"
    sections = [header]
    if summary["kernels"]:
        rows = [
            [name, _fmt(row["wall_seconds"]),
             _fmt_delta(row["wall_seconds_delta_pct"]),
             _fmt(row["events_per_second"], ",.0f"),
             _fmt_delta(row["events_per_second_delta_pct"]),
             _fmt(row["peak_alloc_kib"], ",.0f"),
             str(row["samples"]),
             "FLAG" if row["flagged"] else ""]
            for name, row in summary["kernels"].items()
        ]
        sections.append(render_table(
            ["kernel", "wall s", "Δwall", "ev/s", "Δev/s", "peak KiB",
             "n", ""],
            rows, title="perf kernels: latest vs trailing median"))
    if summary["regressions"]:
        sections.append("regressions flagged "
                        f"(>{summary['threshold_pct']:g}%):\n" +
                        "\n".join(f"  {line}"
                                  for line in summary["regressions"]))
    else:
        sections.append(
            f"no regressions beyond {summary['threshold_pct']:g}% "
            f"of the trailing median")
    return "\n\n".join(sections)


def trend_payload(summary: dict[str, Any]) -> dict[str, Any]:
    """Wrap the summary in the standard ``repro.run/1`` envelope."""
    return make_run_payload(
        "trend",
        params={"records": summary["records"],
                "threshold_pct": summary["threshold_pct"]},
        results=summary,
    )
