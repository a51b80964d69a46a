"""Self-contained HTML report for one ``repro.run/1`` envelope.

``repro report RUN.json -o report.html`` renders a single HTML file —
inline CSS, inline SVG, zero external requests or third-party
dependencies — that makes a finished run inspectable without
re-simulating.  Six panels, always present (a panel whose data the
envelope lacks renders an explanatory empty state instead of
disappearing):

1. **Table 1 matrix** — paper-expected vs measured serialized message
   counts, with a per-row match verdict.
2. **Figures** — the envelope's figure results as charts: per-variant
   small-multiple line charts for the counter figures (x = panel,
   shared y scale), per-app contention-histogram lines for Figure 2
   (one series per policy), and per-app elapsed-time bars for Figure 6.
   Paper-expected curves are overlaid where the harness has them
   (Table 1 is the exact reproduction; the figure panels are
   qualitative in the paper, so the overlay is the expected/measured
   matrix itself).
3. **Latency waterfalls** — the run's critical-path blame by hop kind,
   plus a per-transaction waterfall for each of the worst (p95+)
   transactions: one bar per critical-path span, positioned on the
   transaction's own timeline and colored by span kind.
4. **Hotspots** — the per-cache-line contention ranking, with a
   directory-queue-depth sparkline per block.
5. **Host-time profile** — where wall-clock time went while producing
   the run: per-(component, handler) self-time bars plus the engine's
   dispatch residual, from the ``profile`` envelope section (any run
   with ``--profile --json``).
6. **Chaos verification** — the seeded fault-injection matrix from the
   ``faults`` envelope section (``repro chaos --json``): per-point
   checker verdicts (history, termination, conservation, golden
   agreement) and the injected-fault totals.

Every chart carries a ``<details>`` data table, so the numbers are
readable without the SVG (and by screen readers); colors come from a
CVD-validated palette defined once as CSS custom properties, with a
dark-mode variant selected via ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import pathlib
from typing import Any, Mapping, Optional, Sequence

from ..obs.schema import validate_run_payload
from ..obs.spans import SPAN_KINDS

__all__ = ["render_report", "write_report"]

# CVD-validated categorical slots (light, dark) in fixed order; span
# kinds map onto them positionally so a kind keeps its hue everywhere.
_SERIES = (
    ("#2a78d6", "#3987e5"),   # 1 blue
    ("#eb6834", "#d95926"),   # 2 orange
    ("#1baf7a", "#199e70"),   # 3 aqua
    ("#eda100", "#c98500"),   # 4 yellow
    ("#e87ba4", "#d55181"),   # 5 magenta
    ("#008300", "#008300"),   # 6 green
)

_KIND_SLOT = {kind: i + 1 for i, kind in enumerate(SPAN_KINDS)}

_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --good: #0ca30c; --bad: #d03b3b;
""" + "".join(
    f"  --series-{i + 1}: {light};\n" for i, (light, _) in enumerate(_SERIES)
) + """}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --good: #0ca30c; --bad: #e66767;
""" + "".join(
    f"    --series-{i + 1}: {dark};\n" for i, (_, dark) in enumerate(_SERIES)
) + """  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 980px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 0 0 8px; }
h3 { font-size: 13px; margin: 12px 0 4px; color: var(--ink-2); }
.meta { color: var(--ink-2); margin: 0 0 20px; }
.meta code { color: var(--ink); }
section.panel {
  background: var(--surface); border: 1px solid var(--grid);
  border-radius: 8px; padding: 16px 20px; margin: 0 0 20px;
}
.empty { color: var(--muted); font-style: italic; }
table { border-collapse: collapse; font-variant-numeric: tabular-nums; }
th, td { padding: 3px 10px; text-align: right; }
th:first-child, td:first-child { text-align: left; }
thead th { border-bottom: 1px solid var(--axis); color: var(--ink-2);
           font-weight: 600; }
tbody tr:nth-child(even) { background:
  color-mix(in srgb, var(--grid) 35%, transparent); }
.ok { color: var(--good); } .miss { color: var(--bad); }
details { margin: 6px 0 0; }
summary { color: var(--muted); cursor: pointer; font-size: 12px; }
.grid { display: flex; flex-wrap: wrap; gap: 12px; }
.cell { flex: 0 0 auto; }
.cell .t { font-size: 11px; color: var(--ink-2); margin: 0 0 2px;
           max-width: 160px; overflow: hidden; text-overflow: ellipsis;
           white-space: nowrap; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 4px 0 8px;
          font-size: 12px; color: var(--ink-2); }
.legend .sw { display: inline-block; width: 10px; height: 10px;
              border-radius: 2px; margin-right: 4px; vertical-align: -1px; }
svg { display: block; }
svg text { font: 10px system-ui, -apple-system, "Segoe UI", sans-serif;
           fill: var(--muted); }
svg .val { fill: var(--ink-2); }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
           cells_html: bool = False) -> str:
    """An HTML table; cell text is escaped unless ``cells_html``."""
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = []
    for row in rows:
        cells = "".join(
            f"<td>{cell if cells_html else _esc(_fmt(cell))}</td>"
            for cell in row
        )
        body.append(f"<tr>{cells}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _data_table(headers: Sequence[str],
                rows: Sequence[Sequence[Any]]) -> str:
    """The chart's accessible data-table twin, collapsed by default."""
    return (f"<details><summary>data table</summary>"
            f"{_table(headers, rows)}</details>")


def _legend(entries: Sequence[tuple[str, int]]) -> str:
    """A legend of (label, series-slot) pairs."""
    spans = "".join(
        f'<span><span class="sw" style="background:var(--series-{slot})">'
        f"</span>{_esc(label)}</span>"
        for label, slot in entries
    )
    return f'<div class="legend">{spans}</div>'


# ----------------------------------------------------------------------
# SVG primitives
# ----------------------------------------------------------------------

def _polyline(points: Sequence[tuple[float, float]], slot: int,
              width: float = 2.0) -> str:
    path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
    return (f'<polyline points="{path}" fill="none" '
            f'stroke="var(--series-{slot})" stroke-width="{width}" '
            f'stroke-linejoin="round" stroke-linecap="round"/>')


def _line_chart(
    series: Sequence[tuple[str, int, Sequence[float]]],
    x_labels: Sequence[str],
    width: int = 220,
    height: int = 110,
    y_max: Optional[float] = None,
    tooltip: Optional[str] = None,
) -> str:
    """A small line chart: ``series`` is (label, slot, values) tuples.

    All series share ``x_labels`` as the ordered x axis; ``y_max`` pins
    the y scale (for shared-scale small multiples).
    """
    pad_l, pad_r, pad_t, pad_b = 34, 6, 6, 16
    plot_w = width - pad_l - pad_r
    plot_h = height - pad_t - pad_b
    top = y_max if y_max else max(
        (v for _, _, values in series for v in values), default=1.0) or 1.0
    n = max(len(x_labels), 2)

    def xy(i: int, v: float) -> tuple[float, float]:
        return (pad_l + plot_w * i / (n - 1),
                pad_t + plot_h * (1.0 - v / top))

    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'viewBox="0 0 {width} {height}">']
    if tooltip:
        parts.append(f"<title>{_esc(tooltip)}</title>")
    # recessive grid: baseline + top reference
    parts.append(f'<line x1="{pad_l}" y1="{pad_t + plot_h}" '
                 f'x2="{width - pad_r}" y2="{pad_t + plot_h}" '
                 f'stroke="var(--axis)"/>')
    parts.append(f'<line x1="{pad_l}" y1="{pad_t}" x2="{width - pad_r}" '
                 f'y2="{pad_t}" stroke="var(--grid)"/>')
    parts.append(f'<text x="{pad_l - 4}" y="{pad_t + 4}" '
                 f'text-anchor="end">{_esc(_fmt(top))}</text>')
    parts.append(f'<text x="{pad_l - 4}" y="{pad_t + plot_h + 4}" '
                 f'text-anchor="end">0</text>')
    parts.append(f'<text x="{pad_l}" y="{height - 3}">'
                 f"{_esc(x_labels[0] if x_labels else '')}</text>")
    if len(x_labels) > 1:
        parts.append(f'<text x="{width - pad_r}" y="{height - 3}" '
                     f'text-anchor="end">{_esc(x_labels[-1])}</text>')
    for _, slot, values in series:
        pts = [xy(i, v) for i, v in enumerate(values)]
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                         f'fill="var(--series-{slot})"/>')
        else:
            parts.append(_polyline(pts, slot))
    parts.append("</svg>")
    return "".join(parts)


def _bar_chart(
    rows: Sequence[tuple[str, float]],
    width: int = 560,
    slot: int = 1,
    unit: str = "",
) -> str:
    """Horizontal bars (one hue — the job is magnitude), value-labeled."""
    bar_h, gap, label_w, value_w = 14, 2, 150, 70
    plot_w = width - label_w - value_w
    top = max((v for _, v in rows), default=1.0) or 1.0
    height = len(rows) * (bar_h + gap) + 4
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'viewBox="0 0 {width} {height}">']
    for i, (label, value) in enumerate(rows):
        y = 2 + i * (bar_h + gap)
        w = max(1.0, plot_w * value / top)
        parts.append(f'<text x="{label_w - 6}" y="{y + bar_h - 3}" '
                     f'text-anchor="end">{_esc(label)}</text>')
        parts.append(
            f'<rect x="{label_w}" y="{y}" width="{w:.1f}" '
            f'height="{bar_h}" rx="3" fill="var(--series-{slot})">'
            f"<title>{_esc(label)}: {_esc(_fmt(value))}{_esc(unit)}</title>"
            f"</rect>")
        parts.append(f'<text x="{label_w + w + 6:.1f}" '
                     f'y="{y + bar_h - 3}" class="val">'
                     f"{_esc(_fmt(value))}</text>")
    parts.append("</svg>")
    return "".join(parts)


def _sparkline(points: Sequence[Sequence[float]], width: int = 110,
               height: int = 18) -> str:
    """A tiny single-series line (directory queue depth over cycles)."""
    if not points:
        return '<span class="empty">–</span>'
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    top = max(ys) or 1.0
    span = (x1 - x0) or 1.0
    pts = [(2 + (width - 4) * (x - x0) / span,
            height - 2 - (height - 4) * y / top) for x, y in points]
    body = (_polyline(pts, 1, width=1.5) if len(pts) > 1 else
            f'<circle cx="{pts[0][0]:.1f}" cy="{pts[0][1]:.1f}" r="2.5" '
            f'fill="var(--series-1)"/>')
    return (f'<svg width="{width}" height="{height}" role="img" '
            f'viewBox="0 0 {width} {height}">'
            f"<title>max queue depth {_fmt(max(ys))}</title>{body}</svg>")


# ----------------------------------------------------------------------
# Panel 1 — Table 1 matrix
# ----------------------------------------------------------------------

def _panel_table1(payload: Mapping[str, Any]) -> str:
    results = payload.get("results", {})
    expected = results.get("expected")
    measured = results.get("measured")
    if not (isinstance(expected, dict) and isinstance(measured, dict)):
        return ('<p class="empty">This envelope carries no Table 1 data '
                "(run <code>repro table1 --json</code> or "
                "<code>bench_table1</code> for the expected-vs-measured "
                "matrix).</p>")
    rows = []
    for label in expected:
        got = measured.get(label)
        ok = got == expected[label]
        verdict = ('<span class="ok">✓ match</span>' if ok
                   else '<span class="miss">✗ differs</span>')
        rows.append([_esc(label), _esc(expected[label]),
                     _esc("–" if got is None else got), verdict])
    note = ("" if results.get("match", True) else
            '<p class="miss">Measured counts diverge from the paper.</p>')
    return note + _table(
        ["store target", "paper", "measured", "verdict"], rows,
        cells_html=True)


# ----------------------------------------------------------------------
# Panel 2 — figure charts
# ----------------------------------------------------------------------

def _figure2_charts(apps: Mapping[str, Any]) -> str:
    """Per-app contention histograms: one line per policy."""
    policies = ("UNC", "INV", "UPD")
    out = [_legend([(p, i + 1) for i, p in enumerate(policies)])]
    table_rows = []
    for app in sorted(apps):
        per_policy = apps[app]
        levels = sorted({int(level)
                         for policy in per_policy.values()
                         for level in policy.get("histogram", {})})
        if not levels:
            continue
        series = []
        for i, policy in enumerate(policies):
            hist = per_policy.get(policy, {}).get("histogram", {})
            series.append((policy, i + 1,
                           [float(hist.get(str(lv), 0.0)) for lv in levels]))
        out.append('<div class="cell">'
                   f'<div class="t">{_esc(app)}</div>'
                   + _line_chart(series, [str(lv) for lv in levels],
                                 width=280, height=130,
                                 tooltip=f"{app}: % of writes at each "
                                         "contention level")
                   + "</div>")
        for policy in policies:
            info = per_policy.get(policy, {})
            for lv in levels:
                table_rows.append([app, policy, lv,
                                   info.get("histogram", {}).get(str(lv), 0.0)])
    charts = f'<div class="grid">{"".join(out[1:])}</div>'
    write_runs = _table(
        ["application"] + list(policies),
        [[app] + [apps[app].get(p, {}).get("write_run", 0.0)
                  for p in policies] for app in sorted(apps)])
    return (out[0] + charts + "<h3>average write-run lengths</h3>"
            + write_runs
            + _data_table(["app", "policy", "contention", "% writes"],
                          table_rows))


def _counter_figure_charts(panels: Sequence[Mapping[str, Any]]) -> str:
    """Small multiples: one line chart per variant, x = panel."""
    x_labels = [str(p.get("label", i)) for i, p in enumerate(panels)]
    variants: list[str] = []
    values: dict[str, list[float]] = {}
    for panel in panels:
        for label, value in panel.get("bars", []):
            if label not in values:
                variants.append(label)
                values[label] = []
    for panel in panels:
        bars = dict(panel.get("bars", []))
        for label in variants:
            values[label].append(float(bars.get(label, 0.0)))
    y_max = max((v for vs in values.values() for v in vs), default=1.0)
    cells = []
    for label in variants:
        cells.append(
            '<div class="cell">'
            f'<div class="t">{_esc(label)}</div>'
            + _line_chart([(label, 1, values[label])], x_labels,
                          y_max=y_max,
                          tooltip=f"{label}: cycles/update per panel "
                                  "(shared y scale)")
            + "</div>")
    table_rows = [[label] + list(values[label]) for label in variants]
    return (f'<p class="meta">cycles per update; one chart per variant, '
            f"shared y scale (0–{_fmt(y_max)}), x = panel "
            f"({_esc(x_labels[0])} … {_esc(x_labels[-1])})</p>"
            f'<div class="grid">{"".join(cells)}</div>'
            + _data_table(["variant"] + x_labels, table_rows))


def _figure6_charts(apps: Mapping[str, Any]) -> str:
    """Per-app elapsed-time bars (variants are unordered: bars, not lines)."""
    out = []
    table_rows = []
    for app in sorted(apps):
        bars = [(str(label), float(value)) for label, value in apps[app]]
        out.append(f"<h3>{_esc(app)}</h3>" + _bar_chart(bars, unit=" cycles"))
        table_rows.extend([[app, label, value] for label, value in bars])
    return ("".join(out)
            + _data_table(["app", "variant", "total cycles"], table_rows))


def _panel_figures(payload: Mapping[str, Any]) -> str:
    results = payload.get("results", {})
    apps = results.get("apps")
    panels = results.get("panels")
    if isinstance(apps, dict) and apps:
        first = next(iter(apps.values()))
        if isinstance(first, dict):        # figure2: app -> policy -> data
            return _figure2_charts(apps)
        if isinstance(first, list):        # figure6: app -> [[label, cycles]]
            return _figure6_charts(apps)
    if (isinstance(panels, list) and panels
            and isinstance(panels[0], dict) and "bars" in panels[0]):
        return _counter_figure_charts(panels)
    return ('<p class="empty">This envelope carries no figure series '
            "(run <code>repro figure2…figure6 --json</code> to chart "
            "panels here).</p>")


# ----------------------------------------------------------------------
# Panel 3 — critical-path blame + latency waterfalls
# ----------------------------------------------------------------------

_KIND_HELP = {
    "root": "operation entered the controller",
    "msg": "message flight (incl. port queuing)",
    "queue": "memory-module FIFO wait",
    "memory": "memory/directory occupancy",
    "dirwait": "parked on a busy directory entry",
    "ctrl": "requester-side controller occupancy",
}


def _blame_bar(by_kind: Mapping[str, int], total: int) -> str:
    """One stacked bar: critical-path cycles by hop kind, 2px gaps."""
    width, bar_h = 640, 18
    parts = [f'<svg width="{width}" height="{bar_h + 4}" role="img" '
             f'viewBox="0 0 {width} {bar_h + 4}">']
    x = 0.0
    for kind in SPAN_KINDS:
        cycles = by_kind.get(kind, 0)
        if not cycles or not total:
            continue
        w = width * cycles / total
        parts.append(
            f'<rect x="{x + 1:.1f}" y="2" width="{max(w - 2, 1):.1f}" '
            f'height="{bar_h}" rx="3" '
            f'fill="var(--series-{_KIND_SLOT[kind]})">'
            f"<title>{_esc(kind)}: {cycles} cycles "
            f"({100.0 * cycles / total:.1f}%)</title></rect>")
        x += w
    parts.append("</svg>")
    return "".join(parts)


def _waterfall(txn: Mapping[str, Any]) -> str:
    """One worst transaction's critical path on its own timeline."""
    path = txn.get("path", [])
    start = int(txn.get("start", 0))
    duration = max(1, int(txn.get("cycles", 1)))
    width, row_h, label_w, value_w = 720, 16, 170, 70
    plot_w = width - label_w - value_w
    height = len(path) * row_h + 4
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'viewBox="0 0 {width} {height}">']
    for i, step in enumerate(path):
        y = 2 + i * row_h
        kind = step.get("kind", "msg")
        t0, t1 = int(step.get("t0", start)), int(step.get("t1", start))
        x0 = label_w + plot_w * (t0 - start) / duration
        w = max(2.0, plot_w * (t1 - t0) / duration)
        label = f"{kind} {step.get('component', '')}"
        detail = step.get("detail", "")
        parts.append(f'<text x="{label_w - 6}" y="{y + row_h - 4}" '
                     f'text-anchor="end">{_esc(label)}</text>')
        parts.append(
            f'<rect x="{x0:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{row_h - 2}" rx="3" '
            f'fill="var(--series-{_KIND_SLOT.get(kind, 1)})">'
            f"<title>{_esc(label)} {_esc(detail)}: cycles {t0}–{t1} "
            f"(+{step.get('cycles', t1 - t0)} on the critical path)"
            f"</title></rect>")
        parts.append(f'<text x="{x0 + w + 5:.1f}" y="{y + row_h - 4}" '
                     f'class="val">+{_esc(step.get("cycles", t1 - t0))}'
                     f"{' ' + _esc(detail) if detail else ''}</text>")
    parts.append("</svg>")
    blockers = txn.get("blockers", [])
    blocked = ""
    if blockers:
        notes = ", ".join(
            f"{_esc(b.get('kind', '?'))} by txn {_esc(b.get('txn', '?'))}"
            + (f" ({_esc(b.get('cycles'))} cycles)" if b.get("cycles")
               else "")
            for b in blockers)
        blocked = f'<p class="meta">blocked: {notes}</p>'
    head = (f"txn {txn.get('txn_id', '?')} — "
            f"{txn.get('op', '?')}/{txn.get('policy') or '-'} "
            f"on node {txn.get('node', '?')}, block {txn.get('block', '?')}: "
            f"{txn.get('cycles', '?')} cycles")
    return f"<h3>{_esc(head)}</h3>{''.join(parts)}{blocked}"


def _panel_waterfalls(payload: Mapping[str, Any]) -> str:
    critpath = payload.get("critpath")
    if not isinstance(critpath, dict):
        return ('<p class="empty">This envelope carries no critical-path '
                "data (<code>repro stats --json</code> emits it under the "
                "<code>critpath</code> key).</p>")

    total = critpath.get("cycles", 0)
    by_kind = critpath.get("by_kind", {})
    legend = _legend([
        (f"{kind} — {_KIND_HELP[kind]}", _KIND_SLOT[kind])
        for kind in SPAN_KINDS if by_kind.get(kind)
    ])
    blame = (f'<p class="meta">{critpath.get("txns", 0)} remote '
             f"transaction(s), {total} critical-path cycle(s)</p>"
             + legend + _blame_bar(by_kind, total))

    keys = critpath.get("keys", {})
    key_rows = []
    for key, summary in sorted(keys.items()):
        dominant = max(summary.get("by_kind", {"-": 0}),
                       key=lambda k: summary["by_kind"].get(k, 0))
        key_rows.append([key, summary.get("count", 0),
                         round(summary.get("mean", 0.0), 1),
                         summary.get("p50", 0), summary.get("p95", 0),
                         summary.get("max", 0), dominant])
    composition = ("<h3>critical-path composition per primitive × "
                   "policy</h3>"
                   + _table(["primitive/policy", "n", "mean", "p50", "p95",
                             "max", "dominant hop"], key_rows)
                   if key_rows else "")

    worst = critpath.get("worst", [])
    waterfalls = "".join(_waterfall(txn) for txn in worst)
    if not worst:
        waterfalls = ('<p class="empty">No remote transactions were '
                      "observed, so there are no waterfalls.</p>")
    return blame + composition + waterfalls


# ----------------------------------------------------------------------
# Panel 4 — hotspot table
# ----------------------------------------------------------------------

def _panel_hotspots(payload: Mapping[str, Any]) -> str:
    hotspots = payload.get("hotspots")
    if not isinstance(hotspots, dict):
        return ('<p class="empty">This envelope carries no hotspot data '
                "(<code>repro stats --json</code> emits the per-cache-line "
                "contention ranking under the <code>hotspots</code> "
                "key).</p>")
    top = hotspots.get("top", [])
    if not top:
        return '<p class="empty">No protocol traffic was observed.</p>'
    rows = []
    for entry in top:
        rows.append([
            _esc(entry.get("block")), _esc(entry.get("score")),
            _esc(entry.get("queue_wait")), _esc(entry.get("dir_wait")),
            _esc(entry.get("max_depth")), _esc(entry.get("multicasts")),
            _esc(entry.get("failures")), _esc(entry.get("res_kills")),
            _esc(entry.get("messages")),
            _sparkline(entry.get("depth_series", [])),
        ])
    note = (f'<p class="meta">{hotspots.get("blocks_seen", len(top))} '
            f"block(s) saw traffic; top {len(rows)} by contention score "
            f"(queue-depth sparklines sampled per "
            f"{hotspots.get('window', '?')}-cycle window)</p>")
    return note + _table(
        ["block", "score", "queue wait", "dir wait", "max depth",
         "multicasts", "failed", "res kills", "messages", "queue depth"],
        rows, cells_html=True)


# ----------------------------------------------------------------------
# Panel 5 — host-time profile
# ----------------------------------------------------------------------

def _panel_profile(payload: Mapping[str, Any]) -> str:
    profile = payload.get("profile")
    if not isinstance(profile, dict):
        return ('<p class="empty">This envelope carries no host-time '
                "profile (run any experiment with <code>--profile "
                "--json</code>, e.g. <code>repro --profile stats table1 "
                "--json run.json</code>, to attribute wall-clock time per "
                "component here).</p>")
    total = profile.get("total_ns", 0)
    kinds = profile.get("kinds", {})
    bars = [(key, entry.get("ns", 0) / 1e6)
            for key, entry in kinds.items()]
    bars.append(("engine.dispatch", profile.get("dispatch_ns", 0) / 1e6))
    note = (f'<p class="meta">{total / 1e6:.2f} ms of wall time over '
            f'{profile.get("events", 0):,} event(s) in '
            f'{profile.get("runs", 0)} run(s); bars are per-handler '
            "self-time in ms, <code>engine.dispatch</code> is the "
            "dispatch-loop residual (scans, pops, bookkeeping)</p>")
    rows = [[key, entry.get("calls", 0), round(entry.get("ns", 0) / 1e6, 3),
             f"{100.0 * entry.get('share', 0.0):.1f}%"]
            for key, entry in kinds.items()]
    rows.append(["engine.dispatch", profile.get("events", 0),
                 round(profile.get("dispatch_ns", 0) / 1e6, 3),
                 (f"{100.0 * profile.get('dispatch_ns', 0) / total:.1f}%"
                  if total else "0.0%")])
    return (note + _bar_chart(bars, slot=2, unit=" ms")
            + _data_table(["component.handler", "calls", "ms", "share"],
                          rows))


# ----------------------------------------------------------------------
# Panel 6 — chaos verification
# ----------------------------------------------------------------------

def _panel_faults(payload: Mapping[str, Any]) -> str:
    faults = payload.get("faults")
    if not isinstance(faults, dict):
        return ('<p class="empty">This envelope carries no chaos '
                "verdicts (run <code>repro chaos --json</code> to sweep "
                "a seeded fault matrix through the verify checkers; see "
                "<code>docs/robustness.md</code>).</p>")
    points = faults.get("points", 0)
    passed = faults.get("passed", 0)
    failed = faults.get("failed", 0)
    verdict = ('<span class="ok">✓ all points passed</span>' if not failed
               else f'<span class="miss">✗ {failed} point(s) failed</span>')
    plan = faults.get("plan", {})
    plan_desc = ", ".join(f"{key}={_fmt(value)}"
                          for key, value in sorted(plan.items())
                          if value)
    note = (f'<p class="meta">{faults.get("workload")} workload × '
            f'{faults.get("nodes")} nodes × {faults.get("turns")} turns · '
            f'seeds {faults.get("seeds")} · '
            f'intensities {faults.get("intensities")} · '
            f'policies {faults.get("policies")} · '
            f"{passed}/{points} passed {verdict}</p>"
            f'<p class="meta">fault plan: <code>{_esc(plan_desc)}</code>'
            "</p>")

    fired: dict[str, int] = {}
    rows = []
    for point in faults.get("verdicts", []):
        checks = point.get("checks", {})
        complaints = ", ".join(f"{name}: {value}"
                               for name, value in checks.items()
                               if value != "ok") or "all ok"
        mark = ('<span class="ok">✓</span>' if point.get("ok")
                else '<span class="miss">✗</span>')
        rows.append([
            _esc(point.get("policy")), _esc(point.get("seed")),
            _esc(point.get("intensity")),
            _esc("–" if point.get("final") is None else point.get("final")),
            _esc(point.get("expected", "–")),
            _esc(point.get("end_time", "–")), mark, _esc(complaints),
        ])
        for name, value in point.get("faults", {}).items():
            fired[name] = fired.get(name, 0) + value
    table = _table(["policy", "seed", "intensity", "final", "expected",
                    "end cycle", "ok", "checks"], rows, cells_html=True)

    injected = ""
    if fired:
        bars = [(name.removeprefix("faults."), float(value))
                for name, value in sorted(fired.items())
                if not name.endswith("_cycles")]
        injected = ("<h3>injected faults (matrix total)</h3>"
                    + _bar_chart(bars, slot=5)
                    + _data_table(["fault counter", "count"],
                                  [[name, value] for name, value
                                   in sorted(fired.items())]))
    return note + table + injected


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------

def render_report(payload: Mapping[str, Any],
                  title: Optional[str] = None) -> str:
    """One envelope as a single self-contained HTML document."""
    document = validate_run_payload(dict(payload))
    name = title or f"repro run report — {document['experiment']}"
    params = ", ".join(f"{k}={_fmt(v)}"
                       for k, v in sorted(document["params"].items()))
    panels = [
        ("Table 1 — serialized messages per store",
         _panel_table1(document)),
        ("Figures", _panel_figures(document)),
        ("Critical path &amp; latency waterfalls",
         _panel_waterfalls(document)),
        ("Cache-line hotspots", _panel_hotspots(document)),
        ("Host-time profile", _panel_profile(document)),
        ("Chaos verification", _panel_faults(document)),
    ]
    sections = "".join(
        f'<section class="panel" id="panel-{i + 1}">'
        f"<h2>{heading}</h2>{body}</section>"
        for i, (heading, body) in enumerate(panels)
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, '
        'initial-scale=1">\n'
        f"<title>{_esc(name)}</title>\n"
        f"<style>{_CSS}</style>\n"
        "</head><body><main>\n"
        f"<h1>{_esc(name)}</h1>\n"
        f'<p class="meta">schema <code>{_esc(document["schema"])}</code> · '
        f'version {_esc(document["version"])} · '
        f"params: {_esc(params) or '–'}</p>\n"
        f"{sections}"
        "</main></body></html>\n"
    )


def write_report(payload: Mapping[str, Any], path,
                 title: Optional[str] = None) -> None:
    """Render ``payload`` and write the HTML document to ``path``."""
    target = pathlib.Path(path)
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(render_report(payload, title=title))
