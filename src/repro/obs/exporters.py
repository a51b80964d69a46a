"""Exporters for recorded event traces.

Three output shapes for one list of :class:`~repro.obs.events.Event`:

* :func:`render_timeline` — the human-readable text timeline, one
  line per event;
* :func:`to_jsonl` — one JSON object per event, for ad-hoc tooling
  (``jq``, pandas);
* :func:`to_chrome_trace` — the Chrome trace-event format: open
  ``chrome://tracing`` (or https://ui.perfetto.dev) and load the file to
  scrub through a transaction visually.  Each message renders as a send
  slice on its source node's track and a deliver slice on its
  destination node's track, bound by a *flow event* pair (``ph:"s"`` /
  ``ph:"f"`` sharing the message id) so the viewer draws an arrow from
  send to delivery; everything else renders as instant events.

See ``docs/observability.md`` for the schemas.
"""

from __future__ import annotations

import json
from typing import Iterable

from .events import Event

__all__ = ["render_timeline", "to_jsonl", "to_chrome_trace", "export_events"]


def _describe(event: Event) -> str:
    """Kind-specific one-line detail text."""
    d = event.data
    if event.kind in ("msg.send", "msg.deliver"):
        return (f"{d.get('mtype', '?'):12s} {d.get('src', -1):3d} -> "
                f"{d.get('dst', -1):3d} ({d.get('unit', '?'):5s}) "
                f"block={d.get('block')} chain={d.get('chain')} "
                f"req={d.get('requester')}")
    pairs = " ".join(f"{k}={v}" for k, v in sorted(d.items()))
    return pairs


def render_timeline(events: Iterable[Event], title: str = "") -> str:
    """A text timeline, one event per row, ordered as recorded."""
    events = list(events)
    lines = [title or f"event trace: {len(events)} events"]
    for e in events:
        lines.append(f"{e.ts:8d}  {e.kind:16s} node={e.node:3d}  {_describe(e)}")
    return "\n".join(lines)


def to_jsonl(events: Iterable[Event]) -> str:
    """One compact JSON object per line: kind, ts, node, plus data."""
    rows = []
    for e in events:
        row = {"kind": e.kind, "ts": e.ts, "node": e.node}
        row.update(e.data)
        rows.append(json.dumps(row, sort_keys=True))
    return "\n".join(rows)


def to_chrome_trace(events: Iterable[Event], pid: int = 1) -> str:
    """The events as a Chrome trace-event JSON document.

    * ``msg.send`` becomes a complete ("X") slice covering the flight on
      the source node's track, plus a flow-start (``ph:"s"``) keyed by
      the message id;
    * ``msg.deliver`` becomes a short complete slice on the destination
      node's track, plus the matching flow-finish (``ph:"f"``,
      ``bp:"e"``) — the trace viewer draws an arrow from the send slice
      to the deliver slice;
    * every other kind becomes an instant ("i") event on its node's
      track.

    ``pid`` labels the process; node index is the ``tid``.
    """
    trace_events: list[dict] = []
    for e in events:
        base = {
            "pid": pid,
            "tid": max(e.node, 0),
            "ts": e.ts,
            "cat": e.kind.split(".", 1)[0],
            "args": dict(e.data),
        }
        name = str(e.data.get("mtype", "msg"))
        msg_id = e.data.get("msg_id")
        if e.kind == "msg.send":
            delivered = e.data.get("delivered", e.ts)
            trace_events.append({
                **base,
                "name": name,
                "ph": "X",
                "dur": max(0, delivered - e.ts),
            })
            if msg_id is not None:
                trace_events.append({
                    "pid": pid, "tid": max(e.node, 0), "ts": e.ts,
                    "cat": "flow", "name": name, "ph": "s",
                    "id": msg_id,
                })
        elif e.kind == "msg.deliver":
            trace_events.append({
                **base,
                "name": f"{name} (deliver)",
                "ph": "X",
                "dur": 1,
            })
            if msg_id is not None:
                trace_events.append({
                    "pid": pid, "tid": max(e.node, 0), "ts": e.ts,
                    "cat": "flow", "name": name, "ph": "f", "bp": "e",
                    "id": msg_id,
                })
        else:
            trace_events.append({
                **base,
                "name": e.kind,
                "ph": "i",
                "s": "t",
            })
    return json.dumps(
        {"traceEvents": trace_events, "displayTimeUnit": "ms"},
        sort_keys=True,
    )


def export_events(events: Iterable[Event], fmt: str, title: str = "") -> str:
    """Dispatch on ``fmt`` in {"text", "jsonl", "chrome"}."""
    if fmt == "text":
        return render_timeline(events, title=title)
    if fmt == "jsonl":
        return to_jsonl(events)
    if fmt == "chrome":
        return to_chrome_trace(events)
    raise ValueError(f"unknown trace format {fmt!r}")
