"""The self-contained HTML run report."""

import json
import re

import pytest

from repro.config import small_config
from repro.harness.htmlreport import render_report, write_report
from repro.harness.instrumented import run_instrumented
from repro.obs.schema import load_run, make_run_payload

PANEL_IDS = ("panel-1", "panel-2", "panel-3", "panel-4", "panel-5",
             "panel-6")


def _bench_table1_payload():
    """The shape ``bench_table1`` writes: results only, no instruments."""
    counts = {"UNC": 2, "INV to remote exclusive": 4}
    return make_run_payload(
        "table1", params={"nodes": 64, "turns": 6},
        results={"expected": counts, "measured": dict(counts),
                 "match": True},
    )


def _assert_selfcontained(html: str) -> None:
    """One document, no external requests, all four panels present."""
    assert html.startswith("<!DOCTYPE html>")
    assert not re.search(r'(?:src|href)\s*=\s*["\']', html), \
        "a self-contained report must not reference external resources"
    assert "@import" not in html and "url(" not in html
    for panel in PANEL_IDS:
        assert f'id="{panel}"' in html


def test_bench_table1_envelope_renders_all_four_panels():
    html = render_report(_bench_table1_payload())
    _assert_selfcontained(html)
    # Panel 1 is populated; 2–4 render explanatory empty states.
    assert "INV to remote exclusive" in html
    assert html.count("match") >= 2
    assert html.count('class="empty"') >= 3


def test_mismatch_is_flagged():
    payload = _bench_table1_payload()
    payload["results"]["measured"]["UNC"] = 3
    payload["results"]["match"] = False
    html = render_report(payload)
    assert "differs" in html
    assert "diverge" in html


def test_instrumented_envelope_populates_every_panel():
    run = run_instrumented("figure3", small_config(n_nodes=4), turns=2)
    html = render_report(run.payload())
    _assert_selfcontained(html)
    assert "<svg" in html
    assert "critical-path" in html or "critical path" in html
    assert "txn" in html                      # a waterfall heading
    assert "contention score" in html or "block" in html
    # the hotspot table lists the counter's block
    top = run.hotspots.snapshot(top_n=1)["top"]
    assert top and f"<td>{top[0]['block']}</td>" in html


def test_counter_figure_small_multiples():
    panels = [
        {"label": "c=1", "bars": [["FAP/INV", 100.0], ["CAS/INV", 120.0]]},
        {"label": "c=4", "bars": [["FAP/INV", 180.0], ["CAS/INV", 260.0]]},
    ]
    payload = make_run_payload("figure3", params={"nodes": 4},
                               results={"panels": panels})
    html = render_report(payload)
    _assert_selfcontained(html)
    assert html.count("polyline") >= 2        # one line chart per variant
    assert "FAP/INV" in html and "CAS/INV" in html
    assert "shared y scale" in html


def test_figure2_policy_series_and_write_runs():
    apps = {
        "cholesky": {
            "UNC": {"histogram": {"1": 90.0, "2": 10.0}, "write_run": 1.1},
            "INV": {"histogram": {"1": 80.0, "2": 20.0}, "write_run": 1.6},
            "UPD": {"histogram": {"1": 85.0, "2": 15.0}, "write_run": 1.3},
        },
    }
    payload = make_run_payload("figure2", params={"nodes": 4},
                               results={"apps": apps})
    html = render_report(payload)
    _assert_selfcontained(html)
    assert "cholesky" in html
    assert "write-run" in html
    assert html.count("polyline") >= 3        # one series per policy


def test_figure6_bars():
    payload = make_run_payload(
        "figure6", params={"nodes": 4},
        results={"apps": {"mp3d": [["FAP/INV", 21427], ["CAS/INV", 21499]]}},
    )
    html = render_report(payload)
    _assert_selfcontained(html)
    assert "mp3d" in html and "21427" in html
    assert "<rect" in html


def test_waterfall_steps_on_transaction_timeline():
    run = run_instrumented("figure3", small_config(n_nodes=4), turns=2)
    payload = run.payload()
    worst = payload["critpath"]["worst"][0]
    html = render_report(payload)
    # every critical-path step of the worst txn appears as a titled rect
    for step in worst["path"]:
        assert step["kind"] in html
    assert f"txn {worst['txn_id']}" in html


def test_html_escapes_untrusted_strings():
    payload = _bench_table1_payload()
    payload["results"]["expected"] = {"<script>alert(1)</script>": 1}
    payload["results"]["measured"] = {"<script>alert(1)</script>": 1}
    html = render_report(payload)
    assert "<script>" not in html
    assert "&lt;script&gt;" in html


def test_write_report_and_load_run_roundtrip(tmp_path):
    source = tmp_path / "deep" / "run.json"
    source.parent.mkdir()
    source.write_text(json.dumps(_bench_table1_payload()))
    payload = load_run(source)
    target = tmp_path / "nested" / "dir" / "report.html"
    write_report(payload, target, title="demo report")
    html = target.read_text()
    _assert_selfcontained(html)
    assert "<title>demo report</title>" in html


def test_invalid_payload_rejected():
    with pytest.raises(ValueError):
        render_report({"schema": "bogus/9", "results": {}})


def test_profile_panel_renders_handler_bars():
    from repro.obs.profile import profiled

    with profiled() as prof:
        run = run_instrumented("figure3", small_config(n_nodes=4), turns=2)
    html = render_report({**run.payload(), "profile": prof.snapshot()})
    _assert_selfcontained(html)
    assert "Host-time profile" in html
    assert "engine.dispatch" in html
    # At least one machine handler shows up as a bar label.
    assert "CacheController" in html or "Process" in html


def test_profile_panel_empty_state_without_section():
    html = render_report(_bench_table1_payload())
    assert "Host-time profile" in html
    assert "--profile" in html            # the empty state names the flag
