"""The nightly trend summarizer (``repro trend``)."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.harness.trend import (
    load_trend,
    render_trend,
    summarize_trend,
    trend_payload,
)
from repro.obs.schema import validate_run_payload


def record(date, wall, eps, sha="abc123", peak=512):
    return {
        "date": date,
        "sha": sha,
        "kernels": {
            "event_core": {"wall_seconds": wall,
                           "events_per_second": eps,
                           "peak_alloc_kib": peak},
        },
    }


STEADY = [record(f"2026-08-0{d}", 1.0, 800_000.0) for d in range(1, 6)]


def write_history(tmp_path, records, name="BENCH_trend.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


# ----------------------------------------------------------------------
# Loading: tolerant of an append-only file's rough edges.
# ----------------------------------------------------------------------

def test_load_missing_file_raises_config_error(tmp_path):
    with pytest.raises(ConfigError, match="trend history not found"):
        load_trend(tmp_path / "nope.jsonl")


def test_load_skips_blank_and_corrupt_lines(tmp_path):
    path = tmp_path / "trend.jsonl"
    path.write_text(
        json.dumps(STEADY[0]) + "\n"
        "\n"
        '{"truncated": \n'
        "[1, 2, 3]\n"                       # parses, but not a record
        + json.dumps(STEADY[1]) + "\n"
    )
    records = load_trend(path)
    assert [r["date"] for r in records] == ["2026-08-01", "2026-08-02"]


def test_load_last_keeps_trailing_records(tmp_path):
    path = write_history(tmp_path, STEADY)
    assert len(load_trend(path)) == 5
    records = load_trend(path, last=2)
    assert [r["date"] for r in records] == ["2026-08-04", "2026-08-05"]


# ----------------------------------------------------------------------
# Summaries: latest vs trailing median, flags past the threshold.
# ----------------------------------------------------------------------

def test_empty_and_single_record_histories_have_no_deltas():
    empty = summarize_trend([])
    assert empty["records"] == 0 and empty["regressions"] == []
    solo = summarize_trend(STEADY[:1])
    row = solo["kernels"]["event_core"]
    assert row["wall_seconds_delta_pct"] is None
    assert row["samples"] == 0 and not row["flagged"]
    assert solo["regressions"] == []
    assert solo["first_date"] == solo["last_date"] == "2026-08-01"


def test_steady_history_is_clean():
    summary = summarize_trend(STEADY)
    row = summary["kernels"]["event_core"]
    assert row["wall_seconds_delta_pct"] == 0.0
    assert row["samples"] == 4 and not row["flagged"]
    assert summary["regressions"] == []
    assert summary["sha"] == "abc123"


def test_wall_regression_is_flagged_past_threshold():
    history = STEADY + [record("2026-08-06", 1.2, 800_000.0)]
    summary = summarize_trend(history, threshold_pct=10.0)
    row = summary["kernels"]["event_core"]
    assert row["wall_seconds_delta_pct"] == pytest.approx(20.0)
    assert row["flagged"]
    assert any("kernel event_core: wall +20" in line
               for line in summary["regressions"])
    # The same delta under a looser threshold is advisory-clean.
    assert summarize_trend(history, threshold_pct=25.0)["regressions"] == []


def test_throughput_drop_is_flagged():
    history = STEADY + [record("2026-08-06", 1.0, 600_000.0)]
    summary = summarize_trend(history)
    assert summary["kernels"]["event_core"]["flagged"]
    kinds = [line.split(":")[0] for line in summary["regressions"]]
    assert kinds == ["kernel event_core"]


def test_one_noisy_prior_night_cannot_move_the_median_baseline():
    noisy = STEADY[:4] + [record("2026-08-05", 9.0, 80_000.0),
                          record("2026-08-06", 1.05, 790_000.0)]
    summary = summarize_trend(noisy)
    row = summary["kernels"]["event_core"]
    assert row["wall_seconds_median"] == pytest.approx(1.0)
    assert not row["flagged"]


def test_kernels_may_appear_between_nights():
    history = STEADY + [{
        "date": "2026-08-06", "sha": "def",
        "kernels": {"brand_new": {"wall_seconds": 2.0,
                                  "events_per_second": 100.0}},
    }]
    summary = summarize_trend(history)
    assert list(summary["kernels"]) == ["brand_new"]
    row = summary["kernels"]["brand_new"]
    assert row["samples"] == 0 and not row["flagged"]


# ----------------------------------------------------------------------
# Rendering and the envelope.
# ----------------------------------------------------------------------

def test_render_clean_and_flagged():
    clean = render_trend(summarize_trend(STEADY))
    assert "5 record(s)" in clean
    assert "perf kernels" in clean and "event_core" in clean
    assert "no regressions beyond 10%" in clean
    flagged = render_trend(summarize_trend(
        STEADY + [record("2026-08-06", 1.5, 800_000.0)]))
    assert "FLAG" in flagged and "regressions flagged (>10%)" in flagged
    assert "(no trend history yet)" in render_trend(summarize_trend([]))


def test_trend_payload_is_a_valid_envelope():
    payload = trend_payload(summarize_trend(STEADY))
    assert validate_run_payload(payload) is payload
    assert payload["experiment"] == "trend"
    assert payload["params"]["records"] == 5
    assert payload["results"]["kernels"]["event_core"]["samples"] == 4


# ----------------------------------------------------------------------
# CLI integration.
# ----------------------------------------------------------------------

def test_cli_trend_clean_history(tmp_path):
    path = write_history(tmp_path, STEADY)
    lines = []
    code = cli_main(["trend", str(path)], out=lines.append)
    assert code == 0
    assert "no regressions" in "\n".join(lines)


def test_cli_trend_strict_flags_exit_one(tmp_path):
    path = write_history(tmp_path,
                         STEADY + [record("2026-08-06", 2.0, 800_000.0)])
    lines = []
    assert cli_main(["trend", str(path)], out=lines.append) == 0
    assert "FLAG" in "\n".join(lines)
    assert cli_main(["trend", str(path), "--strict"],
                    out=lambda _: None) == 1
    # --last trims the history to the flagged record alone: no priors,
    # nothing to compare, strict passes.
    assert cli_main(["trend", str(path), "--strict", "--last", "1"],
                    out=lambda _: None) == 0
    # a looser threshold also unflags it
    assert cli_main(["trend", str(path), "--strict",
                     "--threshold", "150"], out=lambda _: None) == 0


def test_cli_trend_writes_json_and_text_artifacts(tmp_path):
    path = write_history(tmp_path, STEADY)
    out_dir = tmp_path / "artifacts"
    json_path = tmp_path / "trend.json"
    code = cli_main(["trend", str(path), "--out", str(out_dir),
                     "--json", str(json_path)], out=lambda _: None)
    assert code == 0
    text = (out_dir / "trend.txt").read_text()
    assert "perf kernels" in text
    doc = validate_run_payload(json.loads(json_path.read_text()))
    assert doc["experiment"] == "trend"
    assert doc["results"]["records"] == 5


def test_cli_trend_missing_history_raises(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        cli_main(["trend", str(tmp_path / "absent.jsonl")],
                 out=lambda _: None)
