"""The CI perf gate (tools/check_perf_regression.py): proxies + memory."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "tools" / "check_perf_regression.py"

spec = importlib.util.spec_from_file_location("check_perf_regression", SCRIPT)
gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate)


def envelope(kernels, mode="quick"):
    return {
        "schema": "repro.run/1",
        "experiment": "perf",
        "version": "1.0.0",
        "params": {"mode": mode},
        "results": kernels,
    }


def kernel(peak_kib=100.0, **proxies):
    return {
        "wall_seconds": 0.05,
        "events_per_second": 1_000_000,
        "peak_alloc_kib": peak_kib,
        "reps": 2,
        "proxies": proxies or {"events": 60_016, "end_cycle": 151_557},
    }


def run_gate(tmp_path, baseline, current):
    base = tmp_path / "base.json"
    cur = tmp_path / "cur.json"
    base.write_text(json.dumps(baseline))
    cur.write_text(json.dumps(current))
    return gate.main(["--baseline", str(base), "--current", str(cur)])


def test_identical_envelopes_pass(tmp_path):
    doc = envelope({"event_churn": kernel()})
    assert run_gate(tmp_path, doc, doc) == 0


def test_proxy_drift_fails_with_zero_tolerance(tmp_path, capsys):
    base = envelope({"event_churn": kernel(events=60_016)})
    cur = envelope({"event_churn": kernel(events=60_017)})
    assert run_gate(tmp_path, base, cur) == 1
    out = capsys.readouterr().out
    assert "event_churn.proxies.events" in out


def test_wall_clock_drift_is_informational_only(tmp_path, capsys):
    base = envelope({"event_churn": kernel()})
    cur = envelope({"event_churn": kernel()})
    cur["results"]["event_churn"]["wall_seconds"] = 5.0   # 100x slower
    assert run_gate(tmp_path, base, cur) == 0
    assert "wall-clock (informational" in capsys.readouterr().out


def test_peak_alloc_inside_band_passes(tmp_path):
    base = envelope({"event_churn": kernel(peak_kib=100.0)})
    cur = envelope({"event_churn": kernel(peak_kib=109.9)})
    assert run_gate(tmp_path, base, cur) == 0


def test_peak_alloc_growth_outside_band_fails(tmp_path, capsys):
    base = envelope({"event_churn": kernel(peak_kib=100.0)})
    cur = envelope({"event_churn": kernel(peak_kib=111.0)})
    assert run_gate(tmp_path, base, cur) == 1
    out = capsys.readouterr().out
    assert "event_churn.peak_alloc_kib" in out
    assert "+11.0%" in out


def test_peak_alloc_improvement_outside_band_also_fails(tmp_path, capsys):
    """A big improvement deserves a deliberate baseline refresh."""
    base = envelope({"event_churn": kernel(peak_kib=100.0)})
    cur = envelope({"event_churn": kernel(peak_kib=80.0)})
    assert run_gate(tmp_path, base, cur) == 1
    assert "-20.0%" in capsys.readouterr().out


def test_pre_gate_baseline_without_peak_is_skipped(tmp_path):
    base = envelope({"event_churn": kernel()})
    del base["results"]["event_churn"]["peak_alloc_kib"]
    cur = envelope({"event_churn": kernel(peak_kib=999.0)})
    assert run_gate(tmp_path, base, cur) == 0


def test_current_missing_peak_fails(tmp_path, capsys):
    base = envelope({"event_churn": kernel(peak_kib=100.0)})
    cur = envelope({"event_churn": kernel()})
    del cur["results"]["event_churn"]["peak_alloc_kib"]
    assert run_gate(tmp_path, base, cur) == 1
    assert "missing from current run" in capsys.readouterr().out


def test_missing_kernel_reported_once(tmp_path, capsys):
    base = envelope({"event_churn": kernel(), "faa_storm": kernel()})
    cur = envelope({"event_churn": kernel()})
    assert run_gate(tmp_path, base, cur) == 1
    out = capsys.readouterr().out
    assert out.count("faa_storm") == 1          # not double-reported by mem


def test_mode_mismatch_fails(tmp_path, capsys):
    base = envelope({"event_churn": kernel()}, mode="quick")
    cur = envelope({"event_churn": kernel()}, mode="full")
    assert run_gate(tmp_path, base, cur) == 1
    assert "params.mode" in capsys.readouterr().out


def test_committed_baseline_gates_itself():
    """The committed baseline must pass its own gate (sanity)."""
    baseline = REPO_ROOT / "benchmarks" / "baselines" / "PERF_quick.json"
    doc = json.loads(baseline.read_text())
    assert doc["params"]["mode"] == "quick"
    for name, k in doc["results"].items():
        assert k["peak_alloc_kib"] > 0, name
        assert k["proxies"], name
    assert gate.main(["--baseline", str(baseline), "--current", str(baseline)]) == 0


def test_absolute_budget_pass(tmp_path):
    cur = envelope({"event_churn": dict(kernel(peak_kib=100.0),
                                        budget_kib=512)})
    base = envelope({"event_churn": kernel(peak_kib=100.0)})
    assert run_gate(tmp_path, base, cur) == 0


def test_absolute_budget_violation_fails(tmp_path, capsys):
    cur = envelope({"event_churn": dict(kernel(peak_kib=600.0),
                                        budget_kib=512)})
    base = envelope({"event_churn": kernel(peak_kib=600.0)})
    assert run_gate(tmp_path, base, cur) == 1
    out = capsys.readouterr().out
    assert "exceeds its absolute budget" in out
    assert "512" in out


def test_kernel_without_budget_is_not_gated(tmp_path):
    # Old envelopes (no budget_kib) keep passing on the relative band.
    cur = envelope({"event_churn": kernel(peak_kib=600.0)})
    assert run_gate(tmp_path, cur, cur) == 0
