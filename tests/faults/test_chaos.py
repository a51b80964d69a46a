"""The ``repro chaos`` verification driver and its envelope."""

import json

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigError
from repro.faults.chaos import render_chaos, run_chaos, run_chaos_point
from repro.obs.schema import validate_run_payload


def test_chaos_point_rejects_unknown_names():
    with pytest.raises(ConfigError):
        run_chaos_point(workload="nope")
    with pytest.raises(ConfigError):
        run_chaos_point(policy="NOPE")


def test_chaos_envelope_shape_and_golden():
    payload = run_chaos([1], intensities=[1.0], policies=("INV",),
                        turns=3, nodes=4)
    validate_run_payload(payload)
    section = payload["faults"]
    # The fault-free golden (intensity 0.0) is always swept alongside.
    assert section["intensities"] == [0.0, 1.0]
    assert section["points"] == 2
    assert payload["results"]["ok"] is True
    assert payload["results"]["passed"] == 2
    by_level = {v["intensity"]: v for v in section["verdicts"]}
    assert by_level[0.0]["faults"] == {} or all(
        v == 0 for v in by_level[0.0]["faults"].values()
    )
    assert by_level[1.0]["checks"]["golden"] == "ok"
    assert sum(by_level[1.0]["faults"].values()) > 0
    # No wall-clock data anywhere: the envelope is host-independent.
    assert "perf" not in payload


def test_chaos_envelope_is_byte_reproducible_across_jobs():
    kwargs = dict(intensities=[1.0], policies=("INV", "UNC"),
                  turns=3, nodes=4)
    serial = run_chaos([1, 2], jobs=1, **kwargs)
    parallel = run_chaos([1, 2], jobs=2, **kwargs)
    assert (json.dumps(serial, sort_keys=True)
            == json.dumps(parallel, sort_keys=True))


def test_chaos_verdicts_gate_on_golden_agreement():
    # Forge a failure by comparing against a golden that cannot match:
    # run with a plan whose every rate is zero except one, then tamper.
    payload = run_chaos([3], intensities=[1.0], policies=("INV",),
                        turns=2, nodes=4)
    verdict = [v for v in payload["faults"]["verdicts"]
               if v["intensity"] == 1.0][0]
    assert verdict["ok"]
    assert verdict["checks"]["golden"] == "ok"
    assert verdict["checks"]["history"] == "ok"
    assert verdict["checks"]["conservation"] == "ok"
    assert verdict["checks"]["terminated"] == "ok"


def test_render_chaos_summarizes():
    payload = run_chaos([1], intensities=[1.0], policies=("INV",),
                        turns=2, nodes=4)
    text = render_chaos(payload)
    assert "2/2 points passed" in text
    assert "injected:" in text


def test_cli_chaos_smoke(tmp_path):
    out_path = tmp_path / "chaos.json"
    lines = []
    code = cli_main(
        ["--nodes", "4", "--turns", "2", "chaos", "--seed", "1",
         "--intensity", "1.0", "--policy", "INV",
         "--json", str(out_path)],
        out=lines.append,
    )
    assert code == 0
    assert any("points passed" in line for line in lines)
    payload = json.loads(out_path.read_text())
    validate_run_payload(payload)
    assert payload["experiment"] == "chaos"
    assert payload["results"]["ok"] is True
    assert payload["faults"]["workload"] == "faa"


#: Intensities of the faulted points :func:`_fail_faulted_points` ran.
FAILED_RUNS = []


def _fail_faulted_points(*, intensity=0.0, **kwargs):
    """A chaos point runner whose faulted points always raise."""
    if intensity > 0.0:
        FAILED_RUNS.append(intensity)
        raise RuntimeError("faulted point failed")
    return run_chaos_point(intensity=intensity, **kwargs)


CHAOS_ARGV = ["--nodes", "4", "--turns", "2", "chaos", "--seed", "1",
              "--intensity", "1.0", "--policy", "INV"]


def test_cli_chaos_reports_quarantined_points(monkeypatch, capsys):
    from repro.faults import chaos

    monkeypatch.setattr(chaos, "run_chaos_point", _fail_faulted_points)
    FAILED_RUNS.clear()
    code = cli_main(CHAOS_ARGV, out=lambda _: None)
    assert code == 1
    # The failing point ran once: the sweep does not retry it.
    assert FAILED_RUNS == [1.0]
    assert [line for line in capsys.readouterr().err.splitlines()
            if line.startswith("chaos:")] == ["chaos: sweep.quarantined = 1"]


def test_cli_chaos_envelope_reproducible_across_jobs(tmp_path):
    blobs = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"chaos-j{jobs}.json"
        code = cli_main(
            ["--nodes", "4", "--turns", "2", "chaos", "--seed", "1",
             "--seed", "2", "--policy", "INV", "--jobs", jobs,
             "--json", str(out_path)],
            out=lambda _line: None,
        )
        assert code == 0
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]


def test_stats_chaos_experiment_runs(tmp_path):
    lines = []
    code = cli_main(["--nodes", "4", "--turns", "2", "stats", "chaos"],
                    out=lines.append)
    assert code == 0
    text = "\n".join(lines)
    assert "faulted faa/INV chaos point" in text
    assert "faults.net.delay" in text
