"""Self-test of the end-to-end benchmark, at smoke size (16 nodes, turns 1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.e2e import run
from benchmarks.e2e.measure import measure_workload
from benchmarks.e2e.tracer import BOUNDARIES, LAYERS, SCHEDULERS, Tracer
from benchmarks.e2e.workloads import Point, derive_inputs, make_points

BENCHMARK = json.loads(
    (pathlib.Path(run.ROOT) / "BENCHMARK.json").read_text())


def _patched_attributes():
    return [(cls, name) for cls, name, _ in BOUNDARIES] + list(SCHEDULERS)


def test_every_metric_printed_with_unit_for_every_workload(capsys):
    assert run.main(["--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0
    printed = {}
    for line in lines[:-1]:
        workload, metric, _value, unit = line.split()
        printed[(workload, metric)] = unit
    specs = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        run.WORKLOAD_NAMES)
    for workload in run.WORKLOAD_NAMES:
        for spec in specs:
            assert printed.get((workload, spec["name"])) == spec["unit"], (
                workload, spec["name"])
            key = f"{workload}/{spec['name']}"
            assert summary["metrics"][key]["unit"] == spec["unit"]


def test_trace_modes_report_their_own_metric_group(capsys):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--smoke", "--workload", "scale_1024",
                         "--trace", str(trace)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        assert set(summary["metrics"]) == {m["name"]
                                           for m in BENCHMARK[group]}


def test_shims_are_restored_and_do_not_perturb(tmp_path):
    originals = {(cls, name): cls.__dict__[name]
                 for cls, name in _patched_attributes()}
    result = measure_workload("contention_c64", smoke=True, seconds=0,
                              out_dir=tmp_path)
    for (cls, name), original in originals.items():
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name}"
    # Traced and untraced digests agree, so the shims changed nothing.
    assert result["failed"] == 0, result["failures"]

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            for (cls, name), original in originals.items():
                assert cls.__dict__[name] is not original
            raise RuntimeError("boom")
    for (cls, name), original in originals.items():
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name}"


def test_layer_self_times_reconcile_and_spans_export(tmp_path):
    measure_workload("apps_fig6", smoke=True, seconds=0, trace=1,
                     out_dir=tmp_path)
    layers = json.loads((tmp_path / "apps_fig6.layers.json").read_text())
    self_s = layers["self_s"]
    assert set(self_s) == set(LAYERS)
    assert all(v >= 0 for v in self_s.values()), self_s
    assert sum(self_s.values()) == pytest.approx(layers["traced_wall_s"],
                                                 rel=0.02)
    trace = json.loads((tmp_path / "apps_fig6.trace.json").read_text())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    ids = {e["args"]["id"] for e in spans}
    assert 0 < len(spans) <= 200_000
    assert all(e["args"]["parent"] in ids or e["args"]["parent"] == 0
               for e in spans)
    assert {e["cat"] for e in spans} <= set(LAYERS)
    assert {e["args"]["point"] for e in spans} == {0}


def test_failing_points_are_counted_not_fatal():
    good = make_points("contention_c64", smoke=True)[0]
    draws = iter(range(100))

    def broken():
        raise AssertionError("injected failure")

    def unsteady():
        result = good.run()
        result.final = next(draws)  # a different digest on every pass
        return result

    points = [good, Point("injected", broken), Point("unsteady", unsteady)]
    result = measure_workload("contention_c64", smoke=True, seconds=0,
                              trace=0, points=points)
    assert result["attempted"] == 3
    assert result["failed"] == 2
    assert result["failures"]["injected"].startswith("AssertionError")
    assert "differs" in result["failures"]["unsteady"]
    assert result["metrics"]["wall_s"] > 0


def test_dead_worker_is_counted_and_the_rest_still_run(monkeypatch, capsys):
    real = run.run_worker

    def dies_on_apps(job):
        if job["workload"] == "apps_fig6":
            return None, "worker exited with code -9"
        return real(job)

    monkeypatch.setattr(run, "run_worker", dies_on_apps)
    monkeypatch.setattr(run, "WORKLOAD_NAMES", ("apps_fig6", "scale_1024"))
    assert run.main(["--smoke", "--trace", "0"]) == 1
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert not summary["correct"] and summary["failed"] == 1
    assert "FAILED apps_fig6 (worker): worker exited with code -9" in out
    assert "scale_1024/wall_s" in summary["metrics"]
    assert not any(key.startswith("apps_fig6/") for key in summary["metrics"])


def test_seed_zero_is_canonical_and_other_seeds_are_reproducible():
    canonical = derive_inputs(0, 1024)
    assert canonical.sim_seed == 12345
    assert (canonical.locusroute_seeds,
            canonical.cholesky_seeds) == ((11,) * 3, (23,) * 3)
    assert canonical.scale_readers == tuple(range(2, 50))
    drawn = derive_inputs(1, 1024)
    assert drawn == derive_inputs(1, 1024)
    assert drawn != derive_inputs(2, 1024)
    assert drawn.scale_writer not in drawn.scale_readers
