"""Parallel sweep executor: determinism, events, failures."""

import pickle

import pytest

from repro import SimConfig, SyncPolicy
from repro.apps.synthetic import SyntheticSpec, run_lockfree_counter
from repro.apps.common import AppResult
from repro.errors import ConfigError
from repro.harness.parallel import (
    attach_progress_printer,
    execute_point,
    make_point,
    resolve_runner,
    run_sweep,
    runner_ref,
)
from repro.harness.table1 import TABLE1_EXPECTED, run_table1
from repro.obs.events import EventBus
from repro.sync.variant import PrimitiveVariant

CFG = SimConfig().with_nodes(4)
VARIANTS = [
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("cas", SyncPolicy.INV),
]
SPECS = [
    SyntheticSpec(contention=1, turns=3),
    SyntheticSpec(contention=2, turns=3),
]


def counter_points(config=CFG):
    return [
        make_point(run_lockfree_counter, variant=v, spec=s, config=config)
        for v in VARIANTS
        for s in SPECS
    ]


# ----------------------------------------------------------------------
# Runner references and point descriptors.
# ----------------------------------------------------------------------

def test_runner_ref_round_trips():
    ref = runner_ref(run_lockfree_counter)
    assert ref == "repro.apps.synthetic:run_lockfree_counter"
    assert resolve_runner(ref) is run_lockfree_counter


def test_runner_ref_rejects_locals():
    with pytest.raises(ConfigError):
        runner_ref(lambda: None)


def test_points_pickle_round_trip():
    for point in counter_points():
        assert pickle.loads(pickle.dumps(point)) == point


# ----------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit.
# ----------------------------------------------------------------------

def test_parallel_matches_serial_results_and_metrics():
    serial = run_sweep(counter_points(), jobs=1)
    fanned = run_sweep(counter_points(), jobs=4)
    assert [o.result for o in serial] == [o.result for o in fanned]
    assert min(o.result.updates for o in serial) > 0


def test_table1_parallel_matches_serial():
    assert run_table1(jobs=4) == run_table1(jobs=1) == TABLE1_EXPECTED


def test_execute_point_reports_machine_metrics():
    # A point returns its runner's result, measurements and all.
    point = counter_points()[0]
    result = execute_point(point)
    assert isinstance(result, AppResult)
    assert result.avg_cycles > 0
    assert result == run_lockfree_counter(point.variant, point.spec, CFG)


# ----------------------------------------------------------------------
# Events, metrics, and progress reporting.
# ----------------------------------------------------------------------

def test_sweep_events_and_registry_counters():
    events = EventBus()
    seen = []
    events.subscribe(lambda e: seen.append(e))
    run_sweep(counter_points(), events=events)
    kinds = [e.kind for e in seen]
    assert kinds[0] == "sweep.start"
    assert kinds[-1] == "sweep.done"
    assert kinds.count("sweep.point") == 4
    assert seen[0].data == {"total": 4, "jobs": 1}
    assert seen[-1].data == {"total": 4}
    points = [e for e in seen if e.kind == "sweep.point"]
    assert [e.data["index"] for e in points] == [0, 1, 2, 3]
    assert [e.ts for e in points] == [1, 2, 3, 4]
    for event in points:
        assert set(event.data) == {"index", "total", "label"}


def test_progress_printer_lines(capsys):
    events = EventBus()
    import sys

    attach_progress_printer(events, stream=sys.stderr)
    run_sweep(counter_points()[:2], events=events)
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert lines[0] == f"[sweep 1/2] {counter_points()[0].label}"
    assert lines[-1] == "[sweep] done: 2 points"


# ----------------------------------------------------------------------
# Failures: quarantine and dead pool workers.
# ----------------------------------------------------------------------

def _failing_runner(tag=""):
    raise RuntimeError(f"persistent failure {tag}")


def _exit_once_runner(sentinel=""):
    """Hard-kills its worker process on the first call, then succeeds."""
    import os

    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(1)
    return {"value": "recovered"}


def _exit_always_runner(log="", after=""):
    """Logs its call, waits for the file ``after``, then hard-kills its
    worker process, on every call."""
    import os
    import time

    with open(log, "a") as fh:
        fh.write("called\n")
    deadline = time.monotonic() + 10.0
    while not os.path.exists(after) and time.monotonic() < deadline:
        time.sleep(0.01)
    # Let the other point's result reach the parent before the pool
    # breaks and fails every future it has not delivered.
    time.sleep(0.3)
    os._exit(1)


def _sleeping_runner(seconds=0.0, touch=""):
    """Sleeps, then creates the file ``touch`` (if named)."""
    import time

    time.sleep(seconds)
    if touch:
        with open(touch, "w"):
            pass
    return {"value": "slept"}


def test_failure_without_quarantine_aborts_the_sweep():
    from repro.errors import SimulationError

    point = make_point(_failing_runner, tag="abort")
    with pytest.raises(SimulationError, match="persistent failure abort"):
        run_sweep([point])


def test_quarantined_point_does_not_abort_the_sweep():
    points = [make_point(_failing_runner, tag="q"), counter_points()[0]]
    outcomes = run_sweep(points, quarantine=True)
    assert outcomes[0].error is not None
    assert "persistent failure q" in outcomes[0].error
    assert outcomes[0].result is None
    assert outcomes[1].error is None
    assert outcomes[1].result is not None


def test_pool_worker_crash_is_retried(tmp_path):
    # Two pending points so the pool path engages (a single point runs
    # serially, where os._exit would take the test process with it).
    points = [
        make_point(_exit_once_runner, sentinel=str(tmp_path / "crashed")),
        make_point(_sleeping_runner, seconds=0.0),
    ]
    outcomes = run_sweep(points, jobs=2)
    assert outcomes[0].result == {"value": "recovered"}
    assert outcomes[1].result == {"value": "slept"}


def test_pool_worker_dying_twice_quarantines_its_point(tmp_path):
    # The dying point waits for the other point's file, so that point
    # resolves in the first pool; the dying point alone runs again in a
    # fresh pool, dies again, and fails with the pool's error.
    log = tmp_path / "calls"
    points = [
        make_point(_exit_always_runner, log=str(log),
                   after=str(tmp_path / "slept")),
        make_point(_sleeping_runner, touch=str(tmp_path / "slept")),
    ]
    outcomes = run_sweep(points, jobs=2, quarantine=True)
    assert log.read_text().splitlines() == ["called", "called"]
    assert outcomes[0].result is None
    assert outcomes[0].error.startswith("BrokenProcessPool: ")
    assert outcomes[1].error is None
    assert outcomes[1].result == {"value": "slept"}


def test_aborting_pool_sweep_cancels_queued_points(tmp_path):
    from repro.errors import SimulationError
    import time

    marks = [tmp_path / f"ran-{i}" for i in range(10)]
    points = [make_point(_failing_runner, tag="first")] + [
        make_point(_sleeping_runner, seconds=0.2, touch=str(mark))
        for mark in marks
    ]
    with pytest.raises(SimulationError, match="persistent failure first"):
        run_sweep(points, jobs=2)
    # Points a worker had already taken may still finish; give them the
    # time they need, then count.  Run to completion, all ten would.
    time.sleep(1.0)
    ran = sum(mark.exists() for mark in marks)
    assert ran < len(marks)


def test_pooled_results_cross_by_pickle():
    points = counter_points()[:2]
    serial = run_sweep(points)
    pooled = run_sweep(points, jobs=2)
    assert all(outcome.error is None for outcome in serial + pooled)
    # A serial point hands back the runner's own object; a pool worker's
    # crosses by pickle and arrives equal, histogram keys still ints.
    assert [o.result for o in pooled] == [o.result for o in serial]
    for outcome in pooled:
        assert isinstance(outcome.result, AppResult)
        histogram = outcome.result.contention_histogram
        assert histogram and all(isinstance(level, int)
                                 for level in histogram)
