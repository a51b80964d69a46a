"""Parallel sweep executor: determinism, caching, content addressing."""

import pickle

import pytest

from repro import SimConfig, SyncPolicy
from repro.apps.synthetic import SyntheticSpec, run_lockfree_counter
from repro.errors import ConfigError
from repro.harness import parallel
from repro.harness.parallel import (
    ResultCache,
    SweepExecutor,
    attach_progress_printer,
    code_fingerprint,
    execute_point,
    make_point,
    point_key,
    resolve_runner,
    run_sweep,
    runner_ref,
)
from repro.harness.table1 import TABLE1_EXPECTED, run_table1
from repro.obs.events import EventBus
from repro.obs.registry import MetricsRegistry
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


def test_point_key_stable_and_content_sensitive():
    a, b = counter_points()[0], counter_points()[0]
    assert point_key(a) == point_key(b)
    variants = {
        point_key(p)
        for p in (
            a,
            make_point(run_lockfree_counter, variant=VARIANTS[1],
                       spec=SPECS[0], config=CFG),
            make_point(run_lockfree_counter, variant=VARIANTS[0],
                       spec=SPECS[1], config=CFG),
            make_point(run_lockfree_counter, variant=VARIANTS[0],
                       spec=SPECS[0], config=CFG.with_nodes(8)),
            make_point(run_lockfree_counter, variant=VARIANTS[0],
                       spec=SPECS[0], config=CFG, extra=1),
        )
    }
    assert len(variants) == 5, "each descriptor change must change the key"


def test_point_key_changes_with_code_fingerprint():
    point = counter_points()[0]
    assert point_key(point) != point_key(point, fingerprint="0" * 64)


# ----------------------------------------------------------------------
# Determinism: parallel == serial, bit for bit.
# ----------------------------------------------------------------------

def test_parallel_matches_serial_results_and_metrics():
    serial_reg = MetricsRegistry()
    parallel_reg = MetricsRegistry()
    serial = run_sweep(counter_points(), jobs=1, registry=serial_reg)
    fanned = run_sweep(counter_points(), jobs=4, registry=parallel_reg)
    assert [o.result for o in serial] == [o.result for o in fanned]
    assert serial_reg.snapshot() == parallel_reg.snapshot()
    assert serial_reg.snapshot()["net.messages"] > 0


def test_table1_parallel_matches_serial():
    assert run_table1(jobs=4) == run_table1(jobs=1) == TABLE1_EXPECTED


def test_execute_point_reports_machine_metrics():
    payload = execute_point(counter_points()[0])
    assert payload["metrics"]["net.messages"] > 0
    assert payload["result"]["__result__"] == "AppResult"


# ----------------------------------------------------------------------
# The content-addressed cache.
# ----------------------------------------------------------------------

def test_cache_hit_returns_identical_results(tmp_path):
    cache = ResultCache(tmp_path)
    first = run_sweep(counter_points(), cache=cache)
    assert (cache.hits, cache.misses, cache.stores) == (0, 4, 4)
    second = run_sweep(counter_points(), cache=cache)
    assert cache.hits == 4
    assert [o.result for o in first] == [o.result for o in second]
    assert [o.cached for o in first] == [False] * 4
    assert [o.cached for o in second] == [True] * 4
    assert [o.metrics for o in first] == [o.metrics for o in second]


def test_cache_invalidated_by_code_fingerprint(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    run_sweep(counter_points()[:1], cache=cache)
    monkeypatch.setattr(parallel, "_FINGERPRINT", "f" * 64)
    fresh = ResultCache(tmp_path)
    outcomes = run_sweep(counter_points()[:1], cache=fresh)
    assert fresh.hits == 0 and fresh.misses == 1
    assert outcomes[0].cached is False


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    point = counter_points()[0]
    run_sweep([point], cache=cache)
    path = cache.path_for(point_key(point))
    path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    outcomes = run_sweep([point], cache=fresh)
    assert fresh.misses == 1
    assert outcomes[0].cached is False
    # ...and the entry is healed for the next reader.
    assert ResultCache(tmp_path).get(point_key(point)) is not None


def test_cache_rejects_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path)
    point = counter_points()[0]
    run_sweep([point], cache=cache)
    key = point_key(point)
    other = "0" * 64
    cache.path_for(other).parent.mkdir(parents=True, exist_ok=True)
    cache.path_for(key).rename(cache.path_for(other))
    assert ResultCache(tmp_path).get(other) is None


def test_cache_shards_by_key_prefix(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key(counter_points()[0])
    assert cache.path_for(key) == tmp_path / key[:2] / f"{key}.json"


def test_executor_accepts_cache_path(tmp_path):
    executor = SweepExecutor(cache=tmp_path / "cache")
    executor.run(counter_points()[:1])
    assert executor.cache.stores == 1
    assert (tmp_path / "cache").is_dir()


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert parallel.default_cache_dir() == tmp_path / "env"


def test_code_fingerprint_is_memoized_hex():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64
    int(code_fingerprint(), 16)


# ----------------------------------------------------------------------
# Events, metrics, and progress reporting.
# ----------------------------------------------------------------------

def test_sweep_events_and_registry_counters():
    events = EventBus()
    seen = []
    events.subscribe(lambda e: seen.append(e))
    registry = MetricsRegistry()
    run_sweep(counter_points(), events=events, registry=registry)
    kinds = [e.kind for e in seen]
    assert kinds[0] == "sweep.start"
    assert kinds[-1] == "sweep.done"
    assert kinds.count("sweep.point") == 4
    snap = registry.snapshot()
    assert snap["sweep.points"] == 4
    assert snap["sweep.executed"] == 4
    assert "sweep.cache.hits" not in snap


def test_progress_printer_lines(capsys):
    events = EventBus()
    import sys

    attach_progress_printer(events, stream=sys.stderr)
    run_sweep(counter_points()[:2], events=events)
    err = capsys.readouterr().err
    assert "[sweep 1/2]" in err
    assert "[sweep] done: 0 cached, 2 simulated" in err


def test_progress_jsonl_stream(capsys):
    import json
    import sys

    events = EventBus()
    parallel.attach_progress_jsonl(events, stream=sys.stderr)
    run_sweep(counter_points()[:2], events=events)
    records = [json.loads(s) for s in capsys.readouterr().err.splitlines()]
    kinds = [r["record"] for r in records]
    assert kinds == ["sweep.start", "sweep.point", "sweep.point",
                     "sweep.done"]
    for r in records:
        if r["record"] != "sweep.point":
            continue
        assert r["cached"] is False
        assert r["done"] in (1, 2) and r["total"] == 2
        assert r["wall_seconds"] > 0
        assert r["events"] > 0
        assert r["events_per_second"] > 0
    assert records[-1] == {"record": "sweep.done", "cached": 0,
                           "executed": 2, "total": 2}


def test_attach_progress_writer_dispatch():
    import io

    events = EventBus()
    parallel.attach_progress_writer(events, "text", stream=io.StringIO())
    parallel.attach_progress_writer(events, "jsonl", stream=io.StringIO())
    with pytest.raises(ConfigError, match="progress format"):
        parallel.attach_progress_writer(events, "csv")


# ----------------------------------------------------------------------
# Self-healing: retries, quarantine, timeouts, corrupt-cache hygiene.
# ----------------------------------------------------------------------

def _flaky_runner(sentinel=""):
    """Fails on its first call (creating the sentinel), then succeeds."""
    import os

    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("transient failure")
    return {"value": 42}


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


def _sleeping_runner(seconds=0.0):
    import time

    time.sleep(seconds)
    return {"value": "slept"}


def test_retry_recovers_flaky_point(tmp_path):
    point = make_point(_flaky_runner, sentinel=str(tmp_path / "tried"))
    outcomes = run_sweep([point], retries=1, retry_backoff=0.0)
    assert outcomes[0].attempts == 2
    assert outcomes[0].error is None
    assert outcomes[0].result == {"value": 42}


def test_failure_without_quarantine_aborts_the_sweep():
    from repro.errors import SimulationError

    point = make_point(_failing_runner, tag="abort")
    with pytest.raises(SimulationError, match="persistent failure abort"):
        run_sweep([point])


def test_quarantined_point_does_not_abort_the_sweep():
    registry = MetricsRegistry()
    points = [make_point(_failing_runner, tag="q"), counter_points()[0]]
    outcomes = run_sweep(points, quarantine=True, registry=registry)
    assert outcomes[0].error is not None
    assert "persistent failure q" in outcomes[0].error
    assert outcomes[0].result is None
    assert outcomes[1].error is None
    assert outcomes[1].result is not None
    snap = registry.snapshot()
    assert snap["sweep.quarantined"] == 1
    assert snap["sweep.points"] == 2
    assert snap["sweep.executed"] == 1


def test_pool_worker_crash_is_retried(tmp_path):
    # Two pending points so the pool path engages (a single point runs
    # serially, where os._exit would take the test process with it).
    points = [
        make_point(_exit_once_runner, sentinel=str(tmp_path / "crashed")),
        make_point(_sleeping_runner, seconds=0.0),
    ]
    outcomes = run_sweep(points, jobs=2, retries=1, retry_backoff=0.0)
    assert outcomes[0].attempts == 2
    assert outcomes[0].result == {"value": "recovered"}
    assert outcomes[1].result == {"value": "slept"}


def test_point_timeout_quarantines_hung_worker():
    # A hang is never retried (a deterministic hang would hang every
    # attempt); the poisoned pool is killed, not joined.
    import time

    registry = MetricsRegistry()
    t0 = time.monotonic()
    outcomes = run_sweep(
        [make_point(_sleeping_runner, seconds=60.0),
         make_point(_sleeping_runner, seconds=0.0)],
        jobs=2, point_timeout=1.0, retries=3, quarantine=True,
        registry=registry,
    )
    assert time.monotonic() - t0 < 20.0
    assert outcomes[0].attempts == 1
    assert outcomes[0].error is not None
    assert "still running after" in outcomes[0].error
    assert outcomes[1].error is None
    assert outcomes[1].result == {"value": "slept"}
    assert registry.snapshot()["sweep.quarantined"] == 1


def test_corrupt_cache_entry_is_quarantined_on_disk(tmp_path):
    registry = MetricsRegistry()
    cache = ResultCache(tmp_path)
    point = counter_points()[0]
    run_sweep([point], cache=cache)
    path = cache.path_for(point_key(point))
    path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    run_sweep([point], cache=fresh, registry=registry)
    # The corrupt entry was moved aside for inspection, counted, and
    # surfaced through the sweep registry (repro stats shows it).
    assert fresh.corrupt == 1
    assert path.with_name(path.name + ".corrupt").exists()
    assert registry.snapshot()["sweep.cache.corrupt"] == 1


def test_point_telemetry_present_but_never_cached(tmp_path):
    points = counter_points()[:2]
    first = run_sweep(points, cache=tmp_path / "cache")
    for outcome in first:
        assert not outcome.cached
        assert outcome.telemetry["wall_seconds"] > 0
        assert outcome.telemetry["events"] > 0
    # Cache hits replay simulation outputs only — host wall numbers
    # from some earlier run must not resurface as if they were fresh.
    second = run_sweep(points, cache=tmp_path / "cache")
    for outcome in second:
        assert outcome.cached
        assert outcome.telemetry == {}
    assert [o.result for o in second] == [o.result for o in first]
