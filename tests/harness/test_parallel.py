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


def _two_machine_runner(config=None, observe=None):
    """Runs two counters through ``observe``; returns their event counts."""
    machines = []

    def record(machine):
        machines.append(machine)
        observe(machine)

    for variant in VARIANTS:
        run_lockfree_counter(variant, SPECS[0], config, observe=record)
    return [machine.sim.events_processed for machine in machines]


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
    serial = run_sweep(counter_points(), jobs=1)
    fanned = run_sweep(counter_points(), jobs=4)
    assert [o.result for o in serial] == [o.result for o in fanned]
    # Executed-event counts are simulation outputs, not host timings.
    events = [o.telemetry["events"] for o in serial]
    assert events == [o.telemetry["events"] for o in fanned]
    assert min(events) > 0


def test_table1_parallel_matches_serial():
    assert run_table1(jobs=4) == run_table1(jobs=1) == TABLE1_EXPECTED


def test_execute_point_reports_machine_metrics():
    payload = execute_point(counter_points()[0])
    assert set(payload) == {"result", "telemetry"}
    assert payload["result"]["__result__"] == "AppResult"
    # The telemetry's event count sums every machine the runner built.
    payload = execute_point(make_point(_two_machine_runner, config=CFG))
    assert set(payload) == {"result", "telemetry"}
    counts = payload["result"]["value"]
    assert len(counts) == 2 and min(counts) > 0
    assert payload["telemetry"]["events"] == sum(counts)


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

def test_sweep_events_and_registry_counters(tmp_path):
    events = EventBus()
    seen = []
    events.subscribe(lambda e: seen.append(e))
    run_sweep(counter_points(), events=events, cache=tmp_path)
    kinds = [e.kind for e in seen]
    assert kinds[0] == "sweep.start"
    assert kinds[-1] == "sweep.done"
    assert kinds.count("sweep.point") == 4
    assert seen[-1].data == {"total": 4, "cached": 0, "executed": 4}
    seen.clear()
    run_sweep(counter_points(), events=events, cache=tmp_path)
    assert seen[-1].data == {"total": 4, "cached": 4, "executed": 0}


def test_progress_printer_lines(capsys):
    events = EventBus()
    import sys

    attach_progress_printer(events, stream=sys.stderr)
    run_sweep(counter_points()[:2], events=events)
    err = capsys.readouterr().err
    assert "[sweep 1/2]" in err
    assert "[sweep] done: 0 cached, 2 simulated" in err


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
    outcomes = run_sweep(points, jobs=2, retries=1, retry_backoff=0.0)
    assert outcomes[0].attempts == 2
    assert outcomes[0].result == {"value": "recovered"}
    assert outcomes[1].result == {"value": "slept"}


def test_point_timeout_quarantines_hung_worker():
    # A hang is never retried (a deterministic hang would hang every
    # attempt); the poisoned pool is killed, not joined.
    import time

    t0 = time.monotonic()
    outcomes = run_sweep(
        [make_point(_sleeping_runner, seconds=60.0),
         make_point(_sleeping_runner, seconds=0.0)],
        jobs=2, point_timeout=1.0, retries=3, quarantine=True,
    )
    assert time.monotonic() - t0 < 20.0
    assert outcomes[0].attempts == 1
    assert outcomes[0].error is not None
    assert "still running after" in outcomes[0].error
    assert outcomes[1].error is None
    assert outcomes[1].result == {"value": "slept"}


def test_corrupt_cache_entry_is_quarantined_on_disk(tmp_path):
    cache = ResultCache(tmp_path)
    point = counter_points()[0]
    run_sweep([point], cache=cache)
    path = cache.path_for(point_key(point))
    path.write_text("{not json")
    fresh = ResultCache(tmp_path)
    run_sweep([point], cache=fresh)
    # The corrupt entry was moved aside for inspection and counted
    # (repro chaos reports the count on stderr).
    assert fresh.corrupt == 1
    assert path.with_name(path.name + ".corrupt").exists()


def test_point_telemetry_present_but_never_cached(tmp_path):
    import json

    points = counter_points()[:2]
    first = run_sweep(points, cache=tmp_path / "cache")
    for outcome in first:
        assert not outcome.cached
        assert outcome.telemetry["wall_seconds"] > 0
        assert outcome.telemetry["events"] > 0
    # An entry stores the encoded result and nothing else.
    entries = sorted((tmp_path / "cache").rglob("*.json"))
    assert len(entries) == 2
    for entry in entries:
        assert set(json.loads(entry.read_text())["payload"]) == {"result"}
    # Cache hits replay simulation outputs only — host wall numbers
    # from some earlier run must not resurface as if they were fresh.
    second = run_sweep(points, cache=tmp_path / "cache")
    for outcome in second:
        assert outcome.cached
        assert outcome.telemetry == {}
    assert [o.result for o in second] == [o.result for o in first]
