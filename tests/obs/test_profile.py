"""Host-time profiler: attribution, reconciliation, and the disabled gate.

The observability contract has two sides:

* **Disabled** (no ``profiled()`` session, no heartbeat): the engine
  must run its event loop unobserved — results bit-identical, no timing
  shim on the callbacks, one drain chunk per ``run()``, wall overhead
  inside the ≤2% gate.
* **Enabled**: every executed event attributed to a ``(component,
  handler)`` pair, with ``attributed_ns + dispatch_ns == total_ns``
  exactly and the total reconciling with externally measured wall
  time within 5%.
"""

import time

import pytest

from repro.harness.perf import PERF_KERNELS
from repro.obs.profile import (
    ComponentProfiler,
    active_profiler,
    handler_tag,
    profiled,
)
from repro.sim.engine import Simulator

from tests.conftest import make_machine


def _churn():
    """The perf harness's event-churn kernel, quick workload."""
    return PERF_KERNELS["event_churn"](True)


# ---------------------------------------------------------------- tagging

class _Widget:
    def poke(self):
        pass


def test_handler_tag_bound_method():
    assert handler_tag(_Widget().poke) == ("_Widget", "poke")


def test_handler_tag_nested_function():
    def inner():
        pass

    component, name = handler_tag(inner)
    assert name == "inner"
    assert component == "test_profile"    # module-stem fallback


def test_handler_tag_module_level_function():
    component, name = handler_tag(_churn)
    assert (component, name) == ("test_profile", "_churn")


# ----------------------------------------------------------- determinism

def test_profiled_run_bit_identical():
    plain = _churn()
    with profiled():
        observed = _churn()
    assert observed == plain


def test_profiled_machine_run_bit_identical():
    def drive():
        m = make_machine(4)
        addr = m.alloc_sync(__import__("repro").SyncPolicy.INV, home=1)

        def bump(p):
            for _ in range(6):
                yield p.fetch_add(addr, 1)

        for pid in range(4):
            m.spawn(pid, bump)
        m.run()
        return (m.now, m.mesh.stats.messages, m.sim.events_processed,
                m.read_word(addr))

    plain = drive()
    with profiled():
        observed = drive()
    assert observed == plain


# -------------------------------------------------------- reconciliation

def test_attribution_reconciles_exactly_and_with_wall_time():
    with profiled() as prof:
        t0 = time.perf_counter_ns()
        proxies = _churn()
        wall_ns = time.perf_counter_ns() - t0
    snap = prof.snapshot()
    # Exhaustive by construction: nothing leaks out of the accounting.
    assert snap["attributed_ns"] + snap["dispatch_ns"] == snap["total_ns"]
    assert snap["events"] == proxies["events"]
    # The engine's own total must reconcile with an outside stopwatch
    # around the run (the ISSUE's 5% gate; the slack is setup/teardown
    # outside the dispatch loop).
    assert snap["total_ns"] <= wall_ns
    assert snap["total_ns"] >= wall_ns * 0.95, (snap["total_ns"], wall_ns)
    # Shares sum to ~1 across handlers + dispatch.
    share = sum(k["share"] for k in snap["kinds"].values())
    share += snap["dispatch_ns"] / snap["total_ns"]
    assert share == pytest.approx(1.0, abs=1e-6)


def test_machine_handlers_attributed_to_components():
    with profiled() as prof:
        m = make_machine(4)
        addr = m.alloc_sync(__import__("repro").SyncPolicy.INV, home=1)

        def bump(p):
            yield p.fetch_add(addr, 1)

        for pid in range(4):
            m.spawn(pid, bump)
        m.run()
    kinds = prof.snapshot()["kinds"]
    components = {key.split(".")[0] for key in kinds}
    assert "CacheController" in components
    assert "HomeNode" in components
    assert all(v["calls"] > 0 and v["ns"] >= 0 for v in kinds.values())


# -------------------------------------------------------------- disabled

def test_disabled_run_never_enters_observed_loop(monkeypatch):
    """With no session and no heartbeat nothing observes the event loop:
    no timing shim wraps the callbacks and the profiler is never fed —
    the structural guarantee behind the ≤2% gate."""
    assert active_profiler() is None

    def boom(*args):
        raise AssertionError("observation hook used while disabled")

    monkeypatch.setattr(ComponentProfiler, "record", boom)
    monkeypatch.setattr(Simulator, "_time_callbacks", boom)
    sim = Simulator()
    for name in ("schedule", "at", "schedule_priority"):
        assert getattr(sim, name).__func__ is getattr(Simulator, name)
    proxies = _churn()
    assert proxies["events"] > 0


def test_cleared_heartbeat_restores_fast_loop(monkeypatch):
    """``clear_heartbeat`` must fully disarm the heartbeat: no beat
    fires, and ``run()`` drains the queue in a single chunk."""
    sim = Simulator()
    beats = []
    sim.set_heartbeat(1, lambda now, events, depth: beats.append(events))
    sim.clear_heartbeat()
    chunks = []
    drain = Simulator._drain

    def counted(self, until, budget):
        chunks.append(budget)
        return drain(self, until, budget)

    monkeypatch.setattr(Simulator, "_drain", counted)
    done = []
    for i in range(5):
        sim.schedule(i, done.append, i)
    sim.run()
    assert done == [0, 1, 2, 3, 4]
    assert beats == []
    assert len(chunks) == 1


def test_disabled_overhead_within_two_percent():
    """The ≤2% wall-clock gate for the disabled path on event_churn.

    Baseline and gated runs are identical *today* (neither is
    observed); the gate exists so a future change that observes
    disabled runs — e.g. a ``clear_heartbeat`` that leaves the
    heartbeat armed, or observability checks moved inside the event
    loop — fails loudly.  Interleaved best-of-N with retries, mirroring
    tests/obs/test_overhead.py.
    """
    def timed_disabled():
        # The full disabled configuration a flag-less CLI run produces:
        # a profiled session was active *earlier* but is over, and a
        # heartbeat was installed and cleared.
        with profiled():
            pass
        sim = Simulator()
        sim.set_heartbeat(10_000, lambda now, events, depth: None)
        sim.clear_heartbeat()
        t0 = time.perf_counter()
        _churn()
        return time.perf_counter() - t0

    def timed_plain():
        t0 = time.perf_counter()
        _churn()
        return time.perf_counter() - t0

    _churn()                            # warm-up
    for _attempt in range(3):
        baseline, gated = [], []
        for _ in range(7):
            baseline.append(timed_plain())
            gated.append(timed_disabled())
        if min(gated) <= min(baseline) * 1.02:
            return
    raise AssertionError(
        f"disabled-path overhead "
        f"{100.0 * (min(gated) / min(baseline) - 1.0):.2f}% exceeds the "
        f"2% gate (baseline {min(baseline):.4f}s, gated {min(gated):.4f}s)"
    )


# ------------------------------------------------------ output formats

def test_render_and_collapsed_formats():
    with profiled() as prof:
        _churn()
    text = prof.render()
    assert "engine.dispatch" in text
    stacks = prof.collapsed().splitlines()
    assert stacks, "collapsed output empty"
    assert any(line.startswith("engine;dispatch ") for line in stacks)
    for line in stacks:
        frames, _, ns = line.rpartition(" ")
        assert frames and ";" in frames
        assert int(ns) >= 0


def test_profiled_sessions_nest_and_restore():
    assert active_profiler() is None
    with profiled() as outer:
        assert active_profiler() is outer
        with profiled() as inner:
            assert inner is not outer
            assert active_profiler() is inner
        assert active_profiler() is outer
    assert active_profiler() is None
