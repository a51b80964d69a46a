"""Observability must not perturb the simulation.

With no subscribers the event bus must construct no events, the mesh
must carry exactly the same messages, and cycle counts must stay
bit-identical to an instrumented (recorder-attached) run.  A *disabled*
:class:`~repro.obs.spans.SpanBuilder` must be indistinguishable from no
subscriber at all — zero events, identical results, not one extra
Python call, and wall-clock overhead inside the ≤2% gate.
"""

import time

from repro.apps.synthetic import run_lockfree_counter
from repro.coherence.policy import SyncPolicy
from repro.config import SimConfig
from repro.harness.figures import contention_panels, no_contention_panels
from repro.obs.events import EventRecorder
from repro.obs.spans import SpanBuilder
from repro.sync.variant import PrimitiveVariant

from tests.conftest import make_machine, run_one
from tests.integration.test_hot_path_calls import python_calls


def put(p, addr, v):
    yield p.store(addr, v)


def test_no_subscribers_no_events():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    run_one(m, 0, put, addr, 1)
    run_one(m, 2, put, addr, 2)
    assert not m.events.active
    assert m.events.emitted == 0


def test_recorder_adds_zero_messages_and_cycles():
    def drive(observed: bool):
        m = make_machine(4)
        recorder = EventRecorder(m.events) if observed else None
        addr = m.alloc_sync(SyncPolicy.INV, home=1)

        def bump(p, addr):
            yield p.fetch_add(addr, 1)

        for pid in range(4):
            m.spawn(pid, bump, addr)
        m.run()
        if recorder is not None:
            assert len(recorder) > 0
        return (m.now, m.mesh.stats.messages, m.mesh.stats.flits,
                m.sim.events_processed)

    assert drive(observed=False) == drive(observed=True)


# The figure-3 panel sweep (4 nodes) must be bit-identical whether or not
# a recorder watches every event.  A policy/family cross-section keeps
# the runtime reasonable while covering every protocol path.
_VARIANTS = (
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("fap", SyncPolicy.INV),
    PrimitiveVariant("fap", SyncPolicy.UPD, use_drop=True),
    PrimitiveVariant("cas", SyncPolicy.INV, use_lx=True),
    PrimitiveVariant("cas", SyncPolicy.INVD),
    PrimitiveVariant("llsc", SyncPolicy.UNC),
)


def _counter_machine(attach=None, turns=12):
    """An 8-node machine, ``attach`` applied, with one contended counter
    program spawned per node and not yet run."""
    m = make_machine(8)
    if attach is not None:
        attach(m)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def bump(p):
        for _ in range(turns):
            yield p.fetch_add(addr, 1)

    for pid in range(8):
        m.spawn(pid, bump)
    return m


def _counter_workload(attach=None, turns=12):
    """One contended counter run; returns (elapsed seconds, outcome)."""
    m = _counter_machine(attach, turns)
    t0 = time.perf_counter()
    m.run()
    elapsed = time.perf_counter() - t0
    return elapsed, (m.now, m.mesh.stats.messages, m.sim.events_processed)


def test_disabled_spanbuilder_results_identical_and_silent():
    builders = []

    def attach(machine):
        builders.append(SpanBuilder(machine.events, enabled=False))
        machine_events = machine.events
        assert not machine_events.active

    _, plain = _counter_workload()
    _, disabled = _counter_workload(attach)
    assert plain == disabled
    assert builders[0].completed == []
    assert not builders[0].enabled


def test_disabled_spanbuilder_adds_no_python_calls():
    """The count-based twin of the wall-clock gate below: a disabled
    builder leaves every emission site on the zero-subscriber path, so
    the run makes exactly the Python calls a plain run makes."""
    def attach(machine):
        SpanBuilder(machine.events, enabled=False)

    plain = python_calls(_counter_machine().run)
    assert plain > 0
    assert python_calls(_counter_machine(attach).run) == plain


def test_disabled_spanbuilder_overhead_within_two_percent():
    """The ≤2% wall-clock gate for disabled-mode SpanBuilder.

    A disabled builder is not subscribed, so the bus stays inactive and
    the emission sites take the same zero-subscriber fast path.  The two
    modes run interleaved (so load drift hits both equally) on a
    workload long enough to drown scheduler noise, and best-of-N — the
    noise-robust statistic — is compared; retries absorb a noisy CI
    neighbor.
    """
    def attach(machine):
        SpanBuilder(machine.events, enabled=False)

    def best_pair(rounds=7, turns=120):
        baseline, gated = [], []
        for _ in range(rounds):
            baseline.append(_counter_workload(turns=turns)[0])
            gated.append(_counter_workload(attach, turns=turns)[0])
        return min(baseline), min(gated)

    _counter_workload(turns=120)       # warm-up: caches, allocator, JIT-free
    for attempt in range(3):
        baseline, gated = best_pair()
        if gated <= baseline * 1.02:
            return
    raise AssertionError(
        f"disabled SpanBuilder overhead "
        f"{100.0 * (gated / baseline - 1.0):.2f}% exceeds the 2% gate "
        f"(baseline {baseline:.4f}s, with builder {gated:.4f}s)"
    )


def test_figure3_cycles_bit_identical_under_observation():
    config = SimConfig().with_nodes(4)
    specs = no_contention_panels(turns=2) + contention_panels(4, turns=2)
    for spec in specs:
        for variant in _VARIANTS:
            plain = run_lockfree_counter(variant, spec, config)
            recorders = []
            observed = run_lockfree_counter(
                variant, spec, config,
                observe=lambda m: recorders.append(EventRecorder(m.events)),
            )
            assert plain.cycles == observed.cycles, (spec, variant.label)
            assert plain.extra == observed.extra
            assert len(recorders) == 1 and len(recorders[0]) > 0
