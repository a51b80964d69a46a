"""Observability must not perturb the simulation.

With no subscribers the event bus must construct no events, the mesh
must carry exactly the same messages, and cycle counts must stay
bit-identical to an instrumented (recorder-attached) run.  A *disabled*
:class:`~repro.obs.spans.SpanBuilder` must be indistinguishable from no
subscriber at all — zero events, identical results, and not one extra
bytecode executed.
"""

from repro.apps.synthetic import run_lockfree_counter
from repro.coherence.policy import SyncPolicy
from repro.config import SimConfig
from repro.harness.figures import contention_panels, no_contention_panels
from repro.obs.events import EventRecorder
from repro.obs.spans import SpanBuilder
from repro.sync.variant import PrimitiveVariant

from tests.conftest import make_machine, run_one
from tests.integration.test_hot_path_calls import python_opcodes


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


def _counter_workload(attach=None):
    """One contended counter run; returns its outcome."""
    m = _counter_machine(attach)
    m.run()
    return m.now, m.mesh.stats.messages, m.sim.events_processed


def test_disabled_spanbuilder_results_identical_and_silent():
    builders = []

    def attach(machine):
        builders.append(SpanBuilder(machine.events, enabled=False))
        machine_events = machine.events
        assert not machine_events.active

    plain = _counter_workload()
    disabled = _counter_workload(attach)
    assert plain == disabled
    assert builders[0].completed == []
    assert not builders[0].enabled


def test_disabled_spanbuilder_adds_no_python_calls():
    """A disabled builder leaves every emission site on the
    zero-subscriber path, so the run executes exactly the bytecodes a
    plain run executes: no extra Python call and no extra branch."""
    def attach(machine):
        SpanBuilder(machine.events, enabled=False)

    plain = python_opcodes(_counter_machine().run)
    assert plain > 0
    assert python_opcodes(_counter_machine(attach).run) == plain
    # The count sees the emission path: an enabled builder runs it.
    enabled = python_opcodes(
        _counter_machine(lambda m: SpanBuilder(m.events)).run)
    assert enabled > plain


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
