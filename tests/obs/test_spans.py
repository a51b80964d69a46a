"""Causal span graphs: structure, blocking edges, and the latency invariant.

The tentpole invariant: for every completed transaction, the span
graph's critical-path length equals its end-to-end latency
cycle-for-cycle, and that latency equals the one the event log's
``atomic.start``/``atomic.complete`` pair records.
"""

from hypothesis import given, settings, strategies as st

from repro import SyncPolicy
from repro.obs.events import EventRecorder
from repro.obs.spans import SpanBuilder

from tests.conftest import make_machine, run_one, run_seq


def _instruments(machine) -> tuple[SpanBuilder, EventRecorder]:
    """A span builder and an independent recorder of every operation's
    ``atomic.start``/``atomic.complete`` pair."""
    return (SpanBuilder(machine.events),
            EventRecorder(machine.events,
                          kinds=("atomic.start", "atomic.complete")))


def _recorded_latencies(recorder: EventRecorder) -> list:
    """(node, start, cycles) of every operation in the event log."""
    started: dict = {}
    out = []
    for event in recorder.events:
        if event.kind == "atomic.start":
            started[event.node] = event.ts
        else:
            start = started.pop(event.node)
            out.append((event.node, start, event.ts - start))
    return sorted(out)


def assert_invariant(recorder: EventRecorder, builder: SpanBuilder) -> None:
    """Every graph is well formed, its critical path sums to its
    duration, and the durations are the event log's."""
    problems = builder.check_all()
    assert problems == [], problems
    for graph in builder.completed:
        assert graph.spans[0].kind == "root"
        for span in graph.spans[1:]:
            assert -1 < span.parent < span.index   # acyclic by construction
    assert sorted((graph.node, graph.start, graph.duration)
                  for graph in builder.completed) == _recorded_latencies(
                      recorder)


def test_single_remote_store_graph_shape():
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p):
        yield p.store(addr, 7)

    run_one(m, 0, put)
    assert len(builder.completed) == 1
    graph = builder.completed[0]
    assert not graph.local
    assert graph.op and graph.policy == "INV"
    kinds = {span.kind for span in graph.spans}
    assert "msg" in kinds and "memory" in kinds and "ctrl" in kinds
    assert_invariant(recorder, builder)


def test_local_hit_is_flagged_local():
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def twice(p):
        yield p.store(addr, 1)
        yield p.store(addr, 2)     # owned now: completes locally

    run_one(m, 0, twice)
    assert len(builder.completed) == 2
    assert not builder.completed[0].local
    assert builder.completed[1].local
    assert builder.remote() == [builder.completed[0]]
    assert_invariant(recorder, builder)


def test_contention_produces_dirwait_blocking_edges():
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def bump(p):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump)
    m.run()
    assert m.read_word(addr) == 4
    assert_invariant(recorder, builder)
    dirwaits = [span for graph in builder.completed
                for span in graph.spans if span.kind == "dirwait"]
    assert dirwaits, "4-way fetch_add must queue on the directory"
    blocked = [graph for graph in builder.completed if graph.blockers]
    assert blocked, "queued transactions must name their blocker"
    for graph in blocked:
        for note in graph.blockers:
            if note["kind"] == "dirwait" and note["txn"] is not None:
                assert note["txn"] != graph.txn_id


def test_reservation_kill_blames_the_writer():
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def interleaved(p):
        link = yield p.ll(addr)
        # Another node's store lands between LL and SC via the scheduler:
        # give it room by doing an unrelated remote load first.
        yield p.load(other)
        ok = yield p.sc(addr, 9, token=link.token)
        return ok

    def stomp(p):
        yield p.store(addr, 5)

    other = m.alloc_sync(SyncPolicy.INV, home=2)
    m.spawn(0, interleaved)
    m.spawn(3, stomp)
    m.run()
    assert_invariant(recorder, builder)
    kills = [note for graph in builder.completed
             for note in graph.blockers if note["kind"] == "res_kill"]
    if kills:     # interleaving-dependent, but when it happens, it's blamed
        assert all(note["txn"] is not None or note["reason"]
                   for note in kills)


def test_disabled_builder_keeps_bus_silent():
    """A detached builder is off the bus: the machine emits nothing."""
    m = make_machine(4)
    builder = SpanBuilder(m.events)
    assert m.events.active
    builder.detach()
    builder.detach()    # idempotent
    assert not m.events.active
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p):
        yield p.store(addr, 1)

    run_one(m, 0, put)
    assert m.events.emitted == 0
    assert builder.completed == []


def test_limit_drops_but_counts():
    m = make_machine(4)
    builder = SpanBuilder(m.events, limit=1)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, v):
        yield p.store(addr, v)

    run_seq(m, [(0, put, 1), (2, put, 2), (3, put, 3)])
    assert len(builder.completed) == 1
    assert builder.dropped == 2


_OPS = st.sampled_from(["store", "faa", "tset", "fstore", "cas", "llsc",
                        "load"])
_POLICIES = st.sampled_from([SyncPolicy.INV, SyncPolicy.UPD, SyncPolicy.UNC])


@settings(max_examples=25, deadline=None)
@given(
    policy=_POLICIES,
    ops=st.lists(st.tuples(_OPS, st.integers(0, 3), st.integers(0, 255)),
                 min_size=1, max_size=10),
    concurrent=st.booleans(),
)
def test_property_critical_path_equals_latency(policy, ops, concurrent):
    """Randomized runs: DAGs acyclic + rooted, critpath == latency.

    Both sequential and concurrent schedules are exercised; under
    concurrency the directory queue and reservation kills add blocking
    edges, and the invariant must still hold for every transaction.
    """
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(policy, home=1)

    def one(p, kind, value):
        if kind == "store":
            yield p.store(addr, value)
        elif kind == "faa":
            yield p.fetch_add(addr, value)
        elif kind == "tset":
            yield p.test_and_set(addr)
        elif kind == "fstore":
            yield p.fetch_store(addr, value)
        elif kind == "cas":
            yield p.cas(addr, value, value + 1)
        elif kind == "llsc":
            link = yield p.ll(addr)
            yield p.sc(addr, value, token=link.token)
        else:
            yield p.load(addr)

    def sequence(p, todo):
        for kind, value in todo:
            yield from one(p, kind, value)

    if concurrent:
        per_pid: dict = {}
        for kind, pid, value in ops:
            per_pid.setdefault(pid, []).append((kind, value))
        for pid, todo in per_pid.items():
            m.spawn(pid, sequence, todo)
        m.run()
    else:
        run_seq(m, [(pid, one, kind, value) for kind, pid, value in ops])
    assert builder.completed, "every op must close its graph"
    assert builder.orphan_events == 0
    assert builder.abandoned == 0
    assert_invariant(recorder, builder)
