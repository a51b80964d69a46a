"""Latency breakdown: a transaction's critical path sums exactly to its
end-to-end cycles; and the ``TxnBreakdown`` cursor rule."""

import hashlib
import json

import pytest

from repro import SyncPolicy
from repro.obs.critpath import CritPathAggregator
from repro.obs.latency import TxnBreakdown
from repro.obs.spans import SPAN_KINDS, SpanBuilder

from tests.conftest import make_machine, run_one
from tests.integration.test_hot_path_calls import limited_storm, lockfree_c16
from tests.obs.test_spans import _instruments, assert_invariant


def test_breakdown_cursor_no_double_count():
    b = TxnBreakdown(100)
    b.credit("network", 110)
    b.credit("queue", 125)
    b.credit("memory", 125)     # fully covered: adds nothing
    b.credit("network", 120)    # behind the cursor: adds nothing
    b.credit("controller", 130)
    assert (b.network, b.queue, b.memory, b.controller) == (10, 15, 0, 5)
    assert b.cursor - b.start == 30


def test_breakdown_gap_folds_into_next_segment():
    b = TxnBreakdown(0)
    b.credit("network", 10)
    # Nothing claimed cycles 10..20; the next credit absorbs them.
    b.credit("memory", 30)
    assert (b.network, b.queue, b.memory, b.controller) == (10, 0, 20, 0)
    assert b.cursor - b.start == 30


@pytest.mark.parametrize("policy", [SyncPolicy.INV, SyncPolicy.UPD,
                                    SyncPolicy.UNC])
def test_breakdown_sums_equal_transaction_cycles(policy):
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(policy, home=1)

    def bump(p, addr):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump, addr)
    m.run()
    assert m.read_word(addr) == 4

    graphs = builder.remote()
    assert graphs, "contended fetch_add must produce remote transactions"
    # Every critical path sums to its transaction's duration, and the
    # durations are the event log's, transaction by transaction.
    assert_invariant(recorder, builder)
    for graph in graphs:
        assert set(graph.path_by_kind()) <= set(SPAN_KINDS)
    # Aggregate blame sums exactly to aggregate end-to-end cycles.
    agg = CritPathAggregator.from_graphs(builder.completed)
    assert sum(agg.by_kind.values()) == agg.cycles == sum(
        graph.duration for graph in graphs)


def test_breakdown_sums_for_store_chain():
    m = make_machine(4)
    builder, recorder = _instruments(m)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, addr, v):
        yield p.store(addr, v)

    run_one(m, 2, put, addr, 1)   # remote exclusive
    run_one(m, 0, put, addr, 2)   # 4-message ownership transfer
    assert_invariant(recorder, builder)
    graphs = builder.remote()
    assert [(g.op, g.policy) for g in graphs] == [("store", "INV")] * 2
    by_kind = CritPathAggregator.from_graphs(graphs).snapshot()[
        "keys"]["store/INV"]["by_kind"]
    assert sum(by_kind.values()) == sum(graph.duration for graph in graphs)
    # The uncontended ownership transfer spends no time queued, but does
    # flow through the network, the memory module, and the controller.
    assert {"msg", "memory", "ctrl"} <= set(by_kind)
    assert "queue" not in by_kind and "dirwait" not in by_kind


#: SHA-256 of the JSON list of ``[snapshot(), render()]`` of the
#: critical-path aggregation of every machine a proxy builds, in build
#: order.  Recorded while every run also kept a second, always-on
#: breakdown; the values must not move when that accounting goes.
RECORDED_CRITPATH = {
    "lockfree_c16":
        "6989e2c5d47783022d5decd402a9a95481473126b196e69e55decf5099c6c2e1",
    "limited_storm":
        "b623b84efd19fd1b3a7be1084f9016f27a40bc1bc13b1533a26d15b67b56f7e5",
}


@pytest.mark.parametrize("proxy", [lockfree_c16, limited_storm],
                         ids=lambda proxy: proxy.__name__)
def test_latency_snapshot_matches_recorded(proxy):
    builders = []
    proxy(lambda machine: builders.append(SpanBuilder(machine.events)))
    aggs = [CritPathAggregator.from_graphs(builder.completed)
            for builder in builders]
    record = [[agg.snapshot(), agg.render()] for agg in aggs]
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    tables = "\n\n".join(render for _, render in record)
    assert digest == RECORDED_CRITPATH[proxy.__name__], tables
