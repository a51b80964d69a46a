"""Latency breakdown: categories sum exactly to end-to-end cycles."""

import hashlib
import json

import pytest

from repro import SyncPolicy
from repro.obs.events import EventRecorder
from repro.obs.latency import CATEGORIES, LatencyTracker, TxnBreakdown

from tests.conftest import make_machine, run_one
from tests.integration.test_hot_path_calls import limited_storm, lockfree_c16


def test_breakdown_cursor_no_double_count():
    b = TxnBreakdown(100)
    b.credit("network", 110)
    b.credit("queue", 125)
    b.credit("memory", 125)     # fully covered: adds nothing
    b.credit("network", 120)    # behind the cursor: adds nothing
    b.credit("controller", 130)
    assert b.parts == {"network": 10, "queue": 15, "controller": 5}
    assert b.total == 30
    assert sum(b.parts.values()) == b.total


def test_breakdown_gap_folds_into_next_segment():
    b = TxnBreakdown(0)
    b.credit("network", 10)
    # Nothing claimed cycles 10..20; the next credit absorbs them.
    b.credit("memory", 30)
    assert b.parts == {"network": 10, "memory": 20}
    assert sum(b.parts.values()) == b.total == 30


def test_tracker_percentiles_and_snapshot():
    tracker = LatencyTracker()
    for total in (10, 20, 30, 40, 100):
        b = TxnBreakdown(0)
        b.credit("network", total)
        tracker.note("faa", "INV", b)
    stats = tracker.get("faa", "INV")
    assert stats.count == 5
    pct = stats.percentiles()
    # Nearest-rank with round-half-even: rank 2 of 5 for p50.
    assert pct["p50"] == 20
    assert pct["p95"] == 100
    assert pct["max"] == 100
    snap = tracker.snapshot()["faa/INV"]
    assert snap["count"] == 5
    assert snap["mean"] == pytest.approx(40.0)
    assert snap["by_category"] == {"network": 200}
    assert tracker.keys() == [("faa", "INV")]
    assert "faa/INV" in tracker.render()


def test_tracker_keys_policy_members_by_their_label():
    # The controller passes SyncPolicy members; reports use the labels.
    tracker = LatencyTracker()
    for policy in (SyncPolicy.INVD, "INVd", SyncPolicy.INVD):
        b = TxnBreakdown(0)
        b.credit("memory", 10)
        tracker.note("sync_cas", policy, b)
    assert tracker.keys() == [("sync_cas", "INVd")]
    assert tracker.get("sync_cas", "INVd").count == 3
    assert list(tracker.snapshot()) == ["sync_cas/INVd"]


def _txn_durations(recorder):
    """(node-ordered) durations of remote transactions from the event log."""
    pending = {}
    durations = []
    for e in recorder.events:
        if e.kind == "atomic.start":
            pending[e.node] = e.ts
        elif e.kind == "atomic.complete":
            start = pending.pop(e.node)
            if not e.data.get("local"):
                durations.append(e.ts - start)
    return durations


@pytest.mark.parametrize("policy", [SyncPolicy.INV, SyncPolicy.UPD,
                                    SyncPolicy.UNC])
def test_breakdown_sums_equal_transaction_cycles(policy):
    m = make_machine(4)
    recorder = EventRecorder(m.events,
                             kinds=("atomic.start", "atomic.complete"))
    addr = m.alloc_sync(policy, home=1)

    def bump(p, addr):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump, addr)
    m.run()
    assert m.read_word(addr) == 4

    totals = []
    by_category_sum = 0
    for key in m.stats.latency.keys():
        stats = m.stats.latency.get(*key)
        totals.extend(stats.totals)
        assert set(stats.by_category) <= set(CATEGORIES)
        # Aggregate category cycles sum exactly to aggregate end-to-end.
        assert sum(stats.by_category.values()) == sum(stats.totals), key
        by_category_sum += sum(stats.by_category.values())

    # Every remote transaction's event-log duration matches a recorded
    # breakdown total, one-to-one.
    assert sorted(_txn_durations(recorder)) == sorted(totals)
    assert by_category_sum == sum(totals)
    assert totals, "contended fetch_add must produce remote transactions"


def test_breakdown_sums_for_store_chain():
    m = make_machine(4)
    recorder = EventRecorder(m.events,
                             kinds=("atomic.start", "atomic.complete"))
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, addr, v):
        yield p.store(addr, v)

    run_one(m, 2, put, addr, 1)   # remote exclusive
    run_one(m, 0, put, addr, 2)   # 4-message ownership transfer
    stats = m.stats.latency.get("store", "INV")
    assert stats is not None and stats.count == 2
    assert sum(stats.by_category.values()) == sum(stats.totals)
    assert sorted(_txn_durations(recorder)) == sorted(stats.totals)
    # The uncontended ownership transfer spends no time queued, but does
    # flow through the network, the memory module, and the controller.
    assert {"network", "memory", "controller"} <= set(stats.by_category)


#: SHA-256 of the JSON list of ``[snapshot(), render()]`` of
#: ``stats.latency`` on every machine a proxy builds, in build order.
#: Recorded while each transaction still kept its breakdown in a
#: separate ``parts`` dict; the values must not move when the way they
#: are accumulated does.
RECORDED_LATENCY = {
    "lockfree_c16":
        "a5699352447aebeb1176ba50e1df602817a69236a0a933e0a6ecb56bac8a5c12",
    "limited_storm":
        "8002bd0438a8764c25ae544cfd04b65b52e7c96e86d1660be520cd2f4c3c100b",
}


@pytest.mark.parametrize("proxy", [lockfree_c16, limited_storm],
                         ids=lambda proxy: proxy.__name__)
def test_latency_snapshot_matches_recorded(proxy):
    machines = []
    proxy(machines.append)
    record = [[m.stats.latency.snapshot(), m.stats.latency.render()]
              for m in machines]
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    tables = "\n\n".join(render for _, render in record)
    assert digest == RECORDED_LATENCY[proxy.__name__], tables
