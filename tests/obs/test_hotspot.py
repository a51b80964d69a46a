"""Per-cache-line contention scoring."""

from repro import SyncPolicy
from repro.obs.hotspot import TOP_N, HotspotTracker

from tests.conftest import make_machine, run_one, run_seq


def test_contended_line_outranks_quiet_line():
    m = make_machine(4)
    tracker = HotspotTracker(m.events)
    hot = m.alloc_sync(SyncPolicy.INV, home=0)
    cold = m.alloc_sync(SyncPolicy.INV, home=2)

    def bump(p):
        yield p.fetch_add(hot, 1)

    def bump_and_touch(p):
        yield p.fetch_add(hot, 1)
        yield p.load(cold)

    for pid in range(3):
        m.spawn(pid, bump)
    m.spawn(3, bump_and_touch)
    m.run()

    hot_block = m.block_of(hot)
    cold_block = m.block_of(cold)
    assert hot_block in tracker.blocks and cold_block in tracker.blocks
    ranked = tracker.top(2)
    assert ranked[0].block == hot_block
    score = ranked[0].score(tracker.FAIL_PENALTY, tracker.MULTICAST_PENALTY)
    assert score > ranked[1].score(tracker.FAIL_PENALTY,
                                   tracker.MULTICAST_PENALTY)
    assert ranked[0].dir_wait > 0 or ranked[0].queue_wait > 0
    assert ranked[0].messages > ranked[1].messages


def test_invalidation_multicasts_counted():
    m = make_machine(4)
    tracker = HotspotTracker(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def read(p):
        yield p.load(addr)

    def write(p):
        yield p.store(addr, 9)

    run_seq(m, [(0, read), (2, read), (3, write)])   # write INVs the readers
    stats = tracker.blocks[m.block_of(addr)]
    assert stats.multicasts >= 2


def test_reservation_kill_counted():
    m = make_machine(4)
    tracker = HotspotTracker(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def reserve(p):
        yield p.ll(addr)

    def stomp(p):
        yield p.store(addr, 5)

    run_one(m, 0, reserve)
    run_one(m, 3, stomp)          # the store invalidates node 0's LL line
    stats = tracker.blocks[m.block_of(addr)]
    assert stats.res_kills == 1


def test_depth_series_windows():
    m = make_machine(4)
    tracker = HotspotTracker(m.events, window=64)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def bump(p):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump)
    m.run()
    stats = tracker.blocks[m.block_of(addr)]
    snap = stats.to_dict(64, tracker.FAIL_PENALTY,
                         tracker.MULTICAST_PENALTY)
    assert snap["max_depth"] >= 2
    series = snap["depth_series"]
    assert series, "queued entries must produce a depth series"
    cycles = [cycle for cycle, _ in series]
    assert cycles == sorted(cycles)
    assert all(cycle % 64 == 0 for cycle in cycles)
    assert max(depth for _, depth in series) == snap["max_depth"]


def test_detach_stops_tracking():
    m = make_machine(4)
    tracker = HotspotTracker(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, v):
        yield p.store(addr, v)

    run_one(m, 0, put, 1)
    seen = tracker.blocks[m.block_of(addr)].messages
    tracker.detach()
    tracker.detach()      # idempotent
    run_one(m, 2, put, 2)
    assert tracker.blocks[m.block_of(addr)].messages == seen
    assert not m.events.active


def test_snapshot_and_render():
    m = make_machine(4)
    tracker = HotspotTracker(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def bump(p):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump)
    m.run()
    snap = tracker.snapshot()
    assert snap["window"] == tracker.window
    assert snap["blocks_seen"] == len(tracker.blocks)
    assert len(snap["top"]) == min(TOP_N, len(tracker.blocks))
    assert snap["top"][0]["score"] > 0
    text = tracker.render()
    assert "contention score" in text
    assert str(snap["top"][0]["block"]) in text


def test_window_must_be_positive():
    import pytest

    m = make_machine(4)
    with pytest.raises(ValueError):
        HotspotTracker(m.events, window=0)
