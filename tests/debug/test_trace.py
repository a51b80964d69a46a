"""Protocol message tracing: an EventRecorder on a machine's msg.send events."""

from repro import SyncPolicy
from repro.obs.events import EventRecorder
from repro.obs.exporters import render_timeline

from tests.conftest import make_machine, run_one


def put(p, addr, v):
    yield p.store(addr, v)


def trace(m, **kwargs):
    return EventRecorder(m.events, kinds=("msg.send",), **kwargs)


def test_trace_records_transaction_messages():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    rec = trace(m)
    run_one(m, 0, put, addr, 5)
    types = [e.data["mtype"] for e in rec.events]
    assert "GETX" in types and "DATA_X" in types


def test_block_filter():
    m = make_machine(4)
    a = m.alloc_sync(SyncPolicy.INV, home=1)
    b = m.alloc_sync(SyncPolicy.INV, home=1)
    rec = trace(m, blocks={m.block_of(a)})
    run_one(m, 0, put, a, 1)
    run_one(m, 0, put, b, 2)
    assert len(rec) > 0
    assert all(e.block == m.block_of(a) for e in rec.events)


def test_chain_depths_recorded():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    run_one(m, 2, put, addr, 1)      # make the line remote exclusive
    rec = trace(m, blocks={m.block_of(addr)})
    run_one(m, 0, put, addr, 2)      # 4-serialized-message transfer
    assert max(e.data["chain"] for e in rec.events) == 4


def test_render_and_len():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    rec = trace(m)
    run_one(m, 0, put, addr, 1)
    text = render_timeline(rec.events)
    assert "GETX" in text
    assert str(len(rec)) in text.splitlines()[0]
    tail = render_timeline(rec.events[-1:])
    assert len(tail.splitlines()) == 2


def test_limit_drops_excess():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    rec = trace(m, limit=1)
    run_one(m, 0, put, addr, 1)
    assert len(rec) == 1
    assert rec.dropped > 0


def test_detach_stops_recording():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    rec = trace(m)
    run_one(m, 0, put, addr, 1)
    count = len(rec)
    rec.detach()
    run_one(m, 2, put, addr, 2)
    assert len(rec) == count


def test_chained_observers_both_fire():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    first = trace(m)
    second = trace(m)
    run_one(m, 0, put, addr, 1)
    assert len(first) == len(second) > 0


def test_detach_out_of_order():
    # Detaching an earlier recorder must not disconnect any later one.
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    first = trace(m)
    second = trace(m)
    third = trace(m)
    run_one(m, 0, put, addr, 1)
    baseline = len(third)
    assert baseline > 0
    second.detach()
    first.detach()
    first.detach()  # idempotent
    run_one(m, 2, put, addr, 2)
    assert len(third) > baseline
    assert len(first) == len(second) == baseline
