"""Event bus: subscription, filters, recorder, machine integration."""

from repro import SyncPolicy
from repro.obs.events import EVENT_KINDS, EventBus, EventRecorder

from tests.conftest import make_machine, run_one


def put(p, addr, v):
    yield p.store(addr, v)


def test_subscribe_and_emit():
    bus = EventBus()
    got = []
    bus.subscribe(got.append)
    bus.emit("msg.send", 10, node=2, mtype="GETX", block=3)
    assert len(got) == 1
    event = got[0]
    assert event.kind == "msg.send"
    assert event.ts == 10
    assert event.node == 2
    assert event.block == 3
    assert event.data["mtype"] == "GETX"


def test_inactive_bus_emits_nothing():
    bus = EventBus()
    assert not bus.active
    bus.emit("msg.send", 0)
    assert bus.emitted == 0
    token = bus.subscribe(lambda e: None)
    assert bus.active
    bus.unsubscribe(token)
    assert not bus.active


def test_kind_filter():
    bus = EventBus()
    sends, all_events = [], []
    bus.subscribe(sends.append, kinds=("msg.send",))
    bus.subscribe(all_events.append)
    bus.emit("msg.send", 0)
    bus.emit("res.grant", 1)
    assert [e.kind for e in sends] == ["msg.send"]
    assert [e.kind for e in all_events] == ["msg.send", "res.grant"]


def test_unsubscribe_out_of_order():
    bus = EventBus()
    first, second, third = [], [], []
    t1 = bus.subscribe(first.append)
    t2 = bus.subscribe(second.append)
    t3 = bus.subscribe(third.append)
    bus.unsubscribe(t2)        # middle one detaches first
    bus.emit("msg.send", 0)
    bus.unsubscribe(t1)
    bus.emit("msg.send", 1)
    bus.unsubscribe(t3)
    bus.emit("msg.send", 2)
    assert len(first) == 1
    assert len(second) == 0
    assert len(third) == 2


def test_recorder_block_filter_and_limit():
    bus = EventBus()
    rec = EventRecorder(bus, blocks={7}, limit=2)
    for i in range(4):
        bus.emit("msg.send", i, block=7)
    bus.emit("msg.send", 9, block=8)
    assert len(rec) == 2
    assert rec.dropped == 2
    assert all(e.block == 7 for e in rec.events)
    rec.detach()
    bus.emit("msg.send", 10, block=7)
    assert len(rec) == 2
    rec.detach()  # idempotent


def test_machine_emits_all_transaction_kinds():
    m = make_machine(4)
    rec = EventRecorder(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    run_one(m, 2, put, addr, 1)    # remote exclusive at node 2
    run_one(m, 0, put, addr, 2)    # 4-chain ownership transfer
    kinds = {e.kind for e in rec.events}
    assert "msg.send" in kinds
    assert "msg.deliver" in kinds
    assert "cache.transition" in kinds
    assert "atomic.start" in kinds
    assert "atomic.complete" in kinds
    assert kinds <= set(EVENT_KINDS)
    # Sends and delivers pair up one-to-one.
    assert len(rec.of_kind("msg.send")) == len(rec.of_kind("msg.deliver"))


def test_reservation_events():
    m = make_machine(4)
    rec = EventRecorder(m.events, kinds=("res.grant", "res.revoke"))
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def llsc(p, addr):
        ll = yield p.ll(addr)
        yield p.sc(addr, ll.value + 1, token=ll.token)

    run_one(m, 0, llsc, addr)
    grants = rec.of_kind("res.grant")
    revokes = rec.of_kind("res.revoke")
    assert len(grants) == 1
    assert len(revokes) == 1
    assert revokes[0].data["reason"] == "sc_consumed"


def test_directory_queue_events():
    m = make_machine(4)
    rec = EventRecorder(m.events, kinds=("dir.queue.enter", "dir.queue.leave"))
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def bump(p, addr):
        yield p.fetch_add(addr, 1)

    for pid in range(4):
        m.spawn(pid, bump, addr)
    m.run()
    enters = rec.of_kind("dir.queue.enter")
    leaves = rec.of_kind("dir.queue.leave")
    assert len(enters) == len(leaves)
    assert len(enters) > 0
    assert all(e.data["depth"] >= 1 for e in enters)


def test_active_survives_middle_unsubscribe():
    """``active`` must track the subscriber *count*, not the last token."""
    bus = EventBus()
    t1 = bus.subscribe(lambda e: None)
    t2 = bus.subscribe(lambda e: None)
    t3 = bus.subscribe(lambda e: None)
    bus.unsubscribe(t2)
    assert bus.active          # two subscribers remain
    bus.unsubscribe(t1)
    assert bus.active          # one remains
    bus.unsubscribe(t3)
    assert not bus.active
    bus.unsubscribe(t2)        # double-unsubscribe is a no-op
    assert not bus.active


def test_active_after_drain_and_resubscribe():
    """Draining all subscribers and re-subscribing must re-arm the bus."""
    bus = EventBus()
    got = []
    t1 = bus.subscribe(got.append)
    bus.unsubscribe(t1)
    assert not bus.active
    bus.emit("msg.send", 0)
    assert bus.emitted == 0    # fast path: no Event constructed
    t2 = bus.subscribe(got.append)
    assert t2 != t1            # tokens are never reused
    assert bus.active
    bus.emit("msg.send", 1)
    assert bus.emitted == 1
    assert [e.ts for e in got] == [1]


def test_mesh_fast_path_sees_midrun_subscribe():
    """The ``bus.active`` guards at the mesh emission sites re-check on
    every message, so a subscriber attached *mid-run* (from a scheduled
    callback) sees every later message while the earlier ones ran the
    zero-cost path."""
    def drive(subscribe_at):
        m = make_machine(4)
        got = []
        if subscribe_at is not None:
            m.sim.schedule(subscribe_at,
                           lambda: m.events.subscribe(got.append,
                                                      kinds=("msg.send",)))
        addr = m.alloc_sync(SyncPolicy.INV, home=1)
        run_one(m, 2, put, addr, 1)
        run_one(m, 0, put, addr, 2)
        return m, got

    plain, _ = drive(None)
    mid, got = drive(40)
    # Observation must not perturb the simulation...
    assert mid.now == plain.now
    assert mid.mesh.stats.messages == plain.mesh.stats.messages
    # ...and only sends from the subscription point onward are seen.
    assert 0 < len(got) < mid.mesh.stats.messages
    assert all(e.ts >= 40 for e in got)
