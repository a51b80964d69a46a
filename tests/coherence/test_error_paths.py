"""Protocol error paths and defensive checks."""

import pytest

from repro import SyncPolicy
from repro.errors import AddressError, ProtocolError
from repro.network.message import Message, MessageType, Unit

from tests.conftest import make_machine, run_one


def test_home_rejects_unknown_message():
    m = make_machine(4)
    home = m.nodes[1].home
    bogus = Message(mtype=MessageType.DATA_S, src=0, dst=1,
                    unit=Unit.HOME, block=3)
    with pytest.raises(ProtocolError):
        home._process(bogus)


def test_cache_rejects_unknown_message():
    m = make_machine(4)
    controller = m.nodes[0].controller
    bogus = Message(mtype=MessageType.GETS, src=1, dst=0,
                    unit=Unit.CACHE, block=3)
    with pytest.raises(ProtocolError):
        controller.handle(bogus)


def test_reply_without_transaction_rejected():
    m = make_machine(4)
    controller = m.nodes[0].controller
    stray = Message(mtype=MessageType.DATA_S, src=1, dst=0,
                    unit=Unit.CACHE, block=3, payload={"data": [0] * 8})
    with pytest.raises(ProtocolError):
        controller.handle(stray)


def test_flush_reply_without_pending_rejected():
    m = make_machine(4)
    home = m.nodes[1].home
    stray = Message(mtype=MessageType.FLUSH_REPLY, src=0, dst=1,
                    unit=Unit.HOME, block=1, requester=0,
                    payload={"data": [0] * 8})
    with pytest.raises(ProtocolError):
        home._process(stray)


def test_sync_req_with_bad_kind_rejected():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.UNC, home=1)
    home = m.nodes[1].home
    bad = Message(mtype=MessageType.SYNC_REQ, src=0, dst=1,
                  unit=Unit.HOME, block=m.block_of(addr), requester=0,
                  payload={"kind": "frobnicate", "offset": 0, "addr": addr})
    with pytest.raises(ProtocolError):
        home._process(bad)


def test_sync_req_under_plain_inv_rejected():
    # Only INVd/INVs CAS may arrive as SYNC_REQ for invalidate-family
    # blocks; anything else indicates a routing bug.
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    home = m.nodes[1].home
    bad = Message(mtype=MessageType.SYNC_REQ, src=0, dst=1,
                  unit=Unit.HOME, block=m.block_of(addr), requester=0,
                  payload={"kind": "faa", "offset": 0, "addr": addr})
    with pytest.raises(ProtocolError):
        home._process(bad)


def test_negative_address_rejected_at_execute():
    m = make_machine(4)

    def prog(p):
        yield p.load(-32)

    m.spawn(0, prog)
    with pytest.raises(AddressError, match="negative address -32"):
        m.run()


@pytest.mark.parametrize("policy, issue", [
    (SyncPolicy.INV, lambda p, addr: p.load(addr)),
    (SyncPolicy.UNC, lambda p, addr: p.fetch_add(addr, 1)),
    (SyncPolicy.UNC, lambda p, addr: p.sc(addr, 1)),
], ids=["inv_load_miss", "unc_fetch_add", "unc_sc_unreserved"])
def test_misaligned_word_op_rejected_at_execute(policy, issue):
    # Each would send a request or fail locally without reading the word;
    # alignment is checked before the cache, the network or the
    # reservation is consulted.
    m = make_machine(4)
    addr = m.alloc_sync(policy, home=1) + 2

    def prog(p):
        yield issue(p, addr)

    m.spawn(0, prog)
    with pytest.raises(AddressError,
                       match=f"address {addr:#x} is not word aligned"):
        m.run()
    assert m.mesh.stats.messages == 0
    assert m.mesh.stats.local_messages == 0


def test_owner_nak_retry_cap():
    # A transaction that NAKs forever must eventually raise, not hang.
    from repro.cache.mshr import Mshr, Transaction

    m = make_machine(4)
    controller = m.nodes[0].controller
    txn = Transaction(op=None, block=1, callback=lambda r: None,
                      kind="store", request_mtype=MessageType.GETX)
    txn.retries = Mshr.MAX_RETRIES
    controller.mshr.current = txn
    nak = Message(mtype=MessageType.OWNER_NAK, src=2, dst=0,
                  unit=Unit.CACHE, block=1, requester=0)
    with pytest.raises(ProtocolError, match="livelock"):
        controller.handle(nak)


def test_gets_while_claiming_to_own_rejected():
    # Forge a GETS from a node the directory believes owns the block.
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p):
        yield p.store(addr, 5)

    run_one(m, 0, put)
    home = m.nodes[1].home
    forged = Message(mtype=MessageType.GETS, src=0, dst=1, unit=Unit.HOME,
                     block=m.block_of(addr), requester=0)
    with pytest.raises(ProtocolError):
        home._process(forged)


def test_unc_block_never_reaches_gets():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.UNC, home=1)

    def prog(p):
        yield p.load(addr)

    run_one(m, 0, prog)
    # The controller must have used SYNC_REQ, not GETS.
    assert m.mesh.stats.by_type.get("GETS", 0) == 0
    assert m.mesh.stats.by_type.get("SYNC_REQ", 0) >= 1
