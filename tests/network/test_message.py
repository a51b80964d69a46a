"""Unit tests for protocol message construction."""

from repro.network.message import Message, MessageType, Unit


def make(mtype=MessageType.GETX, chain=1):
    return Message(
        mtype=mtype, src=0, dst=1, unit=Unit.HOME, block=7,
        chain=chain, requester=0,
    )


def test_successor_extends_chain():
    base = make(chain=1)
    nxt = base.successor(MessageType.FLUSH_REQ, 1, 2, Unit.CACHE)
    assert nxt.chain == 2
    assert nxt.block == base.block
    assert nxt.requester == base.requester
    assert nxt.src == 1 and nxt.dst == 2


def test_sibling_same_depth_as_successor():
    base = make(chain=3)
    a = base.successor(MessageType.INV, 1, 2, Unit.CACHE)
    b = base.sibling(MessageType.DATA_X, 1, 0, Unit.CACHE)
    assert a.chain == b.chain == 4


def test_payload_kwargs_captured():
    base = make()
    nxt = base.successor(MessageType.DATA_X, 1, 0, Unit.CACHE, data=[1], acks=2)
    assert nxt.payload == {"data": [1], "acks": 2}


def test_message_ids_unique():
    a, b = make(), make()
    assert a.msg_id != b.msg_id


def test_carries_data_classification():
    assert MessageType.DATA_S.carries_data
    assert MessageType.DATA_X.carries_data
    assert MessageType.WB.carries_data
    assert MessageType.UPDATE.carries_data
    assert not MessageType.GETS.carries_data
    assert not MessageType.INV.carries_data
    assert not MessageType.INV_ACK.carries_data
    assert not MessageType.OWNER_NAK.carries_data


def test_successor_keeps_chain_and_txn():
    txn = object()
    msg = Message(mtype=MessageType.GETS, src=0, dst=1, unit=Unit.HOME,
                  block=7, txn=txn, chain=2, requester=3)
    nxt = msg.successor(MessageType.DATA_X, 1, 0, Unit.CACHE, acks=1)
    assert nxt.chain == 3
    assert nxt.txn is txn
    assert nxt.payload == {"acks": 1}
    assert nxt.requester == msg.requester
