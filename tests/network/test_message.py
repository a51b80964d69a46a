"""Unit tests for protocol message construction."""

from repro.network.message import Message, MessageType, Unit


def make(mtype=MessageType.GETX):
    return Message(
        mtype=mtype, src=0, dst=1, unit=Unit.HOME, block=7, requester=0,
    )


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
