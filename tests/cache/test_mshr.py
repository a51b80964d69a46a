"""Unit tests for the MSHR / transaction bookkeeping.

The controller's reply and ack handlers decide when a transaction is
complete and free the slot, so the completion rules are driven through
``CacheController.handle``.
"""

import pytest

from repro.cache.mshr import Mshr, Transaction
from repro.errors import ProtocolError
from repro.network.message import Message, MessageType, Unit
from repro.primitives.ops import Load

from tests.conftest import make_machine


def txn(block=1, callback=lambda r: None):
    return Transaction(op=None, block=block, callback=callback,
                       kind="sync_faa")


def msg(block=1):
    return Message(mtype=MessageType.FLUSH_REQ, src=1, dst=0,
                   unit=Unit.CACHE, block=block)


def reply(acks, chain=1, block=1):
    return Message(MessageType.SYNC_REPLY, 1, 0, Unit.CACHE, block,
                   chain=chain, payload={"result": 7, "data": None,
                                         "acks": acks})


def ack(chain=1, block=1):
    return Message(MessageType.INV_ACK, 2, 0, Unit.CACHE, block, chain=chain)


def in_flight():
    """A 4-node machine whose node 0 has one memory-side transaction
    outstanding on block 1; returns (machine, controller, txn, results)."""
    m = make_machine(4)
    controller = m.nodes[0].controller
    results = []
    t = controller.mshr.current = txn(callback=results.append)
    return m, controller, t, results


def test_begin_finish_cycle():
    m, controller, t, results = in_flight()
    mshr = controller.mshr
    assert mshr.pending_for(1)
    assert not mshr.pending_for(2)
    controller.handle(reply(acks=0))
    assert not mshr.pending_for(1)
    m.sim.run()
    assert results == [7]
    addr = m.alloc_data(1)
    controller.execute(Load(addr=addr), results.append)
    assert mshr.pending_for(m.block_of(addr))


def test_double_begin_rejected():
    m, controller, t, results = in_flight()
    with pytest.raises(ProtocolError, match="MSHR busy with block 1"):
        controller.execute(Load(addr=m.alloc_data(1)), results.append)


def test_finish_without_begin_rejected():
    controller = make_machine(4).nodes[0].controller
    with pytest.raises(ProtocolError, match="no outstanding transaction"):
        controller.handle(ack())


def test_deferred_messages_round_trip():
    mshr = Mshr()
    m1, m2 = msg(1), msg(1)
    mshr.defer(m1)
    mshr.defer(m2)
    assert mshr.take_deferred(1) == [m1, m2]
    assert mshr.take_deferred(1) == []


def test_deferred_messages_keyed_by_block():
    mshr = Mshr()
    mshr.defer(msg(1))
    assert mshr.take_deferred(2) == []
    assert len(mshr.take_deferred(1)) == 1


def test_transaction_completion_rules():
    # An ack may overtake the reply; completion needs the reply and
    # every ack it announces.
    m, controller, t, results = in_flight()
    controller.handle(ack())
    assert controller.mshr.current is t
    controller.handle(reply(acks=2))
    assert controller.mshr.current is t
    controller.handle(ack())
    assert controller.mshr.current is None
    m.sim.run()
    assert results == [7]


def test_completion_with_no_acks_expected():
    m, controller, t, results = in_flight()
    controller.handle(reply(acks=0))
    assert controller.mshr.current is None
    m.sim.run()
    assert results == [7]


def test_note_chain_keeps_max():
    m, controller, t, results = in_flight()
    controller.handle(reply(acks=2, chain=2))
    controller.handle(ack(chain=1))
    assert t.chain == 2
    controller.handle(ack(chain=4))
    assert t.chain == 4
    assert controller.last_chain == 4
