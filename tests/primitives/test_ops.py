"""Unit tests for operation objects and the Proc factory."""

import pickle
import random
from types import SimpleNamespace

from repro.primitives import ops
from repro.primitives.ops import (
    CasResult,
    CompareAndSwap,
    ContendBegin,
    ContendEnd,
    DropCopy,
    FetchAndPhi,
    LLValue,
    Load,
    LoadExclusive,
    LoadLinked,
    MagicBarrier,
    Store,
    StoreConditional,
    Think,
)
from repro.primitives.semantics import PhiOp
from repro.processor.api import Proc


def make_proc(pid=0, nprocs=4):
    return Proc(pid, nprocs, SimpleNamespace(rng=random.Random(0)))


def test_cas_result_truthiness():
    assert CasResult(True, 5)
    assert not CasResult(False, 5)
    assert CasResult(False, 5).old == 5


def test_ll_value_fields():
    v = LLValue(10, token=3, doomed=True)
    assert v.value == 10 and v.token == 3 and v.doomed


#: One instance of every operation and result type.
EVERY_OP = (
    Load(4), Store(4, 1), LoadExclusive(4), DropCopy(4),
    FetchAndPhi(4, PhiOp.ADD, 2), CompareAndSwap(4, 0, 1), LoadLinked(4),
    StoreConditional(4, 1, 7), Think(10), MagicBarrier(3, 8),
    ContendBegin(4), ContendEnd(4), LLValue(5, token=2, doomed=True),
    CasResult(False, 5),
)


def test_ops_are_frozen():
    assert len({type(op) for op in EVERY_OP}) == len(ops.__all__) == 14
    for op in EVERY_OP:
        for field in op._fields:
            try:
                setattr(op, field, 8)
                raised = False
            except AttributeError:
                raised = True
            assert raised, (op, field)
        copy = pickle.loads(pickle.dumps(op))
        assert type(copy) is type(op)
        assert copy == op and hash(copy) == hash(op)
        assert copy == type(op)(*op)


def test_ops_keep_defaults_and_repr():
    assert FetchAndPhi(4, PhiOp.ADD) == FetchAndPhi(4, PhiOp.ADD, 0)
    assert StoreConditional(4, 1).token is None
    assert LLValue(5) == LLValue(5, None, False)
    assert repr(Load(4)) == "Load(addr=4)"
    assert repr(CasResult(True, 3)) == "CasResult(success=True, old=3)"


def test_proc_builds_load_store():
    p = make_proc()
    assert p.load(8) == Load(8)
    assert p.store(8, 5) == Store(8, 5)


def test_proc_builds_fetch_and_phi_family():
    p = make_proc()
    assert p.fetch_add(8, 2) == FetchAndPhi(8, PhiOp.ADD, 2)
    assert p.fetch_store(8, 7) == FetchAndPhi(8, PhiOp.STORE, 7)
    assert p.fetch_or(8, 3) == FetchAndPhi(8, PhiOp.OR, 3)
    assert p.test_and_set(8) == FetchAndPhi(8, PhiOp.TEST_AND_SET, 1)


def test_proc_builds_cas_and_llsc():
    p = make_proc()
    assert p.cas(8, 1, 2) == CompareAndSwap(8, 1, 2)
    assert p.ll(8) == LoadLinked(8)
    assert p.sc(8, 9) == StoreConditional(8, 9, None)
    assert p.sc(8, 9, token=4) == StoreConditional(8, 9, 4)


def test_proc_builds_think_and_barrier():
    p = make_proc(pid=1, nprocs=8)
    assert p.think(10) == Think(10)
    assert p.barrier(3) == MagicBarrier(3, 8)
    assert p.barrier(3, 2) == MagicBarrier(3, 2)
    # Only ``None`` means all processors; 0 is passed on to be refused.
    assert p.barrier(3, None) == MagicBarrier(3, 8)
    assert p.barrier(3, 0) == MagicBarrier(3, 0)


def test_proc_factories_build_the_same_types_as_the_constructors():
    p = make_proc()
    built = [p.load(4), p.store(4, 1), p.load_exclusive(4), p.drop_copy(4),
             p.fetch_add(4, 2), p.cas(4, 0, 1), p.ll(4), p.sc(4, 1, 7),
             p.think(10), p.barrier(3, 8), p.contend_begin(4),
             p.contend_end(4)]
    for op, expected in zip(built, EVERY_OP):
        assert type(op) is type(expected) and op == expected


def test_default_fetch_add_amount_is_one():
    p = make_proc()
    assert p.fetch_add(8).operand == 1
