"""Unit tests for operation objects and the Proc factory."""

import random
from types import SimpleNamespace

from repro.primitives.ops import (
    CasResult,
    CompareAndSwap,
    FetchAndPhi,
    LLValue,
    Load,
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


def test_ops_are_frozen():
    op = Load(4)
    try:
        op.addr = 8
        raised = False
    except AttributeError:
        raised = True
    assert raised


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


def test_default_fetch_add_amount_is_one():
    p = make_proc()
    assert p.fetch_add(8).operand == 1
