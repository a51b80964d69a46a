"""MachineStats: transaction accounting lives in the metrics registry."""

from repro import SyncPolicy
from repro.obs.registry import MetricsRegistry
from repro.stats.collect import MachineStats

from tests.conftest import make_machine, run_one


def test_mean_chain_reads_the_registry_counters():
    stats = MachineStats()
    registry = MetricsRegistry()
    stats.attach_registry(registry)
    stats.note_transaction("store", 2)
    stats.note_transaction("store", 4)
    stats.note_transaction("faa", 3)
    assert registry.snapshot("txn") == {
        "txn.faa.chain": 3, "txn.faa.count": 1,
        "txn.store.chain": 6, "txn.store.count": 2,
    }
    assert stats.mean_chain("store") == 3.0
    assert stats.mean_chain("faa") == 3.0
    assert stats.mean_chain("load") == 0.0


def test_mean_chain_without_an_attached_registry():
    stats = MachineStats()
    stats.note_transaction("lx", 4)
    assert stats.mean_chain("lx") == 4.0


def test_mean_chain_of_table1_stores():
    # Table 1: a store to an uncached line takes 2 serialized messages,
    # one to a remote-exclusive line 4.
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, v):
        yield p.store(addr, v)

    run_one(m, 2, put, 1)
    run_one(m, 0, put, 2)
    assert m.registry.get("txn.store.count").value == 2
    assert m.stats.mean_chain("store") == 3.0
