"""Transaction accounting: chain totals on the controllers, counts on the
latency tracker."""

from repro import SyncPolicy

from tests.conftest import make_machine, run_one


def test_chain_of_table1_stores():
    # Table 1: a store to an uncached line takes 2 serialized messages,
    # one to a remote-exclusive line 4.
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, v):
        yield p.store(addr, v)

    run_one(m, 2, put, 1)
    run_one(m, 0, put, 2)
    assert m.registry.get("ctrl.2.chain.store").value == 2
    assert m.registry.get("ctrl.0.chain.store").value == 4
    assert m.stats.latency.get("store", "INV").count == 2
    chain = sum(m.registry.get(f"ctrl.{node}.chain.store").value
                for node in (0, 2))
    assert chain / m.stats.latency.get("store", "INV").count == 3.0
