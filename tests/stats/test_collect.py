"""Transaction accounting: chain totals on the controllers."""

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
    # Each of the two nodes ran one transaction, so one chain counter
    # per transaction.
    chains = {name: value for name, value in m.registry.snapshot().items()
              if name.startswith("ctrl.") and ".chain." in name}
    assert sorted(chains) == ["ctrl.0.chain.store", "ctrl.2.chain.store"]
    assert sum(chains.values()) / len(chains) == 3.0
