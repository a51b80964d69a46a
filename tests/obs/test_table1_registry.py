"""Table 1 regression: chain counts read identically through the registry.

The canonical measurement reads ``controller.last_chain``; the registry
mirrors every completed transaction's chain into
``ctrl.<node>.chain.<kind>``.  Subtracting registry snapshots taken
around the measured store must reproduce the paper's serialized message
counts exactly — and agree with :func:`repro.harness.table1.run_table1`.
"""

from repro.coherence.policy import SyncPolicy
from repro.config import small_config
from repro.harness.table1 import TABLE1_EXPECTED, run_table1
from repro.machine.machine import build_machine

REQUESTER, HOME, OTHER = 0, 1, 2


def _store(machine, pid, addr, value):
    def program(p):
        yield p.store(addr, value)

    machine.spawn(pid, program)
    machine.run()


def _load(machine, pid, addr):
    def program(p):
        yield p.load(addr)

    machine.spawn(pid, program)
    machine.run()


def _measured_via_registry(policy, stage):
    """Stage a machine, then measure one store's chain between two
    snapshots of the requester's counters."""
    machine = build_machine(small_config(n_nodes=4))
    addr = machine.alloc_sync(policy, home=HOME)
    stage(machine, addr)
    prefix = f"ctrl.{REQUESTER}.chain"
    before = machine.registry.snapshot(prefix)
    _store(machine, REQUESTER, addr, 9)
    after = machine.registry.snapshot(prefix)
    # Exactly one transaction completed; its kind-specific chain counter
    # (ctrl.<node>.chain.<kind>) carries the serialized message count.
    chain = sum(value - before.get(name, 0) for name, value in after.items())
    # Cross-check against the canonical reading.
    assert chain == machine.nodes[REQUESTER].controller.last_chain
    return chain


STAGES = {
    "UNC": (SyncPolicy.UNC, lambda m, a: None),
    "INV to cached exclusive":
        (SyncPolicy.INV, lambda m, a: _store(m, REQUESTER, a, 1)),
    "INV to remote exclusive":
        (SyncPolicy.INV, lambda m, a: _store(m, OTHER, a, 1)),
    "INV to remote shared":
        (SyncPolicy.INV, lambda m, a: _load(m, OTHER, a)),
    "INV to uncached": (SyncPolicy.INV, lambda m, a: None),
    "UPD to cached": (SyncPolicy.UPD, lambda m, a: _load(m, OTHER, a)),
    "UPD to uncached": (SyncPolicy.UPD, lambda m, a: None),
}


def test_table1_chain_counts_via_registry():
    measured = {
        label: _measured_via_registry(policy, stage)
        for label, (policy, stage) in STAGES.items()
    }
    assert measured == TABLE1_EXPECTED


def test_registry_agrees_with_run_table1():
    assert run_table1() == TABLE1_EXPECTED
