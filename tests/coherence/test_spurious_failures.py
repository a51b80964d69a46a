"""§2.1: spurious reservation invalidation (fault injection).

Real processors lose LL reservations to context switches and TLB
exceptions; the paper argues this is harmless for lock-freedom as long
as programs retry.  With ``spurious_sc_rate`` enabled, retrying programs
must stay exactly correct while experiencing real losses.
"""

import pytest

from repro import SimConfig, SyncPolicy, build_machine
from repro.config import MachineConfig
from repro.errors import ConfigError


def machine(rate, n=8, strategy="bitvector"):
    return build_machine(SimConfig(
        machine=MachineConfig(n_nodes=n),
        spurious_sc_rate=rate,
        reservation_strategy=strategy,
    ))


def spurious_losses(m):
    return sum(node.controller.spurious_losses for node in m.nodes)


def llsc_counter(addr, iters):
    def prog(p):
        for _ in range(iters):
            while True:
                linked = yield p.ll(addr)
                ok = yield p.sc(addr, linked.value + 1, linked.token)
                if ok:
                    break

    return prog


@pytest.mark.parametrize("policy",
                         [SyncPolicy.INV, SyncPolicy.UPD, SyncPolicy.UNC],
                         ids=lambda p: p.value)
def test_retry_loops_survive_heavy_spurious_loss(policy):
    m = machine(0.4)
    addr = m.alloc_sync(policy, home=1)
    m.spawn_all(llsc_counter(addr, 5))
    m.run(max_events=20_000_000)
    assert m.read_word(addr) == 40
    assert spurious_losses(m) > 0


def test_zero_rate_never_loses():
    m = machine(0.0)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    m.spawn_all(llsc_counter(addr, 3))
    m.run(max_events=10_000_000)
    assert spurious_losses(m) == 0


def test_losses_are_deterministic():
    def run():
        m = machine(0.3)
        addr = m.alloc_sync(SyncPolicy.INV, home=1)
        m.spawn_all(llsc_counter(addr, 4))
        m.run(max_events=10_000_000)
        return m.now, spurious_losses(m)

    assert run() == run()


def test_single_uncontended_sc_can_fail_and_retry_succeeds():
    m = machine(0.9, n=4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)
    attempts = []

    def prog(p):
        while True:
            linked = yield p.ll(addr)
            ok = yield p.sc(addr, linked.value + 1, linked.token)
            attempts.append(bool(ok))
            if ok:
                return

    m.spawn(0, prog)
    m.run(max_events=1_000_000)
    assert m.read_word(addr) == 1
    assert attempts[-1] is True
    # At 90% loss some failures are (deterministically) expected here.
    assert attempts.count(False) > 0


def test_invalid_rate_rejected():
    with pytest.raises(ConfigError):
        SimConfig(spurious_sc_rate=1.0).validate()
    with pytest.raises(ConfigError):
        SimConfig(spurious_sc_rate=-0.1).validate()


def test_cas_unaffected_by_spurious_rate():
    # Spurious invalidation is an LL/SC phenomenon; compare_and_swap has
    # no reservation to lose.
    m = machine(0.9, n=4)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def prog(p):
        result = yield p.cas(addr, 0, 5)
        return bool(result)

    box = {}

    def wrapper(p):
        box["ok"] = yield from prog(p)

    m.spawn(0, wrapper)
    m.run()
    assert box["ok"] is True
    assert spurious_losses(m) == 0
