"""Tests of machine assembly, program management, and direct access."""

import pytest

from repro import SimConfig, SyncPolicy, build_machine
from repro.config import MachineConfig
from repro.errors import AddressError, DeadlockError, ProgramError

from tests.conftest import make_machine, run_one


def test_build_default_machine_is_64_nodes():
    m = build_machine()
    assert m.n_nodes == 64
    assert len(m.nodes) == 64


def test_nodes_fully_wired():
    m = make_machine(4)
    for node in m.nodes:
        assert node.processor is not None
        assert node.controller is not None
        assert node.memory is not None
        assert node.home is not None


@pytest.mark.parametrize("pid", [-1, 4])
def test_spawn_rejects_pid_outside_machine(pid):
    m = make_machine(4)

    def prog(p):
        yield p.think(1)

    with pytest.raises(ProgramError, match=f"processor {pid} outside "
                                           "machine of 4 nodes"):
        m.spawn(pid, prog)
    with pytest.raises(ProgramError, match=f"processor {pid} outside"):
        m.proc_handle(pid)
    assert m.run() == 0


def test_policy_defaults_to_inv():
    m = make_machine(4)
    addr = m.alloc_data(1)
    assert m.policy_of(m.block_of(addr)) is SyncPolicy.INV


def test_alloc_sync_registers_policy_and_tracking():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.UNC, home=2)
    assert m.policy_of(m.block_of(addr)) is SyncPolicy.UNC
    assert addr in m.stats.writerun.registered
    assert m.home_of(m.block_of(addr)) == 2


def test_write_word_then_read_word():
    m = make_machine(4)
    addr = m.alloc_data(2)
    m.write_word(addr, 5)
    assert m.read_word(addr) == 5


def test_write_word_after_caching_rejected():
    m = make_machine(4)
    addr = m.alloc_data(1)

    def prog(p):
        yield p.load(addr)

    run_one(m, 0, prog)
    with pytest.raises(AddressError):
        m.write_word(addr, 9)


def test_read_word_follows_exclusive_owner():
    m = make_machine(4)
    addr = m.alloc_data(1)

    def prog(p):
        yield p.store(addr, 123)   # dirty exclusive in cpu0's cache

    run_one(m, 0, prog)
    assert m.read_word(addr) == 123


def test_spawn_all_with_pid_subset():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def prog(p):
        yield p.fetch_add(addr, 1)

    m.spawn_all(prog, pids=[1, 3])
    m.run()
    assert m.read_word(addr) == 2


def test_refused_spawn_leaves_no_phantom_program():
    m = make_machine(4)

    def prog(p):
        yield p.think(10)

    m.spawn(0, prog)
    with pytest.raises(ProgramError, match="processor 0 is already running"):
        m.spawn(0, prog)
    assert m.run() == 10


def test_spawn_rejects_a_function_that_is_not_a_generator_function():
    m = make_machine(4)

    def not_a_program(p):
        return 5

    with pytest.raises(ProgramError,
                       match="processor 1: .*not_a_program is not a "
                             "generator function"):
        m.spawn(1, not_a_program)
    assert m.run() == 0


def test_deadlock_detection():
    m = make_machine(4)

    def stuck(p):
        yield p.barrier(0, 2)  # nobody else arrives

    m.spawn(0, stuck)
    with pytest.raises(DeadlockError):
        m.run()


def test_deadlock_message_names_blocked_programs():
    m = make_machine(4)

    def stuck(p):
        yield p.barrier(0, 4)  # four expected, only two arrive

    m.spawn(0, stuck)
    m.spawn(1, stuck)
    with pytest.raises(DeadlockError,
                       match=r"2 program\(s\) blocked") as excinfo:
        m.run()
    assert "cpu0" in str(excinfo.value)
    assert "cpu1" in str(excinfo.value)


def test_deadlock_ignores_finished_programs():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def stuck(p):
        yield p.barrier(0, 2)

    def fine(p):
        yield p.fetch_add(addr, 1)

    m.spawn(0, stuck)
    m.spawn(1, fine)
    with pytest.raises(DeadlockError,
                       match=r"1 program\(s\) blocked") as excinfo:
        m.run()
    # Only the genuinely blocked program is reported.
    assert "cpu0" in str(excinfo.value)
    assert "cpu1" not in str(excinfo.value)
    assert m.read_word(addr) == 1


def test_sequential_respawn_on_same_processor():
    m = make_machine(4)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def prog(p):
        yield p.fetch_add(addr, 1)

    for _ in range(3):
        m.spawn(0, prog)
        m.run()
    assert m.read_word(addr) == 3


def test_determinism_same_seed_same_cycles():
    def run():
        m = make_machine(8)
        addr = m.alloc_sync(SyncPolicy.INV, home=1)

        def prog(p):
            for _ in range(5):
                yield p.fetch_add(addr, 1)
                yield p.think(p.rng.randrange(10))

        m.spawn_all(prog)
        m.run()
        return m.now, m.read_word(addr)

    assert run() == run()


def test_different_seeds_change_timing():
    def run(seed):
        m = build_machine(SimConfig(machine=MachineConfig(n_nodes=8),
                                    seed=seed))
        addr = m.alloc_sync(SyncPolicy.INV, home=1)

        def prog(p):
            for _ in range(5):
                yield p.think(p.rng.randrange(1000))
                yield p.fetch_add(addr, 1)

        m.spawn_all(prog)
        m.run()
        return m.now

    assert run(1) != run(2)


def test_invalid_config_rejected():
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        build_machine(SimConfig(machine=MachineConfig(n_nodes=0)))
    with pytest.raises(ConfigError):
        build_machine(SimConfig(reservation_strategy="bogus"))
