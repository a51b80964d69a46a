"""Tests of the processor shell: think, barriers, errors, stats hooks."""

import random
from types import SimpleNamespace

import pytest

from repro import SimConfig, build_machine
from repro.errors import ProgramError
from repro.processor import processor as processor_module

from tests.conftest import make_machine, run_one


def test_think_advances_time():
    m = make_machine(2)

    def prog(p):
        start = m.now
        yield p.think(100)
        return m.now - start

    assert run_one(m, 0, prog) == 100


def test_think_zero_allowed():
    m = make_machine(2)

    def prog(p):
        yield p.think(0)

    run_one(m, 0, prog)


def test_negative_think_rejected():
    m = make_machine(2)

    def prog(p):
        yield p.think(-1)

    m.spawn(0, prog)
    with pytest.raises(ProgramError):
        m.run()


@pytest.mark.parametrize("cycles", [2.5, 1.0, True])
def test_non_int_think_rejected(cycles):
    """A fractional cycle count would make the integer clock fractional."""
    m = make_machine(4)
    addr = m.alloc_data(1)

    def prog(p):
        yield p.think(cycles)
        yield p.fetch_add(addr, 1)

    m.spawn(0, prog)
    with pytest.raises(ProgramError, match="non-negative int cycle count, "
                                           f"got {cycles!r} on processor 0"):
        m.run()
    assert m.now == 0


def test_yielding_garbage_rejected():
    m = make_machine(2)

    def prog(p):
        yield "not an op"

    m.spawn(0, prog)
    with pytest.raises(ProgramError):
        m.run()


def test_rng_is_deterministic_per_pid():
    m1 = make_machine(4)
    m2 = make_machine(4)
    a = m1.nodes[2].processor.rng.randrange(1 << 30)
    b = m2.nodes[2].processor.rng.randrange(1 << 30)
    assert a == b
    c = m1.nodes[3].processor.rng.randrange(1 << 30)
    assert a != c


def test_rng_is_built_on_first_use_with_the_same_stream(monkeypatch):
    built = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(processor_module, "random",
                        SimpleNamespace(Random=CountingRandom))
    m = build_machine(SimConfig().with_nodes(64))
    assert built == []

    def prog(p):
        yield p.think(1)

    m.spawn_all(prog)
    m.run()
    assert built == []
    seed = m.config.seed
    pids = (0, 5, 63)
    for pid in pids:
        rng = m.proc_handle(pid).rng
        assert rng is m.nodes[pid].processor.rng
        reference = random.Random((seed << 20) ^ pid)
        assert ([rng.randrange(1 << 30) for _ in range(4)]
                == [reference.randrange(1 << 30) for _ in range(4)])
    assert built == [(seed << 20) ^ pid for pid in pids]


def test_double_spawn_rejected_while_running():
    m = make_machine(2)

    def prog(p):
        yield p.think(10)

    m.spawn(0, prog)
    with pytest.raises(ProgramError):
        m.spawn(0, prog)


def test_ops_issued_counted():
    m = make_machine(2)
    addr = m.alloc_data(1)

    def prog(p):
        yield p.load(addr)
        yield p.store(addr, 1)
        yield p.think(5)  # not a memory op

    run_one(m, 0, prog)
    assert m.nodes[0].processor.ops_issued == 2


def test_finish_time_recorded():
    m = make_machine(2)

    def prog(p):
        yield p.think(42)

    run_one(m, 0, prog)
    assert m.nodes[0].processor.finish_time == 42


class TestMagicBarrier:
    def test_aligns_processors(self):
        m = make_machine(4)
        times = {}

        def prog(p):
            yield p.think(p.pid * 50)
            yield p.barrier(0, 4)
            times[p.pid] = m.now

        m.spawn_all(prog)
        m.run()
        assert len(set(times.values())) == 1
        assert list(times.values())[0] == 150  # slowest arrival


    def test_costs_no_messages(self):
        m = make_machine(4)

        def prog(p):
            yield p.barrier(0, 4)

        m.spawn_all(prog)
        m.run()
        assert m.mesh.stats.messages == 0
        assert m.mesh.stats.local_messages == 0

    def test_sequence_of_barriers(self):
        m = make_machine(4)
        order = []

        def prog(p):
            for episode in range(3):
                yield p.think(p.rng.randrange(20))
                yield p.barrier(episode, 4)
                if p.pid == 0:
                    order.append(episode)

        m.spawn_all(prog)
        m.run()
        assert order == [0, 1, 2]

    def test_partial_participation(self):
        m = make_machine(4)
        done = []

        def member(p):
            yield p.barrier(9, 2)
            done.append(p.pid)

        m.spawn(1, member)
        m.spawn(3, member)
        m.run()
        assert sorted(done) == [1, 3]

    def test_overflow_rejected(self):
        from repro.processor.magic import BarrierManager
        from repro.sim.engine import Simulator
        from repro.sim.process import Process

        sim = Simulator()
        manager = BarrierManager(sim)

        def gen():
            yield "wait"

        # Three arrivals at a 2-participant barrier: the first pair is
        # released; a mismatched third declaring 3 participants overflows
        # once two more arrive claiming a conflicting size.
        stuck = [Process(f"p{i}", gen(), lambda pr, rq: None)
                 for i in range(3)]
        for proc in stuck:
            proc.start()
        manager.arrive(0, 3, stuck[0])
        manager.arrive(0, 3, stuck[1])
        manager.arrive(0, 3, stuck[2])
        assert manager.idle() and manager.episodes == 1

        late = Process("late", gen(), lambda pr, rq: None)
        late.start()
        manager.arrive(1, 1, late)
        with pytest.raises(ProgramError):
            # Two arrivals for a 1-participant episode id that was
            # already... re-declared smaller than the waiting crowd.
            big = [Process(f"q{i}", gen(), lambda pr, rq: None)
                   for i in range(2)]
            for proc in big:
                proc.start()
            manager.arrive(2, 2, big[0])
            manager.arrive(2, 1, big[1])

    def test_barrier_with_zero_participants_rejected(self):
        """An explicit 0 is passed on, not read as "all processors"."""
        m = make_machine(4)

        def prog(p):
            yield p.barrier(7, 0)

        m.spawn(0, prog)
        with pytest.raises(ProgramError,
                           match="at least one participant: cpu0 arrived "
                                 "at barrier 7 with 0"):
            m.run()

    def test_barrier_without_participants_waits_for_all(self):
        m = make_machine(4)
        arrived = []

        def prog(p):
            yield p.think(10 * p.pid)
            yield p.barrier(7)
            arrived.append(m.now)

        m.spawn_all(prog)
        m.run()
        assert arrived == [30] * 4

    def test_zero_participants_rejected(self):
        from repro.processor.magic import BarrierManager
        from repro.sim.engine import Simulator
        from repro.sim.process import Process

        sim = Simulator()
        manager = BarrierManager(sim)

        def gen():
            yield "wait"

        proc = Process("p", gen(), lambda pr, rq: None)
        proc.start()
        with pytest.raises(ProgramError):
            manager.arrive(0, 0, proc)


class TestContendHooks:
    def test_contention_histogram_sampled(self):
        m = make_machine(4)
        addr = m.alloc_sync_addr = m.alloc_sync(
            __import__("repro").SyncPolicy.INV, home=0)

        def prog(p):
            yield p.contend_begin(addr)
            yield p.think(100)
            yield p.contend_end(addr)

        m.spawn_all(prog)
        m.run()
        hist = m.stats.contention.histogram
        assert sum(hist.values()) == 4
        assert max(hist) == 4  # all four overlapped

    def test_contend_hooks_cost_nothing(self):
        m = make_machine(2)
        addr = m.alloc_data(1)

        def prog(p):
            start = m.now
            yield p.contend_begin(addr)
            yield p.contend_end(addr)
            return m.now - start

        assert run_one(m, 0, prog) == 0
