"""Unit tests for the queued memory module."""

import pytest

from repro.config import SimConfig
from repro.memory.module import MemoryModule
from repro.sim.engine import Simulator


def build():
    sim = Simulator()
    config = SimConfig()
    return sim, MemoryModule(sim, 0, config), config


def test_blocks_start_zeroed():
    sim, mem, config = build()
    assert mem.read_block(5) == [0] * config.machine.words_per_block
    assert mem.read_word(5, 3) == 0


def test_word_write_and_read():
    sim, mem, config = build()
    mem.write_word(5, 3, 77)
    assert mem.read_word(5, 3) == 77
    assert mem.read_block(5)[3] == 77


def test_block_write_and_read():
    sim, mem, config = build()
    words = list(range(config.machine.words_per_block))
    mem.write_block(9, words)
    assert mem.read_block(9) == words


def test_block_write_size_checked():
    sim, mem, config = build()
    with pytest.raises(ValueError):
        mem.write_block(9, [1, 2, 3])


def test_read_block_returns_copy():
    sim, mem, config = build()
    copy = mem.read_block(2)
    copy[0] = 99
    assert mem.read_word(2, 0) == 0


def test_service_takes_memory_service_cycles():
    sim, mem, config = build()
    times = []
    mem.service(lambda: times.append(sim.now))
    sim.run()
    assert times == [config.timing.memory_service]


def test_concurrent_requests_queue_fifo():
    sim, mem, config = build()
    times = []
    mem.service(times.append, "a")
    mem.service(times.append, "b")
    sim.run()
    assert times == ["a", "b"]
    assert sim.now == 2 * config.timing.memory_service
    assert mem.accesses == 2
    assert mem.total_queue_wait == config.timing.memory_service


def test_custom_service_time():
    sim, mem, config = build()
    times = []
    mem.service(lambda: times.append(sim.now), service_time=5)
    sim.run()
    assert times == [5]


def test_queue_drains_between_bursts():
    sim, mem, config = build()
    mem.service(lambda: None)
    sim.run()
    start = sim.now
    mem.service(lambda: None)
    sim.run()
    assert sim.now == start + config.timing.memory_service
    assert mem.total_queue_wait == 0
