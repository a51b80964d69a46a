"""Unit tests for the set-associative cache array."""

from repro.cache.cache import Cache
from repro.cache.line import LineState
from repro.config import MachineConfig


def build(sets=4, assoc=2):
    return Cache(MachineConfig(cache_sets=sets, cache_assoc=assoc))


def data(v=0):
    return [v] * MachineConfig().words_per_block


def test_miss_on_empty_cache():
    cache = build()
    assert cache.lookup(3) is None


def test_install_then_hit():
    cache = build()
    cache.install(3, LineState.SHARED, data(7))
    line = cache.lookup(3)
    assert line is not None
    assert line.state is LineState.SHARED
    assert line.read_word(0) == 7


def test_reinstall_updates_in_place():
    cache = build()
    cache.install(3, LineState.SHARED, data(1))
    victim = cache.install(3, LineState.EXCLUSIVE, data(2), dirty=True)
    assert victim is None
    line = cache.lookup(3)
    assert line.state is LineState.EXCLUSIVE
    assert line.dirty
    assert line.read_word(0) == 2


def test_lru_eviction_within_set():
    cache = build(sets=1, assoc=2)
    cache.install(0, LineState.SHARED, data(0))
    cache.install(1, LineState.SHARED, data(1))
    cache.lookup(0)  # touch 0, making 1 the LRU
    victim = cache.install(2, LineState.SHARED, data(2))
    assert victim is not None
    assert victim.block == 1
    assert cache.lookup(0) is not None
    assert cache.lookup(1) is None


def test_eviction_returns_victim_payload():
    cache = build(sets=1, assoc=1)
    cache.install(0, LineState.EXCLUSIVE, data(9), dirty=True)
    victim = cache.install(1, LineState.SHARED, data(1))
    assert victim.block == 0
    assert victim.state is LineState.EXCLUSIVE
    assert victim.dirty
    assert victim.data == data(9)


def test_blocks_map_to_sets_by_modulo():
    cache = build(sets=4, assoc=1)
    cache.install(0, LineState.SHARED, data())
    cache.install(1, LineState.SHARED, data())  # different set: no eviction
    assert cache.lookup(0) is not None
    assert cache.lookup(1) is not None
    victim = cache.install(4, LineState.SHARED, data())  # same set as 0
    assert victim.block == 0


def test_drop_removes_silently():
    cache = build()
    cache.install(3, LineState.SHARED, data())
    cache.drop(3)
    assert cache.lookup(3) is None


def test_lookup_without_touch_keeps_lru_order():
    cache = build(sets=1, assoc=2)
    cache.install(0, LineState.SHARED, data())
    cache.install(1, LineState.SHARED, data())
    cache.lookup(0, touch=False)  # peek: 0 stays LRU
    victim = cache.install(2, LineState.SHARED, data())
    assert victim.block == 0


def test_stats_count_evictions():
    cache = build(sets=1, assoc=1)
    cache.install(0, LineState.SHARED, data())
    cache.install(1, LineState.SHARED, data())
    assert cache.evictions == 1


def test_valid_blocks_listing():
    cache = build()
    cache.install(5, LineState.SHARED, data())
    cache.install(2, LineState.EXCLUSIVE, data())
    assert cache.valid_blocks() == [2, 5]


def test_invalidated_line_is_a_miss():
    cache = build()
    cache.install(3, LineState.SHARED, data())
    cache.lookup(3).invalidate()
    assert cache.lookup(3) is None
