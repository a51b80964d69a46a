"""Unit tests for the pluggable sharer-set representations."""

import pytest

from repro.errors import ConfigError
from repro.memory.sharers import (
    CoarseVectorSet,
    LimitedPointerSet,
    SharerSet,
    make_sharer_factory,
)


class TestFullBitVector:
    def test_set_protocol(self):
        s = SharerSet()
        assert not s
        assert len(s) == 0
        s.add(3)
        s.add(10)
        s.add(3)
        assert len(s) == 2
        assert 3 in s and 10 in s and 4 not in s
        assert "x" not in s
        assert s == {3, 10}
        s.discard(3)
        s.discard(99)
        assert s == {10}
        s.clear()
        assert not s and s == set()

    def test_iteration_is_ascending(self):
        s = SharerSet()
        for node in (10, 3, 63, 0):
            s.add(node)
        assert list(s) == [0, 3, 10, 63]

    def test_targets_exclude(self):
        s = SharerSet()
        for node in (1, 5, 9):
            s.add(node)
        assert s.targets(5) == [1, 9]
        assert s.targets(2) == [1, 5, 9]
        assert s.exact_targets(5) == 2
        assert not s.overflowed

    def test_replace(self):
        s = SharerSet()
        s.add(7)
        s.replace([2, 4])
        assert s == {2, 4}
        s.replace([])
        assert not s

    def test_eq_across_representations(self):
        a = SharerSet()
        b = LimitedPointerSet(16, 2)
        for node in (1, 2, 3):
            a.add(node)
            b.add(node)
        assert a == b


class TestLimitedPointer:
    def test_precise_below_capacity(self):
        s = LimitedPointerSet(16, pointers=3)
        for node in (2, 5, 9):
            s.add(node)
        assert not s.overflowed
        assert s.targets(5) == [2, 9]

    def test_broadcast_on_overflow(self):
        s = LimitedPointerSet(8, pointers=2)
        for node in (1, 2, 3):
            s.add(node)
        assert s.overflowed
        # Broadcast: every node except the excluded one.
        assert s.targets(3) == [0, 1, 2, 4, 5, 6, 7]
        # Exact membership is retained for protocol decisions.
        assert s == {1, 2, 3}
        assert s.exact_targets(3) == 2

    def test_overflow_sticky_until_reset(self):
        s = LimitedPointerSet(8, pointers=2)
        for node in (1, 2, 3):
            s.add(node)
        s.discard(1)
        s.discard(2)
        assert s.overflowed  # the hardware no longer knows who holds copies
        assert s.targets(3) == [0, 1, 2, 4, 5, 6, 7]
        s.clear()
        assert not s.overflowed
        s.add(4)
        assert s.targets(0) == [4]

    def test_replace_resets_overflow(self):
        s = LimitedPointerSet(8, pointers=2)
        for node in (1, 2, 3):
            s.add(node)
        s.replace([5])
        assert not s.overflowed
        s.replace([0, 1, 2, 3])
        assert s.overflowed

    def test_validation(self):
        with pytest.raises(ConfigError):
            LimitedPointerSet(0, 2)
        with pytest.raises(ConfigError):
            LimitedPointerSet(8, 0)


class TestCoarseVector:
    def test_region_fanout(self):
        s = CoarseVectorSet(16, region=4)
        s.add(1)
        s.add(9)
        # Regions 0 (nodes 0-3) and 2 (nodes 8-11) are marked.
        assert s.targets(1) == [0, 2, 3, 8, 9, 10, 11]
        assert s.overflowed
        assert s == {1, 9}

    def test_region_one_is_exact(self):
        s = CoarseVectorSet(16, region=1)
        for node in (3, 7):
            s.add(node)
        assert not s.overflowed
        assert s.targets(3) == [7]
        # A one-node region's bit goes with its only node's copy.
        s.discard(7)
        assert not s.overflowed
        assert s.targets(3) == []

    def test_sticky_regions(self):
        s = CoarseVectorSet(16, region=4)
        s.add(1)
        s.discard(1)
        # The region bit stays: another node in region 0 might hold a copy.
        assert s.targets(5) == [0, 1, 2, 3]
        s.clear()
        assert s.targets(5) == []

    def test_last_region_clipped(self):
        s = CoarseVectorSet(10, region=4)
        s.add(9)  # region 2 covers nodes 8..11, but the machine stops at 9
        assert s.targets(0) == [8, 9]

    def test_replace_recomputes_regions(self):
        s = CoarseVectorSet(16, region=4)
        s.add(1)
        s.replace([12])
        assert s.targets(0) == [12, 13, 14, 15]

    def test_validation(self):
        with pytest.raises(ConfigError):
            CoarseVectorSet(0, 4)
        with pytest.raises(ConfigError):
            CoarseVectorSet(8, 0)


class TestFactory:
    def test_kinds(self):
        assert make_sharer_factory("full", 8)().kind == "full"
        assert make_sharer_factory("limited", 8, pointers=2)().kind == "limited"
        assert make_sharer_factory("coarse", 8, region=2)().kind == "coarse"

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            make_sharer_factory("sparse", 8)
