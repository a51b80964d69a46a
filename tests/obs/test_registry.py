"""Metrics registry: counters, histogram buckets, snapshots, attached
records."""

import random

import pytest

from repro.obs.registry import Counter, Histogram, MetricsRegistry


def test_counter_create_or_return():
    reg = MetricsRegistry()
    a = reg.counter("cache.0.hits")
    b = reg.counter("cache.0.hits")
    assert a is b
    a.inc()
    a.inc(3)
    assert b.value == 4


def test_type_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.histogram("x")


def test_names_prefix_filter():
    reg = MetricsRegistry()
    for name in ("cache.0.hits", "cache.0.misses", "cache.10.hits",
                 "cachet.weird", "net.flits"):
        reg.counter(name)
    assert reg.names("cache.0") == ["cache.0.hits", "cache.0.misses"]
    assert reg.names("cache") == ["cache.0.hits", "cache.0.misses",
                                  "cache.10.hits"]
    assert reg.names() == sorted(
        ["cache.0.hits", "cache.0.misses", "cache.10.hits",
         "cachet.weird", "net.flits"])


def _bucket_of(value):
    """The bucket one observed ``value`` lands in."""
    h = Histogram("h")
    h.observe(value)
    (bucket,) = h.buckets
    return bucket


def test_histogram_bucket_boundaries():
    # Bucket 0 is exactly 0; bucket b covers [2**(b-1), 2**b - 1].
    assert _bucket_of(0) == 0
    assert _bucket_of(1) == 1
    assert _bucket_of(2) == 2
    assert _bucket_of(3) == 2
    assert _bucket_of(4) == 3
    assert _bucket_of(7) == 3
    assert _bucket_of(8) == 4
    assert _bucket_of(1023) == 10
    assert _bucket_of(1024) == 11
    for b in range(1, 12):
        lo, hi = 1 << (b - 1), (1 << b) - 1
        assert _bucket_of(lo) == b
        assert _bucket_of(hi) == b
        assert _bucket_of(lo - 1) == b - 1


def test_histogram_rejects_negative():
    h = Histogram("h")
    with pytest.raises(ValueError):
        h.observe(-1)


def test_histogram_stats():
    h = Histogram("lat")
    for v in (0, 1, 2, 3, 100):
        h.observe(v)
    assert h.count == 5
    assert h.total == 106
    assert h.min == 0
    assert h.max == 100
    assert h.mean == pytest.approx(21.2)
    assert h.buckets == {0: 1, 1: 1, 2: 2, 7: 1}
    snap = h.snapshot()
    assert snap["count"] == 5
    assert sum(snap["buckets"].values()) == 5


def test_iteration_and_len():
    reg = MetricsRegistry()
    reg.counter("b")
    reg.counter("a")
    assert len(reg) == 2
    assert [m.name for m in reg] == ["a", "b"]
    assert isinstance(reg.get("a"), Counter)
    assert reg.get("missing") is None


def _eager(values):
    """Snapshot and mean of ``values``, computed directly: the reference
    for the fold-on-read histogram."""
    buckets = {}
    for v in values:
        buckets[v.bit_length()] = buckets.get(v.bit_length(), 0) + 1
    snap = {"count": len(values), "total": sum(values),
            "min": min(values, default=None), "max": max(values, default=None),
            "buckets": {str(b): n for b, n in sorted(buckets.items())}}
    mean = sum(values) / len(values) if values else 0.0
    return snap, mean


def _assert_matches_eager(reg, hist, values):
    snap, mean = _eager(values)
    assert hist.snapshot() == snap
    assert hist.mean == mean
    assert reg.render() == (
        f"{hist.name:40s} n={len(values)} mean={mean:.1f} "
        f"min={snap['min'] if values else '-'} "
        f"max={snap['max'] if values else '-'}")


def test_histogram_fold_on_read_matches_eager_arithmetic():
    rng = random.Random(5)
    reg = MetricsRegistry()
    hist = reg.histogram("lat")
    seen = []
    _assert_matches_eager(reg, hist, seen)
    for _ in range(6):
        # Observe, write samples directly as the hot paths do, read,
        # and observe again.
        for v in (rng.choice((0, 1, 7, 8, 1000)) for _ in range(20)):
            hist.observe(v)
            seen.append(v)
        for v in (rng.randrange(5000) for _ in range(5)):
            hist.samples[v] = hist.samples.get(v, 0) + 1
            seen.append(v)
        _assert_matches_eager(reg, hist, seen)
        hist.observe(3)
        seen.append(3)
        _assert_matches_eager(reg, hist, seen)
    assert hist.samples == {}


def test_histogram_negative_sample_raises_on_next_read():
    h = Histogram("h")
    for v in (2, 9):
        h.observe(v)
    with pytest.raises(ValueError):
        h.observe(-1)
    h.samples[-3] = 1
    with pytest.raises(ValueError):
        h.snapshot()
    with pytest.raises(ValueError):
        h.count
    # A failed fold changes nothing: once the bad value is gone, the
    # histogram reads as if it had never been written.
    del h.samples[-3]
    assert h.snapshot() == _eager([2, 9])[0]


# ----------------------------------------------------------------------
# Attached records.
# ----------------------------------------------------------------------


class _Record:
    __slots__ = ("hits", "misses", "total_wait")

    def __init__(self, hits, misses, total_wait):
        self.hits = hits
        self.misses = misses
        self.total_wait = total_wait


FIELDS = {"hits": "hits", "misses": "misses", "wait": "total_wait"}


def _attached_and_plain():
    """The same counters twice: attached records, and plain Counters."""
    attached, plain = MetricsRegistry(), MetricsRegistry()
    for reg in (attached, plain):
        reg.counter("net.flits").inc(9)
        reg.histogram("cache.1.wait_hist").observe(6)
    for node, values in ((1, (3, 1, 40)), (10, (0, 7, 2)), (2, (5, 0, 0))):
        attached.attach(f"cache.{node}", _Record(*values), FIELDS)
        for suffix, value in zip(FIELDS, values):
            plain.counter(f"cache.{node}.{suffix}").inc(value)
    return attached, plain


def test_attached_view_reads_and_writes_the_live_attribute():
    reg = MetricsRegistry()
    record = _Record(3, 1, 40)
    reg.attach("cache.0", record, FIELDS)
    view = reg.get("cache.0.wait")
    assert isinstance(view, Counter)
    assert (view.name, view.value) == ("cache.0.wait", 40)
    record.total_wait += 2
    assert view.value == 42
    view.value = 7
    assert record.total_wait == 7
    assert reg.get("cache.0.total_wait") is None
    assert reg.get("cache.0.other") is None


def test_counter_on_attached_name_returns_the_view():
    reg = MetricsRegistry()
    record = _Record(3, 1, 40)
    reg.attach("cache.0", record, FIELDS)
    view = reg.counter("cache.0.hits")
    assert view is reg.get("cache.0.hits") is reg.counter("cache.0.hits")
    view.inc()
    view.inc(4)
    assert record.hits == 8
    assert reg.snapshot("cache.0.hits") == {"cache.0.hits": 8}
    assert len(reg) == 3


def test_attached_name_type_mismatch_and_double_attach_rejected():
    reg = MetricsRegistry()
    reg.attach("cache.0", _Record(0, 0, 0), FIELDS)
    with pytest.raises(TypeError):
        reg.histogram("cache.0.hits")
    with pytest.raises(ValueError):
        reg.attach("cache.0", _Record(0, 0, 0), FIELDS)
    # Other names under an attached prefix are ordinary metrics.
    assert isinstance(reg.histogram("cache.0.wait_hist"), Histogram)


def test_attached_registry_reads_like_a_plain_one():
    attached, plain = _attached_and_plain()
    assert attached.names() == plain.names()
    assert attached.names("cache.1") == plain.names("cache.1") == [
        "cache.1.hits", "cache.1.misses", "cache.1.wait", "cache.1.wait_hist"]
    assert len(attached) == len(plain) == 11
    assert ([(m.name, m.snapshot()) for m in attached]
            == [(m.name, m.snapshot()) for m in plain])
    assert attached.snapshot() == plain.snapshot()
    assert list(attached.snapshot()) == list(plain.snapshot())
    assert attached.snapshot("cache.10") == plain.snapshot("cache.10")
    assert attached.render() == plain.render()
