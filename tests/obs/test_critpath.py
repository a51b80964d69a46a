"""Run-level critical-path aggregation."""

from repro import SyncPolicy
from repro.obs.critpath import CritPathAggregator, _percentile
from repro.obs.spans import SPAN_KINDS, SpanBuilder

from tests.conftest import make_machine, run_seq


def _contended_run(n_ops: int = 4):
    m = make_machine(4)
    builder = SpanBuilder(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=0)

    def bump(p):
        yield p.fetch_add(addr, 1)

    for pid in range(n_ops):
        m.spawn(pid % 4, bump)
    m.run()
    return m, builder


def test_aggregation_conserves_cycles():
    """Blame by kind and by component each sum to the total cycles."""
    _, builder = _contended_run()
    agg = CritPathAggregator.from_graphs(builder.completed)
    assert agg.txns == len(builder.remote())
    assert agg.cycles == sum(g.duration for g in builder.remote())
    assert sum(agg.by_kind.values()) == agg.cycles
    assert sum(agg.by_component.values()) == agg.cycles
    assert set(agg.by_kind) <= set(SPAN_KINDS)


def test_local_hits_excluded_by_default():
    m = make_machine(4)
    builder = SpanBuilder(m.events)
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, v):
        yield p.store(addr, v)

    run_seq(m, [(0, put, 1), (0, put, 2)])     # second store is a local hit
    assert [g.local for g in builder.completed] == [False, True]
    assert CritPathAggregator.from_graphs(builder.completed).txns == 1
    both = CritPathAggregator.from_graphs(builder.completed,
                                          include_local=True)
    assert both.txns == 2


def test_worst_list_is_bounded_and_sorted():
    _, builder = _contended_run()
    agg = CritPathAggregator.from_graphs(builder.completed, worst=2)
    worst = agg.worst()
    assert len(worst) == min(2, agg.txns)
    durations = [g.duration for g in worst]
    assert durations == sorted(durations, reverse=True)
    assert durations[0] == max(g.duration for g in builder.remote())


def test_snapshot_shape_and_percentiles():
    _, builder = _contended_run()
    agg = CritPathAggregator.from_graphs(builder.completed)
    snap = agg.snapshot()
    assert snap["txns"] == agg.txns
    assert set(snap) == {"txns", "cycles", "by_kind", "by_component",
                         "keys", "worst"}
    for summary in snap["keys"].values():
        assert summary["p50"] <= summary["p95"] <= summary["max"]
        assert summary["count"] > 0
        assert sum(summary["by_kind"].values()) > 0
    for txn in snap["worst"]:
        assert sum(step["cycles"] for step in txn["path"]) == txn["cycles"]


def test_percentile_is_nearest_rank():
    ordered = [10, 20, 30, 40, 100]
    # Nearest-rank with round-half-even: rank 2 of 5 for p50.
    assert _percentile(ordered, 50) == 20
    assert _percentile(ordered, 95) == 100
    assert _percentile([], 50) == 0


def test_render_names_the_blame():
    _, builder = _contended_run()
    agg = CritPathAggregator.from_graphs(builder.completed)
    text = agg.render()
    assert "blame by hop kind" in text
    assert "blame by component" in text
    # The per-key table: n, mean, p50, p95, max and dominant hop kind.
    lines = text.splitlines()
    header = lines.index(
        "per primitive/policy:  n  mean  p50  p95  max  dominant")
    assert lines[header + 1].startswith("  faa/INV ")
    assert "worst transactions" in text
    assert "faa/INV" in text


def test_render_empty_run():
    text = CritPathAggregator.from_graphs([]).render()
    assert "no remote transactions" in text
