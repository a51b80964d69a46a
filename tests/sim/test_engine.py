"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0


def test_schedule_and_run_in_order():
    sim = Simulator()
    log = []
    sim.schedule(10, log.append, "b")
    sim.schedule(5, log.append, "a")
    sim.schedule(20, log.append, "c")
    sim.run()
    assert log == ["a", "b", "c"]
    assert sim.now == 20


def test_ties_break_by_insertion_order():
    sim = Simulator()
    log = []
    for tag in "abcd":
        sim.schedule(7, log.append, tag)
    sim.run()
    assert log == list("abcd")


def test_zero_delay_events_run_same_cycle():
    sim = Simulator()
    log = []

    def first():
        log.append(("first", sim.now))
        sim.schedule(0, second)

    def second():
        log.append(("second", sim.now))

    sim.schedule(3, first)
    sim.run()
    assert log == [("first", 3), ("second", 3)]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    log = []
    sim.schedule(5, log.append, "early")
    sim.schedule(50, log.append, "late")
    sim.run(until=10)
    assert log == ["early"]
    assert sim.now == 10
    sim.run()
    assert log == ["early", "late"]


def test_max_events_detects_livelock():
    sim = Simulator()

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_events_processed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_pending_count():
    sim = Simulator()
    sim.schedule(1, lambda: None)
    sim.schedule(2, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    log = []

    def outer():
        sim.schedule(5, log.append, sim.now)

    sim.schedule(2, outer)
    sim.run()
    assert log == [2]
    assert sim.now == 7


def test_until_advances_clock_when_queue_drains_early():
    # Regression: the clock must advance to `until` even when the last
    # event fires well before it (the seed returned the last event time).
    sim = Simulator()
    sim.schedule(3, lambda: None)
    assert sim.run(until=100) == 100
    assert sim.now == 100


def test_until_advances_clock_on_empty_queue():
    sim = Simulator()
    assert sim.run(until=42) == 42
    assert sim.now == 42


def test_far_event_scheduling_near_work_behind_the_scan():
    # Regression for the calendar front end: the bucket scan advances a
    # cursor toward the first non-empty bucket; when a far (heap) event
    # fires earlier than that bucket, events it schedules may land in
    # buckets *behind* the scan position and must still execute.
    sim = Simulator()
    order = []

    def far():
        order.append("far")
        sim.schedule(2, lambda: order.append("near-behind"))

    def stage():
        # From t=50 this lands at t=305: ahead of the far event at 300.
        sim.schedule(255, lambda: order.append("near-ahead"))

    sim.schedule(300, far)
    sim.schedule(50, stage)
    sim.run(max_events=100)
    assert order == ["far", "near-behind", "near-ahead"]
    assert sim.now == 305


# ----------------------------------------------------------------------
# Priority events (kept for the benchmark tracer, which patches them).
# ----------------------------------------------------------------------

def test_priority_runs_before_ordinary_at_same_timestamp():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: order.append("ordinary-1"))
    sim.schedule_priority(5, lambda: order.append("priority"))
    sim.schedule(5, lambda: order.append("ordinary-2"))
    sim.run()
    assert order == ["priority", "ordinary-1", "ordinary-2"]


def test_priority_before_ordinary_for_far_events():
    # Far events (delay >= 256) go through the heap, not the calendar
    # buckets; the negative seq must still sort them first.
    sim = Simulator()
    order = []
    sim.schedule(1000, lambda: order.append("ordinary"))
    sim.schedule_priority(1000, lambda: order.append("priority"))
    sim.run()
    assert order == ["priority", "ordinary"]


def test_priority_events_preserve_timestamp_order():
    sim = Simulator()
    order = []
    sim.schedule_priority(7, lambda: order.append(7))
    sim.schedule_priority(3, lambda: order.append(3))
    sim.schedule(5, lambda: order.append(5))
    sim.run()
    assert order == [3, 5, 7]


def test_same_cycle_priority_rejected_while_running():
    sim = Simulator()

    def handler():
        with pytest.raises(SimulationError, match="strictly future"):
            sim.schedule_priority(0, lambda: None)

    sim.schedule(1, handler)
    sim.run()


def test_priority_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError, match="strictly future"):
        sim.schedule_priority(-1, lambda: None)


def test_zero_delay_priority_allowed_before_run():
    # Outside the event loop the current bucket is not being drained,
    # so a same-cycle priority event is safe.
    sim = Simulator()
    order = []
    sim.schedule(0, lambda: order.append("ordinary"))
    sim.schedule_priority(0, lambda: order.append("priority"))
    sim.run()
    assert order == ["priority", "ordinary"]


# --------------------------------------------------- heartbeat chunking

def _churn(sim, log, events=400):
    """Self-rescheduling chains mixing same-cycle, near and far (heap)
    delays, so chunk boundaries fall mid-bucket and next to heap-first
    events."""
    left = [events]
    delays = (0, 1, 3, 300, 2, 0, 511, 5)

    def tick(chain):
        log.append((sim.now, chain))
        if left[0]:
            left[0] -= 1
            sim.schedule(delays[left[0] & 7], tick, chain)

    for chain in range(6):
        sim.schedule(chain & 1, tick, chain)


def test_heartbeat_due_on_livelock_event_is_not_fired():
    # every=4, max_events=11: the beat due on event 12 is the event that
    # trips the livelock check, so only the earlier beats fire.
    sim = Simulator()
    beats = []
    sim.set_heartbeat(4, lambda now, events, depth: beats.append(events))

    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    with pytest.raises(SimulationError, match="max_events=11"):
        sim.run(max_events=11)
    assert beats == [4, 8]
    assert sim.events_processed == 12


def test_windowed_runs_beat_on_same_events_as_one_run():
    # A caller may step a simulator with run(until=...) windows; the
    # heartbeat count carries across the calls, so beats land on the
    # same events, with the same (now, events, depth), as one run.
    def drive(window):
        sim = Simulator()
        log, beats = [], []
        sim.set_heartbeat(7, lambda *beat: beats.append(beat))
        _churn(sim, log)
        if window is None:
            sim.run()
        else:
            while sim.pending():
                sim.run(until=sim.now + window)
        return log, beats, sim.events_processed

    whole = drive(None)
    assert len(whole[1]) == whole[2] // 7
    for window in (1, 16, 300):
        assert drive(window) == whole
