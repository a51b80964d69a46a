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
    with pytest.raises(SimulationError, match="max_events=100"):
        sim.run(max_events=100)
    # The check trips on the first event past the budget.
    assert sim.events_processed == 101


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
    # The event at t=300 schedules work for t=302 while work scheduled
    # earlier already waits at t=305: the later-scheduled but
    # earlier-due event runs first.
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


def test_raising_callback_consumes_its_event_and_keeps_the_rest():
    sim = Simulator()
    log = []

    def boom():
        log.append("boom")
        sim.schedule(0, log.append, "same-cycle")
        raise RuntimeError("boom")

    sim.schedule(1, log.append, "a")
    sim.schedule(2, boom)
    sim.schedule(2, log.append, "b")
    sim.schedule(3, log.append, "c")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert log == ["a", "boom"]
    assert sim.now == 2
    assert sim.pending() == 3
    sim.run()
    assert log == ["a", "boom", "b", "same-cycle", "c"]
    assert sim.pending() == 0


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
    # Hundreds of cycles out, the negative seq still sorts a priority
    # event before an ordinary one of the same cycle.
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

