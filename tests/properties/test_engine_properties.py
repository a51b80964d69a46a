"""Property-based tests of the event engine's ordering rule.

Random programs schedule events with ``schedule``/``at`` before the run
and from inside callbacks (same-cycle, short and long delays, and
``at(now)``).  Every execution must equal a reference model that keeps
the pending events in a plain list and always runs the one with the
smallest (time, insertion index), and it must not change when the same
program runs in ``run(until=now + w)`` windows.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

DELAYS = (0, 1, 2, 5, 255, 256, 300)

#: ("schedule", d) calls schedule(d); ("at", d) calls at(now + d), so
#: ("at", 0) is at(now).
child_st = st.tuples(st.sampled_from(("schedule", "at")),
                     st.sampled_from(DELAYS))
#: Before the run the clock reads 0, so both kinds mean time d;
#: ("priority", d) calls schedule_priority(d).
initial_st = st.tuples(st.sampled_from(("schedule", "at", "priority")),
                       st.sampled_from(DELAYS + (1000,)))
program_st = st.fixed_dictionaries({
    "initial": st.lists(initial_st, min_size=1, max_size=6),
    # Event i spawns children[i % len(children)], until `cap` events
    # have been scheduled.
    "children": st.lists(st.lists(child_st, max_size=3), min_size=1,
                         max_size=12),
    "cap": st.integers(min_value=1, max_value=60),
})


def reference_order(program):
    """(time, event) in the order the ordering rule prescribes.

    A priority event's key is its negative, decreasing sequence number,
    so it precedes every ordinary event of its cycle.
    """
    children, cap = program["children"], program["cap"]
    pending = []
    count = 0
    priorities = 0
    for kind, value in program["initial"]:
        if kind == "priority":
            priorities += 1
            pending.append((value, -priorities, count))
        else:
            pending.append((value, count, count))
        count += 1
    order = []
    while pending:
        entry = min(pending)
        pending.remove(entry)
        time, _key, event = entry
        order.append((time, event))
        for _kind, delay in children[event % len(children)]:
            if count >= cap:
                break
            pending.append((time + delay, count, count))
            count += 1
    return order


def engine_order(program, window=None):
    """Run ``program`` on a Simulator; return (time, event) as executed."""
    children, cap = program["children"], program["cap"]
    sim = Simulator()
    order = []
    count = [0]

    def fire(event):
        order.append((sim.now, event))
        for kind, delay in children[event % len(children)]:
            if count[0] >= cap:
                break
            if kind == "schedule":
                sim.schedule(delay, fire, count[0])
            else:
                sim.at(sim.now + delay, fire, count[0])
            count[0] += 1

    for kind, value in program["initial"]:
        if kind == "schedule":
            sim.schedule(value, fire, count[0])
        elif kind == "at":
            sim.at(value, fire, count[0])
        else:
            sim.schedule_priority(value, fire, count[0])
        count[0] += 1
    if window is None:
        sim.run()
    else:
        while sim.pending():
            sim.run(until=sim.now + window)
    assert sim.pending() == 0
    assert sim.events_processed == len(order)
    return order


@settings(max_examples=200, deadline=None)
@given(program=program_st)
def test_execution_order_matches_reference_model(program):
    assert engine_order(program) == reference_order(program)


@settings(max_examples=100, deadline=None)
@given(program=program_st,
       window=st.sampled_from((1, 2, 3, 5, 255, 256, 257, 1000)))
def test_windowed_runs_execute_in_the_same_order(program, window):
    assert engine_order(program, window=window) == reference_order(program)


@settings(max_examples=100, deadline=None)
@given(program=program_st)
def test_priority_scheduled_before_run_leads_its_cycle(program):
    initial = program["initial"]
    priority = {i for i, (kind, _) in enumerate(initial) if kind == "priority"}
    order = engine_order(program)
    flags_by_cycle = {}
    for time, event in order:
        flags_by_cycle.setdefault(time, []).append(event in priority)
    for time, flags in flags_by_cycle.items():
        # Within a cycle, no priority event follows an ordinary one.
        assert flags == sorted(flags, reverse=True), (time, flags)
