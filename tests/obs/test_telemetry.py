"""Telemetry heartbeats: deterministic cadence, non-perturbation, JSONL."""

import io
import json

import pytest

from repro import SyncPolicy
from repro.errors import SimulationError
from repro.obs.profile import profiled
from repro.obs.telemetry import (
    DEFAULT_EVERY,
    Heartbeat,
    TelemetryWriter,
    active_session,
    host_sample,
    maybe_attach,
    telemetry_line,
    telemetry_session,
)
from repro.sim.engine import Simulator

from tests.conftest import make_machine


def _contended_counter(machine, turns=8):
    addr = machine.alloc_sync(SyncPolicy.INV, home=1)

    def bump(p):
        for _ in range(turns):
            yield p.fetch_add(addr, 1)

    for pid in range(machine.n_nodes):
        machine.spawn(pid, bump)
    machine.run()
    return (machine.now, machine.mesh.stats.messages,
            machine.sim.events_processed, machine.read_word(addr))


# ----------------------------------------------------------- primitives

def test_host_sample_fields():
    sample = host_sample()
    assert len(sample["gc_counts"]) == 3
    assert sample["gc_collections"] >= 0
    if "rss_kib" in sample:        # absent only off-Unix
        assert sample["rss_kib"] > 0


def test_telemetry_line_is_compact_sorted_json():
    line = telemetry_line({"b": 2, "a": 1})
    assert line == '{"a":1,"b":2}'
    assert json.loads(line) == {"a": 1, "b": 2}


def test_writer_counts_lines():
    sink = io.StringIO()
    writer = TelemetryWriter(sink)
    writer.write({"record": "x"})
    writer.write({"record": "y"})
    assert writer.lines == 2
    assert [json.loads(s)["record"]
            for s in sink.getvalue().splitlines()] == ["x", "y"]


def test_engine_rejects_nonpositive_cadence():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.set_heartbeat(0, lambda now, events, depth: None)


# ------------------------------------------------------------ heartbeat

def test_heartbeat_cadence_is_by_event_count():
    sim = Simulator()
    beats = []
    sim.set_heartbeat(10, lambda now, events, depth:
                      beats.append((now, events, depth)))
    for i in range(35):
        sim.schedule(i, lambda: None)
    sim.run()
    # 35 events, every=10 → beats at cumulative events 10, 20, 30.
    assert [b[1] for b in beats] == [10, 20, 30]
    # Countdown persists across run() calls: 5 events remain banked.
    for i in range(5):
        sim.schedule(100 + i, lambda: None)
    sim.run()
    assert [b[1] for b in beats] == [10, 20, 30, 40]


def test_heartbeat_records_and_bus_events():
    sink = io.StringIO()
    m = make_machine(4)
    progress = []
    m.events.subscribe(progress.append, kinds=("run.progress",))
    hb = Heartbeat(m, every=20, writer=TelemetryWriter(sink))
    _contended_counter(m)
    assert hb.beats > 0
    assert len(progress) == hb.beats
    records = [json.loads(s) for s in sink.getvalue().splitlines()]
    assert len(records) == hb.beats
    for i, r in enumerate(records):
        assert r["record"] == "run.progress"
        assert r["beat"] == i + 1
        assert r["events"] == (i + 1) * 20
        assert r["queue_depth"] >= 0
        assert r["sim_now"] >= 0
        assert r["wall_seconds"] >= 0
        assert len(r["gc_counts"]) == 3
    # Bus events carry the same data, stamped with simulation time.
    assert [e.data["beat"] for e in progress] == [r["beat"] for r in records]
    assert all(e.kind == "run.progress" for e in progress)


def test_heartbeat_beats_are_deterministic_and_nonperturbing():
    def drive(every):
        m = make_machine(4)
        beat_points = []
        if every:
            Heartbeat(m, every=every,
                      writer=None)  # bus-only; nobody subscribed
            m.sim.set_heartbeat(
                every, lambda now, events, depth:
                beat_points.append((now, events)))
        outcome = _contended_counter(m)
        return outcome, beat_points

    plain, _ = drive(0)
    on_a, beats_a = drive(25)
    on_b, beats_b = drive(25)
    assert on_a == plain            # bit-identical results
    assert on_b == plain
    assert beats_a == beats_b       # beat sequence is deterministic
    assert beats_a, "workload too small to beat"


#: Golden (now, events, queue_depth) of every beat of a 16-node contended
#: INV fetch_add counter (one increment per node) at ``set_heartbeat(7)``:
#: an engine change that moves, adds or drops a beat changes this list.
COUNTER_16_BEATS = [
    (0, 7, 16), (0, 14, 16), (6, 21, 16), (13, 28, 16), (28, 35, 15),
    (122, 42, 11), (262, 49, 4), (362, 56, 14), (462, 63, 9), (602, 70, 2),
    (676, 77, 13), (802, 84, 6), (935, 91, 13), (1002, 98, 9),
    (1142, 105, 2), (1220, 112, 11), (1342, 119, 4), (1442, 126, 10),
    (1542, 133, 5), (1659, 140, 9), (1742, 147, 5), (1861, 154, 8),
    (1942, 161, 4), (2042, 168, 7), (2142, 175, 2), (2220, 182, 6),
    (2337, 189, 6), (2402, 196, 2), (2482, 203, 3), (2563, 210, 3),
    (2641, 217, 2), (2704, 224, 2),
]


@pytest.mark.parametrize("profile", [False, True], ids=["plain", "profiled"])
def test_heartbeat_sequence_matches_recorded_beats(profile):
    def drive():
        m = make_machine(16)
        beats = []
        m.sim.set_heartbeat(7, lambda *beat: beats.append(beat))
        return _contended_counter(m, turns=1), beats

    if profile:
        with profiled():
            outcome, beats = drive()
    else:
        outcome, beats = drive()
    assert beats == COUNTER_16_BEATS
    assert outcome[2:] == (230, 16)       # events executed, final count


def test_detach_restores_fast_loop():
    m = make_machine(4)
    hb = Heartbeat(m, every=5, writer=None)
    hb.detach()
    hb.detach()                     # idempotent
    _contended_counter(m)
    assert hb.beats == 0
    assert m.sim._hb_fire is None


# -------------------------------------------------------------- session

def test_session_attaches_heartbeats_to_new_machines():
    sink = io.StringIO()
    assert active_session() is None
    with telemetry_session(every=20, stream=sink):
        assert active_session() is not None
        m = make_machine(4)
        assert m.telemetry is not None
        _contended_counter(m)
    assert active_session() is None
    records = [json.loads(s) for s in sink.getvalue().splitlines()]
    assert records and all(r["record"] == "run.progress" for r in records)
    # Outside the session, machines attach nothing.
    m2 = make_machine(4)
    assert m2.telemetry is None
    assert maybe_attach(m2) is None


def test_session_default_cadence_is_default_every():
    with telemetry_session(stream=io.StringIO()):
        m = make_machine(4)
        assert m.telemetry.every == DEFAULT_EVERY
