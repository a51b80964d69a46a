"""Shard-aware observability: stitching, sync metrics, live telemetry.

The contract under test (docs/observability.md, "Sharded runs"):

* the stitched cross-shard critical path is a pure function of the
  merged record multiset — byte-identical at every shard count,
  region split, and backend, with shards=1 as the gated reference;
* the coordinator's sync metrics reconcile (busy + blocked ≈ wall);
* observability ships over the forked ``process`` backend and never
  masks a worker crash;
* with observability off, the workers are provably unobserved: results
  are bit-identical, no timing shim or heartbeat is installed, and the
  disabled path stays within the 2% overhead gate.
"""

import json
import random
import time

import pytest

from repro.cli import main as cli_main
from repro.config import small_config
from repro.errors import SimulationError
from repro.harness.shardrun import _ShardWorker, run_shard
from repro.network.partition import make_plan
from repro.obs.events import EVENT_KINDS, EventBus
from repro.obs.profile import ComponentProfiler
from repro.obs.shardobs import (
    ShardObsOptions,
    stitch_graphs,
    stitched_critpath,
)
from repro.sim.engine import Simulator

CONFIG_16 = small_config(n_nodes=16)
SPANS = ShardObsOptions(spans=True)
FULL = ShardObsOptions(spans=True, profile=True, telemetry_every=200)


def critpath_bytes(outcome):
    return json.dumps(outcome.critpath, sort_keys=True).encode()


def outputs(outcome):
    return outcome.results, outcome.metrics


class ListWriter:
    def __init__(self):
        self.records = []

    def write(self, record):
        self.records.append(record)


# ----------------------------------------------------------------------
# Stitching: shard-count- and split-invariant, equal to serial.
# ----------------------------------------------------------------------

def test_stitched_critpath_invariant_across_shard_counts():
    reference = run_shard(CONFIG_16, shards=1, turns=3, obs=SPANS)
    ref = critpath_bytes(reference)
    assert reference.critpath["txns"] > 0
    assert reference.shard["stitch"]["orphans"] == 0
    for shards in (2, 3, 4):
        outcome = run_shard(CONFIG_16, shards=shards, turns=3, obs=SPANS)
        assert critpath_bytes(outcome) == ref, f"shards={shards}"


def test_stitched_critpath_invariant_across_uneven_cuts():
    reference = run_shard(CONFIG_16, shards=1, turns=3, obs=SPANS)
    ref = critpath_bytes(reference)
    for cuts in ((1,), (5, 9), (2, 3, 15)):
        outcome = run_shard(CONFIG_16, shards=len(cuts) + 1, turns=3,
                            cuts=cuts, obs=SPANS)
        assert critpath_bytes(outcome) == ref, f"cuts={cuts}"


def test_golden_8x8_critpath_matches_serial_cycle_for_cycle():
    """The acceptance gate: 64-node golden contention, shards 1/2/4."""
    config = small_config(n_nodes=64)
    reference = run_shard(config, workload="golden_contention", shards=1,
                          turns=2, obs=SPANS)
    assert reference.results["match"]
    assert reference.critpath["txns"] > 0
    ref = critpath_bytes(reference)
    for shards in (2, 4):
        outcome = run_shard(config, workload="golden_contention",
                            shards=shards, turns=2, obs=SPANS)
        assert outcome.results["match"]
        assert critpath_bytes(outcome) == ref, f"shards={shards}"


def test_stitched_graphs_are_causally_consistent():
    outcome = run_shard(CONFIG_16, shards=4, turns=3, obs=SPANS)
    assert outcome.graphs
    for graph in outcome.graphs:
        assert graph.check() == [], graph.check()
        assert graph.critical_cycles() == graph.duration
    stats = outcome.shard["stitch"]
    assert stats["orphans"] == 0
    assert stats["open"] == 0
    assert stats["txns"] == len(outcome.graphs)


def test_stitching_is_a_pure_function_of_the_record_multiset():
    # Shuffle the merged records and re-split them arbitrarily: the
    # stitched aggregate must not notice.
    plan = make_plan(CONFIG_16, 1, None)
    worker = _ShardWorker(CONFIG_16, plan.regions, 0, "golden_contention",
                          2, False, SPANS)
    worker.machine.sim.run()
    records = list(worker.finish()["records"])
    reference, _graphs, _stats = stitched_critpath([records])
    rng = random.Random(1234)
    for trial in range(3):
        shuffled = list(records)
        rng.shuffle(shuffled)
        split = rng.randrange(len(shuffled))
        snapshot, _graphs, _stats = stitched_critpath(
            [shuffled[:split], shuffled[split:]]
        )
        assert snapshot == reference, f"trial={trial}"


def test_stitch_empty_records():
    snapshot, graphs, stats = stitched_critpath([[], []])
    assert graphs == [] and snapshot["txns"] == 0
    assert stats["records"] == 0
    assert stitch_graphs([])[0] == []


# ----------------------------------------------------------------------
# Sync metrics: shape and reconciliation.
# ----------------------------------------------------------------------

def test_sync_metrics_shape_and_traffic_matrix():
    outcome = run_shard(CONFIG_16, shards=2, turns=3)
    sync = outcome.shard["sync"]
    assert sync["shards"] == 2 and sync["backend"] == "inline"
    assert sync["windows"] == outcome.info["windows"]
    assert sync["lookahead_utilization"] > 0
    assert sync["max_outbox_depth"] >= 1
    traffic = sync["traffic_matrix"]
    assert traffic[0][0] == 0 and traffic[1][1] == 0
    assert (sum(sum(row) for row in traffic)
            == outcome.info["boundary_messages"])
    assert [row["nodes"] for row in sync["per_shard"]] == [8, 8]
    assert sum(row["events"] for row in sync["per_shard"]) \
        == outcome.results["events"]


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_busy_plus_blocked_reconciles_with_wall(backend):
    # Each worker's wall split must add up to the coordinator's wall
    # within the 5% reconciliation bound (IPC skew on `process`).
    outcome = run_shard(CONFIG_16, shards=2, turns=3, backend=backend)
    sync = outcome.shard["sync"]
    wall = sync["wall_seconds"]
    assert wall > 0
    bound = max(wall * 0.05, 5e-4)
    for row in sync["per_shard"]:
        assert row["busy_seconds"] > 0
        total = row["busy_seconds"] + row["blocked_seconds"]
        assert abs(total - wall) <= bound, (row, wall)


# ----------------------------------------------------------------------
# Transport over the forked process backend.
# ----------------------------------------------------------------------

def test_process_backend_ships_spans_profile_and_beats():
    inline = run_shard(CONFIG_16, shards=2, turns=3, obs=FULL)
    process = run_shard(CONFIG_16, shards=2, turns=3, backend="process",
                        obs=FULL)
    assert outputs(process) == outputs(inline)
    assert critpath_bytes(process) == critpath_bytes(inline)
    profile = process.shard["profile"]
    assert profile["kinds"] and profile["events"] > 0
    telemetry = process.shard["telemetry"]
    assert telemetry["beats"] == sum(telemetry["per_shard"])
    assert all(n > 0 for n in telemetry["per_shard"])


def test_worker_beats_are_shipped_to_the_coordinator_writer():
    writer = ListWriter()
    outcome = run_shard(CONFIG_16, shards=2, turns=3, backend="process",
                        obs=FULL, telemetry=writer)
    beats = [r for r in writer.records if r["record"] == "run.progress"]
    assert len(beats) == outcome.shard["telemetry"]["beats"]
    assert {b["shard"] for b in beats} == {0, 1}


def test_worker_crash_mid_window_with_obs_still_propagates(monkeypatch):
    # Observability payloads ride the same pipes as crash reports; a
    # worker dying mid-window with full obs on must still surface as a
    # SimulationError carrying the traceback, not hang or mask it.
    from repro.harness import shardwork

    workload = shardwork.SHARD_WORKLOADS["golden_contention"]

    def crashing_program(proc, ctx, turns):
        yield from workload.program(proc, ctx, 1)
        raise RuntimeError("boom mid-window")

    monkeypatch.setitem(
        shardwork.SHARD_WORKLOADS,
        "crashing",
        shardwork.ShardWorkload(
            name="crashing",
            description="does real work, then dies inside the sim loop",
            setup=workload.setup,
            program=crashing_program,
        ),
    )
    with pytest.raises(SimulationError, match="boom mid-window") as info:
        run_shard(CONFIG_16, workload="crashing", shards=2, turns=2,
                  backend="process", obs=FULL)
    assert "Traceback" in str(info.value)


# ----------------------------------------------------------------------
# Live progress: one shard.progress record per window.
# ----------------------------------------------------------------------

def test_shard_progress_per_window_on_bus_and_writer():
    assert "shard.progress" in EVENT_KINDS
    writer = ListWriter()
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append, kinds=("shard.progress",))
    outcome = run_shard(CONFIG_16, shards=2, turns=2, telemetry=writer,
                        events=bus)
    progress = [r for r in writer.records
                if r["record"] == "shard.progress"]
    assert len(progress) == outcome.info["windows"]
    assert len(seen) == outcome.info["windows"]
    assert [r["window"] for r in progress] \
        == list(range(1, outcome.info["windows"] + 1))
    # Deterministic fields agree between the two live channels.
    assert [e.data["bound"] for e in seen] \
        == [r["bound"] for r in progress]
    final = progress[-1]
    assert sum(final["events"]) <= outcome.results["events"]
    assert len(final["events_per_second"]) == 2


def test_no_live_channel_means_no_emission():
    bus = EventBus()          # no subscribers -> not live
    outcome = run_shard(CONFIG_16, shards=2, turns=2, events=bus)
    assert bus.emitted == 0
    assert outcome.shard is not None


# ----------------------------------------------------------------------
# Provably inert when disabled.
# ----------------------------------------------------------------------

def test_disabled_obs_outputs_bit_identical_to_unobserved():
    plain = run_shard(CONFIG_16, shards=2, turns=3)
    disabled = run_shard(CONFIG_16, shards=2, turns=3,
                         obs=ShardObsOptions())
    enabled = run_shard(CONFIG_16, shards=2, turns=3, obs=FULL)
    assert outputs(disabled) == outputs(plain)
    assert outputs(enabled) == outputs(plain)
    assert disabled.critpath is None and disabled.shard.get("stitch") is None


def test_disabled_obs_never_enters_observed_dispatch_loop(monkeypatch):
    """Workers without obs install no timing shim and no heartbeat, and
    never feed a profiler."""
    def boom(*args, **kwargs):
        raise AssertionError("worker observed without obs")

    monkeypatch.setattr(Simulator, "_time_callbacks", boom)
    monkeypatch.setattr(Simulator, "set_heartbeat", boom)
    monkeypatch.setattr(ComponentProfiler, "record", boom)
    outcome = run_shard(CONFIG_16, shards=2, turns=2)
    assert outcome.results["match"]
    # Span collection subscribes to the bus but must not observe the
    # event loop either: emission sites are bus-guarded.
    outcome = run_shard(CONFIG_16, shards=2, turns=2, obs=SPANS)
    assert outcome.results["match"]


def test_disabled_overhead_within_two_percent():
    """PR 6's gate, extended to the sharded coordinator: a run with
    observability disabled may cost at most 2% wall over one with the
    plumbing absent entirely.  Interleaved best-of-N with retries."""
    def timed(obs):
        t0 = time.perf_counter()
        run_shard(CONFIG_16, shards=2, turns=2, obs=obs)
        return time.perf_counter() - t0

    timed(None)                         # warm-up
    for _attempt in range(3):
        baseline, gated = [], []
        for _ in range(7):
            baseline.append(timed(None))
            gated.append(timed(ShardObsOptions()))
        if min(gated) <= min(baseline) * 1.02:
            return
    raise AssertionError(
        f"disabled shard-obs overhead "
        f"{100.0 * (min(gated) / min(baseline) - 1.0):.2f}% exceeds the "
        f"2% gate (baseline {min(baseline):.4f}s, gated {min(gated):.4f}s)"
    )


# ----------------------------------------------------------------------
# CLI integration.
# ----------------------------------------------------------------------

def test_cli_shard_spans_profile_telemetry_progress(tmp_path, capsys):
    out_path = tmp_path / "shard.json"
    tel_path = tmp_path / "beats.jsonl"
    lines = []
    code = cli_main(
        ["--nodes", "16", "--turns", "2", "shard", "--shards", "2",
         "--backend", "inline", "--spans", "--profile",
         "--telemetry", str(tel_path), "--telemetry-every", "200",
         "--progress", "--progress-format", "jsonl",
         "--json", str(out_path)],
        out=lines.append,
    )
    assert code == 0
    text = "\n".join(lines)
    assert "stitched:" in text and "sync:" in text
    doc = json.loads(out_path.read_text())
    assert doc["critpath"]["txns"] > 0
    assert doc["profile"]["kinds"]
    assert doc["shard"]["sync"]["windows"] == doc["perf"]["windows"]
    records = [json.loads(line)
               for line in tel_path.read_text().splitlines()]
    by_kind = {}
    for record in records:
        by_kind.setdefault(record["record"], []).append(record)
    assert len(by_kind["shard.progress"]) == doc["perf"]["windows"]
    assert by_kind["run.progress"]          # shipped worker beats
    err = capsys.readouterr().err
    progress_lines = [json.loads(line) for line in err.splitlines()
                      if '"shard.progress"' in line]
    assert len(progress_lines) == doc["perf"]["windows"]
    assert "host-time profile" in err       # --profile table on stderr


def test_cli_shard_critpath_sections_match_across_shard_counts(tmp_path):
    docs = []
    for shards in (1, 2):
        out_path = tmp_path / f"s{shards}.json"
        code = cli_main(
            ["--nodes", "16", "--turns", "2", "shard",
             "--shards", str(shards), "--backend", "inline", "--spans",
             "--json", str(out_path)],
            out=lambda _line: None,
        )
        assert code == 0
        docs.append(json.loads(out_path.read_text()))
    assert docs[0]["critpath"] == docs[1]["critpath"]
    assert docs[0]["critpath"]["txns"] > 0
