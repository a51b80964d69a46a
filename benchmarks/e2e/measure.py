"""Measured passes over one workload, run inside its own subprocess.

A pass runs every point of the workload once, serially, with an untimed
``gc.collect()`` before each point.  The untraced passes give the
end-to-end metrics; one traced pass afterwards gives the per-layer ones.
Host timings are per-point medians over the passes, summed over the
pass.  Counts come from the machines' registries (and, for atomic
attempts, from the traced pass) and are deterministic.

Host speed on a shared machine drifts by ±10% and more within seconds:
other tenants slow execution itself, so CPU time drifts with wall time.
Between points of the untraced passes the measuring code therefore times
a fixed pure-Python kernel (:func:`probe_kernel`), and scales each
point's times by (``PROBE_REF_NS`` / the median probe time around the
point) ** ``PROBE_SENSITIVITY``: host seconds at the speed the
reference was taken at.  The kernel is this file's own code, so a
change to the simulator cannot move it.

Every point records a sim digest: end cycles, events, non-local
messages, flits and final values.  A point fails if it raises, fails its
functional check, or its digest differs between passes, between the
untraced and the traced pass, or (seed 0, full size) from
``golden.json``.  Failures are collected by point label; they never
abort the pass.

Run as ``python -m benchmarks.e2e.measure '<job json>'``; the last line
of standard output is the result as JSON.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from .tracer import LAYERS, Tracer
from .workloads import Point, make_points

__all__ = ["PointRecord", "SpeedProbe", "probe_kernel", "run_pass",
           "measure_workload", "GOLDEN_PATH"]

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"
#: Per-node registry families, summed machine-wide: "<family>.<node>.<name>".
_FAMILIES = ("ctrl", "cache", "home", "mem")
#: Median time of :func:`probe_kernel` on the reference host (2-vCPU
#: shared x86-64, Python 3.11, quiet period).  Changing it rescales every
#: end-to-end time, so it is fixed for the life of the benchmark.
PROBE_REF_NS = 10_000_000
#: The probe runs between points once this much time has passed since
#: its last run: about four 10 ms samples a second, ≈4% of a pass.
PROBE_EVERY_NS = 250_000_000
#: A point's host speed is the median of the probes that started
#: within this long before it started or after it ended.  One 10 ms
#: sample is noisy; a wider window blurs the host's swings.
PROBE_WINDOW_NS = 1_000_000_000
#: How closely the simulator's host time follows the probe's: a point's
#: time is multiplied by (PROBE_REF_NS / probe time) ** this.  Under
#: load the simulator slows less than the probe does; regressing one on
#: the other gives slopes of 0.56-0.74, pulled low by the probe's own
#: noise.  Over logged ten-run sets of all four workloads, 0.8 gave the
#: smallest worst-case spread of ``wall_s`` (3.1%, against 7.1% at 1.0).
PROBE_SENSITIVITY = 0.8


def probe_kernel(steps: int = 17_000) -> int:
    """A fixed event loop in the simulator's style; returns its checksum.

    Heap-ordered events resume generator processes that update a dict,
    the same interpreter work (heap operations, generator sends, dict
    updates) that dominates a simulation, so both slow down together
    when the host does.
    """
    heap = [(i, i) for i in range(64)]
    heapq.heapify(heap)
    state: dict[int, int] = {}

    def process(key: int):
        while True:
            state[key] = state.get(key, 0) + (yield)

    procs = [process(key) for key in range(64)]
    for proc in procs:
        next(proc)
    for _ in range(steps):
        when, key = heapq.heappop(heap)
        procs[key].send(when & 3)
        heapq.heappush(heap, (when + (key * 7 + state[key]) % 13 + 1, key))
    return sum(state.values())


@dataclass
class PointRecord:
    """One successful run of one point."""

    wall_ns: int
    #: (config, ns) of each machine the point built.
    builds: list[tuple[Any, int]]
    useful: int
    counts: dict[str, int]
    digest: list
    #: ``perf_counter_ns`` when the point started.
    start_ns: int


def registry_counts(machine: Any) -> dict[str, int]:
    """Machine-wide sums of the registry counters the metrics use."""
    counts: dict[str, int] = {}
    for metric in machine.registry:
        value = getattr(metric, "value", None)
        if not isinstance(value, int):
            continue
        parts = metric.name.split(".")
        if parts[0] in _FAMILIES and len(parts) == 3:
            key = f"{parts[0]}.{parts[2]}"
        elif parts[0] in ("net", "sim"):
            key = metric.name
        else:
            continue
        counts[key] = counts.get(key, 0) + value
    return counts


class SpeedProbe:
    """Times :func:`probe_kernel` between points, a few times a second."""

    def __init__(self) -> None:
        #: (start_ns, duration_ns) of every run of the kernel.
        self.samples: list[tuple[int, int]] = []

    def run_if_due(self) -> None:
        start = time.perf_counter_ns()
        if self.samples and start - self.samples[-1][0] < PROBE_EVERY_NS:
            return
        probe_kernel()
        self.samples.append((start, time.perf_counter_ns() - start))

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor taking host times measured between ``start_ns`` and
        ``end_ns`` to the reference speed."""
        def first(t: int) -> int:
            return bisect.bisect_left(self.samples, t, key=lambda s: s[0])
        # A probe ran at most PROBE_EVERY_NS before every probed point,
        # so the window is never empty.
        window = self.samples[first(start_ns - PROBE_WINDOW_NS):
                              first(end_ns + PROBE_WINDOW_NS)]
        ratio = PROBE_REF_NS / statistics.median(ns for _, ns in window)
        return ratio ** PROBE_SENSITIVITY


def run_pass(points: Sequence[Point], tracer: Tracer, record_first: bool = False,
             probe: Optional[SpeedProbe] = None
             ) -> dict[str, Union[PointRecord, str]]:
    """Run every point once under the installed ``tracer``.

    Returns a record per point label, or the reason the point failed.
    ``probe``, if given, runs between points (outside their timing).
    """
    out: dict[str, Union[PointRecord, str]] = {}
    for index, point in enumerate(points):
        gc.collect()
        if probe is not None:
            probe.run_if_due()
        tracer.begin_point(index, record_first and index == 0)
        built = len(tracer.builds)
        start = time.perf_counter_ns()
        try:
            result = point.run()
        except Exception as exc:  # a failing point is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out[point.label] = f"{type(exc).__name__}: {exc}".splitlines()[0]
            continue
        finally:
            tracer.begin_point(-1, False)
        wall_ns = time.perf_counter_ns() - start
        counts = registry_counts(result.machine)
        digest = [result.cycles, counts.get("sim.events_processed", 0),
                  counts.get("net.messages", 0), counts.get("net.flits", 0),
                  result.final]
        out[point.label] = PointRecord(wall_ns, tracer.builds[built:],
                                       result.useful, counts, digest, start)
    return out


def measure_workload(workload: str, seed: int = 0, seconds: float = 30.0,
                     trace: Optional[int] = None, smoke: bool = False,
                     out_dir: Optional[pathlib.Path] = None,
                     points: Optional[Sequence[Point]] = None) -> dict:
    """Measure one workload; return metrics, digests and failures.

    Untraced passes repeat while the next one still fits in ``seconds``.
    ``trace`` 0 reports the end-to-end metrics only and runs no traced
    pass (but at least two untraced ones, so digests can be compared);
    1 reports the per-layer metrics only, from one untraced and one
    traced pass; ``None`` reports both.  ``points`` replaces the
    workload's point list (the self-test injects failing points this way).
    """
    if points is None:
        points = make_points(workload, seed, smoke)
    passes: list[dict[str, Union[PointRecord, str]]] = []
    probe = SpeedProbe()
    with Tracer(full=False) as setup:
        started = time.perf_counter()
        while True:
            passes.append(run_pass(points, setup, probe=probe))
            if len(passes) == 1:
                # Peak RSS of one pass: later passes add little, and how
                # many fit in ``seconds`` depends on the host's speed.
                rss_mib = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if trace == 1:
                break
            elapsed = time.perf_counter() - started
            if (len(passes) >= (2 if trace == 0 else 1)
                    and elapsed * (len(passes) + 1) / len(passes) > seconds):
                break

    failures: dict[str, str] = {}
    runs: dict[str, list[PointRecord]] = {}
    for one_pass in passes:
        for label, outcome in one_pass.items():
            if isinstance(outcome, str):
                failures.setdefault(label, outcome)
            else:
                runs.setdefault(label, []).append(outcome)
    for label, records in runs.items():
        if any(r.digest != records[0].digest for r in records):
            failures.setdefault(label, "digest differs between passes")
    digests = {label: records[0].digest for label, records in runs.items()}
    golden = None
    if seed == 0 and not smoke and GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text()).get(workload)
    if golden is not None:
        for label, digest in digests.items():
            if golden.get(label) != digest:
                failures.setdefault(label, "digest differs from golden.json")

    def speed(record: PointRecord) -> float:
        return probe.scale(record.start_ns, record.start_ns + record.wall_ns)

    def host_s(scaled: bool) -> tuple[float, float]:
        """(wall_s, setup_s), at the reference speed or as measured."""
        def ns(record: PointRecord, value: int) -> float:
            return value * speed(record) if scaled else value

        wall = sum(statistics.median(ns(r, r.wall_ns) for r in records)
                   for records in runs.values())
        # Builds of one machine configuration all do the same work, so
        # their times pool into one median per configuration: a few
        # milliseconds each, single builds swing by half with page-fault
        # luck.
        build_ns: dict[Any, list[float]] = {}
        for records in runs.values():
            for record in records:
                for config, value in record.builds:
                    build_ns.setdefault(config, []).append(ns(record, value))
        setup = sum(statistics.median(build_ns[config])
                    for records in runs.values()
                    for config, _ in records[0].builds)
        return wall / 1e9, setup / 1e9

    wall_s, setup_s = host_s(scaled=True)
    raw_wall_s, raw_setup_s = host_s(scaled=False)
    total: dict[str, int] = {}
    for records in runs.values():
        for key, value in records[0].counts.items():
            total[key] = total.get(key, 0) + value
    pass_walls = sorted(
        sum(r.wall_ns * speed(r) for r in p.values()
            if not isinstance(r, str)) / 1e9
        for p in passes)
    info = {"reps": len(passes), "probes": len(probe.samples),
            "host_speed": PROBE_REF_NS / statistics.median(
                ns for _, ns in probe.samples),
            "wall_s_raw": raw_wall_s, "setup_s_raw": raw_setup_s,
            "pass_wall_min_s": pass_walls[0],
            "pass_wall_max_s": pass_walls[-1]}
    metrics: dict[str, float] = {}
    if trace != 1:
        metrics.update({
            "wall_s": wall_s,
            "setup_s": setup_s,
            "sim_ops_per_s": total.get("ctrl.ops", 0) / wall_s
            if wall_s else 0.0,
            "peak_rss_mib": rss_mib,
        })
    if trace != 0:
        tracer = Tracer(full=True)
        with tracer:
            traced = run_pass(points, tracer, record_first=True)
        traced_ns = 0
        for label, outcome in traced.items():
            if isinstance(outcome, str):
                failures.setdefault(label, outcome)
                continue
            traced_ns += outcome.wall_ns
            if label in digests and outcome.digest != digests[label]:
                failures.setdefault(label, "traced digest differs")
        layer_ns = dict(tracer.self_ns)
        layer_ns["other"] += traced_ns - tracer.covered_ns
        useful = sum(records[0].useful for records in runs.values())
        # Per-layer times are as measured, so these compare like with like.
        metrics.update(_layer_metrics(layer_ns, total, useful, tracer,
                                      traced_ns / 1e9, raw_wall_s))
        metrics["sim_cycles"] = sum(d[0] for d in digests.values())
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_chrome_trace(out_dir / f"{workload}.trace.json",
                                      {0: points[0].label})
            (out_dir / f"{workload}.layers.json").write_text(json.dumps(
                {"workload": workload, "seed": seed,
                 "traced_wall_s": traced_ns / 1e9,
                 "self_s": {k: v / 1e9 for k, v in layer_ns.items()}},
                indent=2) + "\n")

    return {"workload": workload, "attempted": len(points),
            "failed": len(failures), "failures": failures,
            "metrics": metrics, "info": info, "digests": digests}


def _layer_metrics(layer_ns: dict[str, int], total: dict[str, int],
                   useful: int, tracer: Tracer, traced_s: float,
                   untraced_s: float) -> dict[str, float]:
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    messages = total.get("net.messages", 0)
    lookups = total.get("cache.hits", 0) + total.get("cache.misses", 0)
    events = total.get("sim.events_processed", 0)
    metrics = {f"{layer}.self_s": layer_ns[layer] / 1e9 for layer in LAYERS}
    metrics.update({
        "network.messages": messages,
        "network.flits": total.get("net.flits", 0),
        "network.mean_latency_cycles":
            ratio(total.get("net.total_latency", 0), messages),
        "controller.atomic_attempts": tracer.atomic_attempts,
        "controller.useful_ratio": ratio(useful, tracer.atomic_attempts),
        "controller.nak_retries": total.get("ctrl.nak_retries", 0),
        "controller.sc_local_failures": total.get("ctrl.sc_local_failures", 0),
        "cache.lookups": lookups,
        "cache.hit_rate": ratio(total.get("cache.hits", 0), lookups),
        "home.requests": total.get("home.requests", 0),
        "home.queued_frac": ratio(total.get("home.queued", 0),
                                  total.get("home.requests", 0)),
        "memory.accesses": total.get("mem.accesses", 0),
        "memory.queue_wait_cycles": total.get("mem.queue_wait", 0),
        "directory.spurious_targets": total.get("home.spurious_targets", 0),
        "sim.events": events,
        "sim.ns_per_event": ratio(untraced_s * 1e9, events),
        "machine.builds": len(tracer.builds),
        "trace.overhead_frac": ratio(traced_s, untraced_s) - 1.0,
    })
    return metrics


def main(argv: Sequence[str]) -> int:
    job = json.loads(argv[0])
    out_dir = job.pop("out_dir", None)
    result = measure_workload(
        out_dir=pathlib.Path(out_dir) if out_dir else None, **job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
