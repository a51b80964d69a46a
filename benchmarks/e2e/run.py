"""Run the end-to-end benchmark and print every metric by name and unit.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
        [--trace 0|1] [--smoke] [--json OUT]
    PYTHONPATH=src python -m benchmarks.e2e ...        # same thing

Each workload runs in its own fresh subprocess, one at a time.  The
subprocess first runs as many untraced measured passes as fit in
``--seconds``, then one separate traced pass.  ``--trace 0`` skips the
traced pass and reports the end-to-end metrics only; ``--trace 1`` runs
one untraced and one traced pass and reports the per-layer metrics only.
Every metric is printed as ``workload metric value unit``; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A point that fails, or a
workload whose subprocess dies, is counted as failed (``correct`` is then
false) and the run goes on.  The exit code is 0 when no workload
subprocess died, 1 when one did, and 2 when the simulator's sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
from typing import Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: (name, unit) of the end-to-end metrics; measured with tracing off.
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("sim_ops_per_s", "1/s"),
              ("peak_rss_mib", "MiB"))
#: (name, unit) of the per-layer metrics; from the traced pass.
PER_LAYER = tuple(
    (f"{layer}.self_s", "s") for layer in (
        "sim", "processor", "controller", "cache", "network", "home",
        "memory", "directory", "obs", "machine", "other")
) + (
    ("sim_cycles", "cycles"),
    ("network.messages", "count"), ("network.flits", "count"),
    ("network.mean_latency_cycles", "cycles"),
    ("controller.atomic_attempts", "count"),
    ("controller.useful_ratio", "ratio"),
    ("controller.nak_retries", "count"),
    ("controller.sc_local_failures", "count"),
    ("cache.lookups", "count"), ("cache.hit_rate", "ratio"),
    ("home.requests", "count"), ("home.queued_frac", "ratio"),
    ("memory.accesses", "count"), ("memory.queue_wait_cycles", "cycles"),
    ("directory.spurious_targets", "count"),
    ("sim.events", "count"), ("sim.ns_per_event", "ns"),
    ("machine.builds", "count"), ("trace.overhead_frac", "ratio"),
)
WORKLOAD_NAMES = ("contention_c64", "apps_fig6", "writerun_c1", "scale_1024")
#: A worker still running this long after its ``--seconds`` budget is
#: killed; a 30 s run then ends within 150 s.
WORKER_GRACE_S = 120


def run_worker(job: dict) -> tuple[Optional[dict], str]:
    """Measure one workload in a fresh interpreter.

    Returns the worker's result, or None and why the worker died.
    """
    env = dict(os.environ)
    # A fixed string-hash seed removes one source of run-to-run variance
    # (dict and set layouts); the simulation itself never depends on it.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p])
    timeout = job["seconds"] + WORKER_GRACE_S
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.e2e.measure", json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"worker killed after {timeout:g} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with code {proc.returncode}"
    return json.loads(lines[-1]), ""


def report(results: dict[str, dict], trace: Optional[int]) -> dict:
    """Print every metric line; return the final summary object."""
    specs = (END_TO_END if trace != 1 else ()) + (
        PER_LAYER if trace != 0 else ())
    single = len(results) == 1
    summary: dict = {"correct": True, "attempted": 0, "failed": 0,
                     "metrics": {}}
    for workload, result in results.items():
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for label, why in result["failures"].items():
            print(f"FAILED {workload} {label}: {why}")
        info = result["info"]
        print(f"{workload} failed_frac "
              f"{result['failed'] / result['attempted']:.6g} ratio")
        if info is None:  # the worker died: nothing was measured
            continue
        print(f"{workload} reps {info['reps']} count")
        print(f"{workload} host_speed {info['host_speed']:.6g} ratio")
        for name, unit in specs:
            value = result["metrics"][name]
            print(f"{workload} {name} {value:.6g} {unit}")
            key = name if single else f"{workload}/{name}"
            summary["metrics"][key] = {"value": value, "unit": unit}
        if trace != 1:
            # Fewer than 11 passes leave no tail percentile: min and max.
            print(f"{workload} wall_s.pass_min {info['pass_wall_min_s']:.6g} s")
            print(f"{workload} wall_s.pass_max {info['pass_wall_max_s']:.6g} s")
    summary["correct"] = summary["failed"] == 0
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="0 = the canonical figure inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced passes repeat while they fit in this "
                             "many seconds per workload (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="16 nodes, turns 1, as few passes as possible "
                             "(the self-test size)")
    parser.add_argument("--json", type=pathlib.Path, default=None,
                        help="also write every result, digests included")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results: dict[str, dict] = {}
    died = False
    for workload in workloads:
        job = {"workload": workload, "seed": args.seed,
               "seconds": 0.0 if args.smoke else args.seconds,
               "trace": args.trace, "smoke": args.smoke,
               "out_dir": str(OUT_DIR)}
        result, why = run_worker(job)
        if result is None:
            print(f"error: the {workload} worker died: {why}",
                  file=sys.stderr)
            died = True
            result = {"attempted": 1, "failed": 1,
                      "failures": {"(worker)": why}, "metrics": {},
                      "info": None}
        results[workload] = result
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"seed": args.seed, "smoke": args.smoke, "results": results},
            indent=1) + "\n")
    print(json.dumps(report(results, args.trace)))
    return 1 if died else 0


if __name__ == "__main__":
    sys.exit(main())
