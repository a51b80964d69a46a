#!/usr/bin/env python3
"""Gate ``repro perf`` envelopes on their deterministic proxies and peaks.

Per kernel, ``repro perf`` reports best-of-reps wall-clock numbers, a
``proxies`` dict of deterministic outputs (event counts, message
counts, end cycles, final values), the tracemalloc peak of one untimed
rep (``peak_alloc_kib``) and its absolute ceiling (``budget_kib``).
Against the committed baseline this gate fails on:

* any difference in ``params.mode`` or in a kernel's proxies, and a
  kernel on one side only (``repro.obs.schema.diff_runs``);
* a ``peak_alloc_kib`` more than ``MEM_TOLERANCE`` away from the
  baseline's, in either direction: a leak fails, and so does a big
  improvement, which deserves a deliberate baseline refresh;
* a ``peak_alloc_kib`` over its ``budget_kib``.

Wall-clock deltas depend on the host and are printed for information
only::

    PYTHONPATH=src python tools/check_perf_regression.py \\
        --baseline benchmarks/baselines/PERF_quick.json \\
        --current bench-out/BENCH_PERF.json

Exit status 0 when the gate passes, 1 otherwise.  After an intended
change, refresh the baseline by copying the fresh envelope over it and
say in the commit message which lines the gate printed.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterator

from repro.obs.schema import diff_runs, load_run

#: Allowed relative drift of a kernel's ``peak_alloc_kib`` (±10%).
MEM_TOLERANCE = 0.10


def gated(doc: dict) -> dict:
    """The part of a perf envelope that must not move: mode and proxies."""
    return {
        "params": {"mode": doc["params"].get("mode")},
        "results": {
            name: {"proxies": kernel.get("proxies", {})}
            for name, kernel in doc["results"].items()
        },
    }


def mem_diffs(base_kernels: dict, cur_kernels: dict) -> Iterator[str]:
    """Yield a message per kernel whose peak allocations left the band."""
    for name in sorted(set(base_kernels) & set(cur_kernels)):
        base_kib = base_kernels[name].get("peak_alloc_kib")
        cur_kib = cur_kernels[name].get("peak_alloc_kib")
        if not base_kib:
            continue  # a baseline without a peak gates nothing
        if cur_kib is None:
            yield f"{name}.peak_alloc_kib: missing from current run"
            continue
        delta = (cur_kib - base_kib) / base_kib
        if abs(delta) > MEM_TOLERANCE:
            yield (
                f"{name}.peak_alloc_kib: {cur_kib} KiB is {delta:+.1%} "
                f"vs baseline {base_kib} KiB (tolerance ±{MEM_TOLERANCE:.0%})"
            )


def budget_diffs(cur_kernels: dict) -> Iterator[str]:
    """Yield a message per kernel over its absolute memory budget."""
    for name, kernel in sorted(cur_kernels.items()):
        budget, peak = kernel.get("budget_kib"), kernel.get("peak_alloc_kib")
        if budget is not None and peak is not None and peak > budget:
            yield (
                f"{name}.peak_alloc_kib: {peak} KiB exceeds its absolute "
                f"budget of {budget} KiB"
            )


def wall_report(base_kernels: dict, cur_kernels: dict) -> Iterator[str]:
    """Informational wall-clock comparison (never fails the gate)."""
    yield "wall-clock (informational; host-dependent, not gated):"
    for name in sorted(set(base_kernels) & set(cur_kernels)):
        b_wall = base_kernels[name].get("wall_seconds")
        c_wall = cur_kernels[name].get("wall_seconds")
        if b_wall and c_wall:
            eps = cur_kernels[name].get("events_per_second")
            eps_text = f", {eps:,} ev/s" if eps else ""
            yield (
                f"  {name}: {c_wall:.4f}s vs baseline {b_wall:.4f}s "
                f"({(c_wall - b_wall) / b_wall:+.1%}{eps_text})"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate perf-microbenchmark proxies and peaks against a baseline.",
    )
    parser.add_argument(
        "--baseline", required=True, help="committed PERF_*.json baseline envelope"
    )
    parser.add_argument(
        "--current", required=True, help="freshly generated repro perf envelope"
    )
    args = parser.parse_args(argv)
    try:
        baseline, current = load_run(args.baseline), load_run(args.current)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    base_kernels, cur_kernels = baseline["results"], current["results"]
    problems = [
        *diff_runs(gated(baseline), gated(current)),
        *mem_diffs(base_kernels, cur_kernels),
        *budget_diffs(cur_kernels),
    ]
    print("\n".join(wall_report(base_kernels, cur_kernels)))
    if problems:
        print(f"\nFAIL: {len(problems)} divergence(s):")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"\nOK: proxies and peak allocations of {len(base_kernels)} "
        "kernel(s) match the baseline"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
