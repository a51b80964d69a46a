#!/usr/bin/env python3
"""Fail unless ``repro.run/1`` envelopes equal a reference, host fields aside.

Every determinism and baseline gate is this comparison: ``--jobs 1``
against ``--jobs 2``, a profiled run against a plain one, an
exact-capacity sparse directory against the full bit vector, and each
committed ``benchmarks/baselines/BENCH_<name>.json`` against a fresh
benchmark run::

    PYTHONPATH=src python tools/diff_envelopes.py --ignore params.directory \\
        dir_full.json dir_limited.json dir_coarse.json

The first file is the reference; every other file must equal it leaf
for leaf and type for type (``repro.obs.schema.diff_runs``).  The host
section ``profile`` is never compared, and ``--ignore`` drops the
run-shape parameters that legitimately differ.  A file that
is missing or is not an envelope is an error.  Exit status 0 when all
match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys

from repro.obs.schema import diff_runs, load_run

#: Differing leaves printed per candidate; the rest are counted.
SHOWN = 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail unless run envelopes are identical (host fields excluded).",
    )
    parser.add_argument(
        "files", nargs="+", help="envelopes; the first is the reference"
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="DOTTED.PATH",
        help="also skip this field (repeatable; e.g. params.directory)",
    )
    args = parser.parse_args(argv)
    if len(args.files) < 2:
        parser.error("need a reference and at least one candidate")
    try:
        reference, *candidates = [load_run(path) for path in args.files]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reference_path = args.files[0]
    failures = 0
    for path, candidate in zip(args.files[1:], candidates):
        diffs = list(diff_runs(reference, candidate, args.ignore))
        if not diffs:
            print(f"ok   {path} == {reference_path}")
            continue
        failures += 1
        print(f"FAIL {path} != {reference_path}")
        for diff in diffs[:SHOWN]:
            print(f"  {diff}")
        if len(diffs) > SHOWN:
            print(f"  ... and {len(diffs) - SHOWN} more")
    if failures:
        print(f"\n{failures} envelope(s) diverged from {reference_path}.")
        return 1
    print(
        f"\nAll {len(candidates)} envelope(s) byte-identical to {reference_path} "
        "(host fields excluded)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
