"""Shared configuration for the reproduction benchmarks.

Every benchmark regenerates one of the paper's tables or figures on the
paper's machine (64 nodes by default), prints it, and writes the rendered
text to ``benchmarks/results/`` plus a machine-readable ``repro.run/1``
JSON document next to it (what the ``BENCH_*.json`` baselines gate; see
``docs/observability.md``).  Scale knobs are environment variables so
CI or laptops can shrink the runs:

* ``REPRO_BENCH_NODES``  — machine size (default 64, the paper's).
* ``REPRO_BENCH_TURNS``  — synthetic-app turns per panel (default 6).
* ``REPRO_BENCH_JSON``   — directory for the JSON documents
  (default ``benchmarks/results/``).
* ``REPRO_BENCH_JOBS``   — worker processes per sweep (default 1:
  serial; results are identical at any setting).
"""

from __future__ import annotations

import os
import pathlib
from typing import Any, Mapping

import pytest

from repro import SimConfig
from repro.obs.schema import dump_run, make_run_payload

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

BENCH_NODES = int(os.environ.get("REPRO_BENCH_NODES", "64"))
BENCH_TURNS = int(os.environ.get("REPRO_BENCH_TURNS", "6"))
JSON_DIR = pathlib.Path(os.environ.get("REPRO_BENCH_JSON", RESULTS_DIR))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))

SWEEP_OPTS: dict[str, Any] = {"jobs": BENCH_JOBS}


@pytest.fixture(scope="session")
def bench_config() -> SimConfig:
    """The paper's machine (or a scaled-down one via env vars)."""
    return SimConfig().with_nodes(BENCH_NODES)


def publish(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def publish_json(
    name: str,
    results: Mapping[str, Any],
    params: Mapping[str, Any],
) -> None:
    """Persist one benchmark's results as schema-stable JSON.

    Writes ``<JSON_DIR>/<name>.json`` in the ``repro.run/1`` envelope.
    ``params`` name the machine that ran (``MachineConfig.envelope_params``)
    and ``turns`` where the runner reads them.
    """
    payload = make_run_payload(name, params=params, results=results)
    JSON_DIR.mkdir(parents=True, exist_ok=True)
    dump_run(payload, JSON_DIR / f"{name}.json")
