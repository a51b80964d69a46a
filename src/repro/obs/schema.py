"""The stable machine-readable run schema.

Every ``--json`` emission — CLI subcommands and the benchmark suite —
wraps its payload in one envelope so downstream tooling (the
``BENCH_*.json`` baselines, ``repro report``) can parse any run without
knowing which experiment produced it:

.. code-block:: json

    {
      "schema": "repro.run/1",
      "experiment": "table1",
      "version": "1.0.0",
      "params": {"nodes": 64, "turns": 6},
      "results": { ... experiment-specific ... },
      "metrics": { ... optional registry snapshot ... },
      "critpath": { ... optional critical-path attribution ... },
      "hotspots": { ... optional per-block contention ranking ... },
      "profile": { ... optional host-time attribution ... },
      "faults": { ... optional chaos-verification verdicts ... }
    }

``results`` content per experiment is documented in
``docs/observability.md``.  ``repro stats`` fills ``metrics``, a
:meth:`~repro.obs.critpath.CritPathAggregator.snapshot` under
``critpath`` and a :meth:`~repro.obs.hotspot.HotspotTracker.snapshot`
under ``hotspots``; ``--profile`` adds a
:meth:`~repro.obs.profile.ComponentProfiler.snapshot` under ``profile``
to any written envelope (wall-clock attribution of the dispatch loop;
host-dependent, so it never appears under ``results``).  ``faults`` is
the chaos-verification section built by
:func:`repro.faults.chaos.run_chaos`
(fault plan, matrix shape, and one verdict per point — fully
deterministic, so chaos envelopes are byte-reproducible).
The envelope is validated (no external dependency) by
:func:`validate_run_payload`; bump :data:`SCHEMA` if the envelope ever
changes shape (adding optional keys is backward-compatible, and
unknown keys are ignored, so older envelopes that carry the retired
``latency`` section still load).
:func:`load_run` reads and validates one from disk, and
:func:`diff_runs` compares two leaf by leaf, minus the host sections;
the envelope gate ``tools/diff_envelopes.py`` is built on the pair.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "SCHEMA",
    "HOST_SECTIONS",
    "make_run_payload",
    "validate_run_payload",
    "load_run",
    "diff_runs",
    "dump_run",
]

SCHEMA = "repro.run/1"

_OPTIONAL_SECTIONS = ("metrics", "critpath", "hotspots", "profile",
                      "faults")

#: Sections that describe the host, not the simulation: :func:`diff_runs`
#: never compares them.  ``critpath`` is simulated, so it is compared.
HOST_SECTIONS = ("profile",)


def make_run_payload(
    experiment: str,
    params: Mapping[str, Any],
    results: Mapping[str, Any],
    metrics: Mapping[str, Any] | None = None,
    critpath: Mapping[str, Any] | None = None,
    hotspots: Mapping[str, Any] | None = None,
    faults: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-stable run document.

    Every section given here is simulated.  The host-time ``profile``
    section is grafted onto a written envelope by ``--profile``, apart
    from ``results``, so bit-exact baseline diffs (:func:`diff_runs`)
    never see host-dependent timings.
    """
    from .. import __version__

    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "experiment": experiment,
        "version": __version__,
        "params": dict(params),
        "results": dict(results),
    }
    for key, value in (("metrics", metrics), ("critpath", critpath),
                       ("hotspots", hotspots), ("faults", faults)):
        if value is not None:
            payload[key] = dict(value)
    return payload


def validate_run_payload(
    payload: Any, experiment: str | None = None
) -> dict[str, Any]:
    """Check the envelope; return the payload or raise ``ValueError``.

    Accepts a dict or a JSON string.  Validates the required keys, their
    types, and (optionally) the experiment name; ``results`` internals
    stay experiment-specific by design.
    """
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    if not isinstance(payload, dict):
        raise ValueError(f"run payload must be an object, got {type(payload)}")
    if payload.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported schema {payload.get('schema')!r}, want {SCHEMA!r}"
        )
    for key, typ in (
        ("experiment", str),
        ("version", str),
        ("params", dict),
        ("results", dict),
    ):
        if not isinstance(payload.get(key), typ):
            raise ValueError(f"run payload field {key!r} missing or not {typ.__name__}")
    for key in _OPTIONAL_SECTIONS:
        if key in payload and not isinstance(payload[key], dict):
            raise ValueError(f"run payload field {key!r} must be an object")
    if experiment is not None and payload["experiment"] != experiment:
        raise ValueError(
            f"expected experiment {experiment!r}, got {payload['experiment']!r}"
        )
    return payload


def load_run(path) -> dict[str, Any]:
    """Read and validate the envelope at ``path``.

    A missing or unreadable file, invalid JSON, and a document that is
    not a ``repro.run/1`` envelope all raise ``ValueError`` naming
    ``path``.
    """
    try:
        return validate_run_payload(pathlib.Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def diff_runs(
    reference: Any, candidate: Any, ignore: Iterable[str] = ()
) -> Iterator[str]:
    """Yield one message per leaf where ``candidate`` differs.

    :data:`HOST_SECTIONS` and every dotted path in ``ignore`` (e.g.
    ``params.directory``) are skipped on both sides.  Leaves compare
    exactly and by type, so ``1``, ``1.0`` and ``True`` all differ; a
    key on one side only and lists of different length are differences.
    """
    return _leaf_diffs(reference, candidate, "", {*HOST_SECTIONS, *ignore})


def _leaf_diffs(a: Any, b: Any, path: str, skip: set[str]) -> Iterator[str]:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else key
            if here in skip:
                continue
            if key not in b:
                yield f"{here}: only in reference"
            elif key not in a:
                yield f"{here}: only in candidate"
            else:
                yield from _leaf_diffs(a[key], b[key], here, skip)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaf_diffs(x, y, f"{path}[{i}]", skip)
    elif isinstance(a, list) and isinstance(b, list):
        yield f"{path}: length {len(b)} != reference {len(a)}"
    elif type(a) is not type(b) or a != b:
        yield f"{path}: {b!r} != reference {a!r}"


def dump_run(payload: Mapping[str, Any], path) -> None:
    """Write a validated run document to ``path``."""
    document = validate_run_payload(dict(payload))
    pathlib.Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
