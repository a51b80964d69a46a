"""The stable machine-readable run schema.

Every ``--json`` emission — CLI subcommands, the benchmark suite, the
``stats`` subcommand — wraps its payload in one envelope so downstream
tooling (perf-trajectory dashboards, ``BENCH_*.json`` history) can parse
any run without knowing which experiment produced it:

.. code-block:: json

    {
      "schema": "repro.run/1",
      "experiment": "table1",
      "version": "1.0.0",
      "params": {"nodes": 64, "turns": 6},
      "results": { ... experiment-specific ... },
      "metrics": { ... optional registry snapshot ... },
      "latency": { ... optional breakdown summary ... },
      "critpath": { ... optional critical-path attribution ... },
      "hotspots": { ... optional per-block contention ranking ... },
      "perf": {"wall_seconds": 0.18, "events_per_second": 1200000.0},
      "profile": { ... optional host-time attribution ... },
      "faults": { ... optional chaos-verification verdicts ... }
    }

``results`` content per experiment is documented in
``docs/observability.md``; ``critpath`` is a
:meth:`~repro.obs.critpath.CritPathAggregator.snapshot`,
``hotspots`` a :meth:`~repro.obs.hotspot.HotspotTracker.snapshot`, and
``profile`` a :meth:`~repro.obs.profile.ComponentProfiler.snapshot`
(wall-clock attribution of the dispatch loop; host-dependent, so — like
``perf`` — it never appears under ``results``).  ``faults`` is the
chaos-verification section built by :func:`repro.faults.chaos.run_chaos`
(fault plan, matrix shape, and one verdict per point — fully
deterministic, so chaos envelopes are byte-reproducible).
The envelope is validated (no external dependency) by
:func:`validate_run_payload`; bump :data:`SCHEMA` if the envelope ever
changes shape (adding optional keys is backward-compatible).
:func:`load_run` reads and validates one from disk, and
:func:`diff_runs` compares two leaf by leaf, minus the host sections;
the envelope gate ``tools/diff_envelopes.py`` is built on the pair.

For machine consumption as a stream (``repro stats --format jsonl``),
:func:`run_payload_to_jsonl` flattens the same envelope into one JSON
record per line, each tagged with a ``record`` discriminator.
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
    "run_payload_to_jsonl",
]

SCHEMA = "repro.run/1"

_OPTIONAL_SECTIONS = ("metrics", "latency", "critpath", "hotspots", "perf",
                      "profile", "faults")

#: Sections that describe the host, not the simulation: :func:`diff_runs`
#: never compares them.  ``critpath`` is simulated, so it is compared.
HOST_SECTIONS = ("perf", "profile")


def make_run_payload(
    experiment: str,
    params: Mapping[str, Any],
    results: Mapping[str, Any],
    metrics: Mapping[str, Any] | None = None,
    latency: Mapping[str, Any] | None = None,
    critpath: Mapping[str, Any] | None = None,
    hotspots: Mapping[str, Any] | None = None,
    perf: Mapping[str, Any] | None = None,
    profile: Mapping[str, Any] | None = None,
    faults: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-stable run document.

    ``perf`` (wall-clock sidecar: ``wall_seconds``,
    ``events_per_second``) and ``profile`` (per-handler host-time
    attribution) are deliberately separate from ``results`` so bit-exact
    baseline diffs (:func:`diff_runs`) never see host-dependent timings.
    """
    from .. import __version__

    payload: dict[str, Any] = {
        "schema": SCHEMA,
        "experiment": experiment,
        "version": __version__,
        "params": dict(params),
        "results": dict(results),
    }
    for key, value in (("metrics", metrics), ("latency", latency),
                       ("critpath", critpath), ("hotspots", hotspots),
                       ("perf", perf), ("profile", profile),
                       ("faults", faults)):
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


def run_payload_to_jsonl(payload: Mapping[str, Any]) -> str:
    """Flatten one run envelope into line-delimited JSON records.

    The stream opens with a ``run`` header (schema, experiment, version,
    params), then one record per metric / latency key / critpath key /
    hotspot block, and closes with the experiment ``results``.  Each
    line is a self-describing object with a ``record`` discriminator, so
    consumers can ``grep``/``jq`` one record type without parsing the
    whole envelope:

    .. code-block:: text

        {"record": "run", "schema": "repro.run/1", ...}
        {"record": "metric", "name": "net.messages", "value": 42}
        {"record": "latency", "key": "faa/INV", "count": 10, ...}
        {"record": "critpath", ...}
        {"record": "hotspot", "block": 7, "score": 1200, ...}
        {"record": "results", "results": { ... }}
    """
    document = validate_run_payload(dict(payload))
    lines = [json.dumps(
        {"record": "run", "schema": document["schema"],
         "experiment": document["experiment"],
         "version": document["version"], "params": document["params"]},
        sort_keys=True,
    )]
    for name, value in sorted(document.get("metrics", {}).items()):
        lines.append(json.dumps(
            {"record": "metric", "name": name, "value": value},
            sort_keys=True,
        ))
    for key, summary in sorted(document.get("latency", {}).items()):
        row = {"record": "latency", "key": key}
        row.update(summary if isinstance(summary, dict)
                   else {"value": summary})
        lines.append(json.dumps(row, sort_keys=True))
    critpath = document.get("critpath")
    if critpath is not None:
        lines.append(json.dumps({"record": "critpath", **critpath},
                                sort_keys=True))
    perf = document.get("perf")
    if perf is not None:
        lines.append(json.dumps({"record": "perf", **perf},
                                sort_keys=True))
    profile = document.get("profile")
    if profile is not None:
        lines.append(json.dumps({"record": "profile", **profile},
                                sort_keys=True))
    faults = document.get("faults")
    if faults is not None:
        summary = {key: value for key, value in faults.items()
                   if key != "verdicts"}
        lines.append(json.dumps({"record": "faults", **summary},
                                sort_keys=True))
        for verdict in faults.get("verdicts", []):
            lines.append(json.dumps({"record": "chaos.verdict", **verdict},
                                    sort_keys=True))
    for block in document.get("hotspots", {}).get("top", []):
        row = {"record": "hotspot"}
        row.update(block if isinstance(block, dict) else {"value": block})
        lines.append(json.dumps(row, sort_keys=True))
    lines.append(json.dumps(
        {"record": "results", "results": document["results"]},
        sort_keys=True,
    ))
    return "\n".join(lines)
