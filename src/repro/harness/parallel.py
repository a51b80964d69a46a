"""Parallel sweep execution with a content-addressed result cache.

Every figure and table in the paper is a cross-product of *independent*
simulation points — (primitive variant, sharing-pattern spec, machine
config) triples, each of which builds its own deterministic machine.
This module turns that observation into infrastructure:

* :class:`SweepPoint` — a picklable, hashable-by-content descriptor of
  one simulation point: which runner to call (by its module-qualified
  reference, so worker processes resolve it by import), with which
  variant/spec/config/extra keyword arguments.
* :func:`point_key` — a stable SHA-256 content hash of a point combined
  with a fingerprint of the ``repro`` source tree, so a key identifies
  "this exact simulation under this exact code".
* :class:`ResultCache` — a content-addressed on-disk store mapping point
  keys to their encoded results.  Re-running an unchanged point is a
  cache hit, not a re-simulation; editing any simulator source
  invalidates every key at once.
* :func:`run_sweep` — execute a list of points either serially
  in-process (``jobs=1``, bit-identical to the historic nested-loop
  drivers) or spread across a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Results always come
  back in input order, and progress is published on an
  :class:`~repro.obs.events.EventBus` (``sweep.start`` / ``sweep.point``
  / ``sweep.done``).  A point runs once: it is deterministic, so a
  point that raised would raise again.

Because every point carries its own config (including its RNG seed),
``jobs=1`` and ``jobs=N`` produce byte-identical results; scheduling
order can never leak into measurements.

.. code-block:: python

    points = [
        make_point(run_lockfree_counter, variant=v, spec=s, config=cfg)
        for s in specs for v in variants
    ]
    outcomes = run_sweep(points, jobs=4, cache=ResultCache())
    results = [o.result for o in outcomes]

See ``docs/parallel.md`` for the full design.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import importlib
import inspect
import json
import os
import pathlib
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, TextIO

from ..apps.common import AppResult
from ..config import SimConfig
from ..errors import ConfigError, SimulationError
from ..obs.events import EventBus

__all__ = [
    "SweepPoint",
    "PointOutcome",
    "ResultCache",
    "make_point",
    "run_sweep",
    "runner_ref",
    "resolve_runner",
    "point_key",
    "code_fingerprint",
    "default_cache_dir",
    "attach_progress_printer",
]

CACHE_SCHEMA = "repro.cache/1"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


# ----------------------------------------------------------------------
# Runner references.
# ----------------------------------------------------------------------

def runner_ref(runner: Callable | str) -> str:
    """The stable ``module:qualname`` reference of a point runner.

    Workers resolve runners by import, so a runner must be a module-level
    callable (no lambdas, closures, or instance methods).
    """
    if isinstance(runner, str):
        return runner
    qualname = getattr(runner, "__qualname__", "")
    module = getattr(runner, "__module__", "")
    if not module or not qualname or "<locals>" in qualname:
        raise ConfigError(
            f"sweep runners must be module-level callables, got {runner!r}"
        )
    return f"{module}:{qualname}"


def resolve_runner(ref: str) -> Callable:
    """Import and return the callable a :func:`runner_ref` names."""
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ConfigError(f"malformed runner reference {ref!r}")
    obj: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ConfigError(f"runner reference {ref!r} is not callable")
    return obj


# ----------------------------------------------------------------------
# Point descriptors and content hashing.
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a sweep.

    Attributes:
        runner: ``module:qualname`` reference of the runner callable.
        label: Human-readable progress label.
        variant: Primitive variant, passed as the first positional
            argument when present.
        spec: Sharing-pattern spec, passed positionally after the
            variant when present.
        config: Machine configuration, passed as the ``config`` keyword
            when present.
        kwargs: Extra keyword arguments as a sorted tuple of pairs
            (kept picklable and content-hashable).
    """

    runner: str
    label: str = ""
    variant: Any = None
    spec: Any = None
    config: Optional[SimConfig] = None
    kwargs: tuple[tuple[str, Any], ...] = ()


def make_point(
    runner: Callable | str,
    *,
    variant: Any = None,
    spec: Any = None,
    config: Optional[SimConfig] = None,
    label: str = "",
    **kwargs: Any,
) -> SweepPoint:
    """Build a :class:`SweepPoint`, deriving a label when none is given."""
    ref = runner_ref(runner)
    if not label:
        parts = [ref.rpartition(":")[2]]
        if variant is not None and hasattr(variant, "label"):
            parts.append(variant.label)
        if spec is not None:
            parts.append(_describe(spec))
        parts.extend(f"{k}={v}" for k, v in sorted(kwargs.items()))
        label = " ".join(parts)
    return SweepPoint(
        runner=ref,
        label=label,
        variant=variant,
        spec=spec,
        config=config,
        kwargs=tuple(sorted(kwargs.items())),
    )


def _describe(spec: Any) -> str:
    if dataclasses.is_dataclass(spec):
        fields = dataclasses.asdict(spec)
        return " ".join(f"{k}={v}" for k, v in fields.items())
    return repr(spec)


def _canonical(value: Any) -> Any:
    """A JSON-able, order-stable view of a value for content hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        body = {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        return {"__class__": type(value).__name__, **body}
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot content-hash value of type {type(value)!r}")


_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """A SHA-256 digest of every ``.py`` file in the ``repro`` package.

    Cache keys mix this in so any edit to the simulator invalidates
    every cached result at once.  Computed once per process.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def point_key(point: SweepPoint, fingerprint: Optional[str] = None) -> str:
    """The content-addressed cache key of ``point``.

    SHA-256 over the canonical JSON of the point descriptor plus the
    source-tree fingerprint: identical points under identical code share
    a key; any difference in runner, variant, spec, config (including
    the seed), extra kwargs, or simulator source yields a new key.
    """
    material = json.dumps(
        {
            "fingerprint": fingerprint or code_fingerprint(),
            "point": _canonical(point),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(material.encode()).hexdigest()


# ----------------------------------------------------------------------
# Result encoding (cache payloads are JSON, not pickles).
# ----------------------------------------------------------------------

def _encode_result(value: Any) -> dict[str, Any]:
    if isinstance(value, AppResult):
        body = dataclasses.asdict(value)
        body["contention_histogram"] = {
            str(level): pct
            for level, pct in value.contention_histogram.items()
        }
        return {"__result__": "AppResult", "value": body}
    return {"__result__": "json", "value": value}


def _decode_result(encoded: dict[str, Any]) -> Any:
    kind = encoded.get("__result__")
    if kind == "AppResult":
        body = dict(encoded["value"])
        body["contention_histogram"] = {
            int(level): pct
            for level, pct in body["contention_histogram"].items()
        }
        return AppResult(**body)
    if kind == "json":
        return encoded["value"]
    raise ValueError(f"unknown cached result kind {kind!r}")


# ----------------------------------------------------------------------
# The content-addressed on-disk cache.
# ----------------------------------------------------------------------

def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro"


class ResultCache:
    """Content-addressed store of point results under a root directory.

    Entries live at ``<root>/<key[:2]>/<key>.json`` in a small envelope
    (schema ``repro.cache/1``) holding the encoded result.  Unreadable
    entries are misses; *corrupt* entries (unparsable JSON, wrong
    schema/key, missing payload) are additionally quarantined — moved
    aside to ``<key>.json.corrupt`` and counted in :attr:`corrupt`, so
    recurring corruption is visible (``repro chaos`` reports it as
    ``sweep.cache.corrupt``) instead of silently re-simulating
    forever.  Writes are atomic (temp file + rename) so concurrent
    workers cannot tear an entry.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def path_for(self, key: str) -> pathlib.Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict[str, Any]]:
        """The stored payload for ``key``, or None on a miss."""
        path = self.path_for(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            document = json.loads(text)
        except ValueError:
            self._quarantine(path)
            self.misses += 1
            return None
        if (
            not isinstance(document, dict)
            or document.get("schema") != CACHE_SCHEMA
            or document.get("key") != key
            or "payload" not in document
        ):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return document["payload"]

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside so it is inspectable, not re-read."""
        self.corrupt += 1
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - raced or read-only cache
            pass

    def put(self, key: str, payload: dict[str, Any],
            point: Optional[SweepPoint] = None) -> None:
        """Store ``payload`` under ``key`` atomically."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "point": _canonical(point) if point is not None else None,
            "payload": payload,
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(document, sort_keys=True))
        os.replace(tmp, path)
        self.stores += 1


# ----------------------------------------------------------------------
# Point execution (runs in the parent for jobs=1, in workers otherwise).
# ----------------------------------------------------------------------

def _accepts_observe(fn: Callable) -> bool:
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins etc.
        return False
    return "observe" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def execute_point(point: SweepPoint) -> dict[str, Any]:
    """Run one point; return its encoded result + host telemetry.

    This is the unit of work shipped to pool workers, so it must stay a
    module-level function (picklable by reference) and return only
    JSON-able data.
    """
    fn = resolve_runner(point.runner)
    args: list[Any] = []
    if point.variant is not None:
        args.append(point.variant)
    if point.spec is not None:
        args.append(point.spec)
    kwargs = dict(point.kwargs)
    if point.config is not None:
        kwargs["config"] = point.config
    machines: list[Any] = []
    if _accepts_observe(fn):
        kwargs["observe"] = machines.append
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    wall = time.perf_counter() - t0
    # Per-point host telemetry: forwarded on sweep.point (live per-point
    # throughput for --progress) but never cached — wall numbers belong
    # to this host and run, not to the point's content hash.
    events = sum(machine.sim.events_processed for machine in machines)
    telemetry = {
        "wall_seconds": round(wall, 6),
        "events": events,
        "events_per_second": round(events / wall, 1) if wall > 0 else 0.0,
    }
    return {"result": _encode_result(result), "telemetry": telemetry}


# ----------------------------------------------------------------------
# The sweep.
# ----------------------------------------------------------------------

@dataclass
class PointOutcome:
    """One resolved sweep point.

    ``telemetry`` holds the executing worker's host-side measurements
    (``wall_seconds``, ``events``, ``events_per_second``); empty for
    cache hits, which did no simulation on this host.  ``error`` is set
    (and ``result`` is None) for a point that failed in a sweep run with
    ``quarantine=True``.
    """

    point: SweepPoint
    result: Any
    cached: bool
    key: str
    telemetry: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: int = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    events: Optional[EventBus] = None,
    quarantine: bool = False,
) -> list[PointOutcome]:
    """Resolve every point from ``cache`` or by running it, in input order.

    With ``jobs=1``, or one point left to run, the points run serially in
    this process; otherwise a :class:`ProcessPoolExecutor` of up to
    ``jobs`` workers runs them.  Progress goes to ``events``:
    ``sweep.start``, one ``sweep.point`` per point as it resolves, and
    ``sweep.done``.

    Every point is deterministic, so a point runs once: one that raised
    would raise again.  Its failure aborts the sweep with a
    :class:`SimulationError` naming it, or with ``quarantine=True``
    becomes an outcome whose ``error`` is set.  See :func:`_run_pool`
    for the one failure that is not a property of the point, a pool
    worker's death.
    """
    if isinstance(cache, (str, os.PathLike)):
        cache = ResultCache(cache)
    bus = events if events is not None else EventBus()
    jobs = max(1, int(jobs))
    plan = list(points)
    keys = [point_key(point) for point in plan]
    total = len(plan)
    outcomes: list[Optional[PointOutcome]] = [None] * total
    done = 0
    bus.emit("sweep.start", ts=0, total=total, jobs=jobs)

    def resolve(index: int, payload: Optional[dict[str, Any]] = None,
                error: Optional[BaseException] = None,
                cached: bool = False) -> None:
        """Record point ``index``'s payload or error and publish it."""
        nonlocal done
        point, key = plan[index], keys[index]
        if error is not None:
            message = f"{type(error).__name__}: {error}"
            if not quarantine:
                raise SimulationError(
                    f"sweep point {point.label!r} failed: {message}"
                ) from error
            outcome = PointOutcome(point, None, False, key, error=message)
            extra = {"error": message}
        else:
            if not cached and cache is not None:
                # Cache entries are content-addressed simulation outputs;
                # host-side wall measurements don't belong in them.
                cache.put(key, {"result": payload["result"]}, point)
            outcome = PointOutcome(point, _decode_result(payload["result"]),
                                   cached, key, payload.get("telemetry", {}))
            extra = outcome.telemetry
        outcomes[index] = outcome
        done += 1
        bus.emit("sweep.point", ts=done, index=index, total=total,
                 label=point.label, cached=cached, key=key, **extra)

    pending: list[int] = []
    for index, key in enumerate(keys):
        payload = cache.get(key) if cache is not None else None
        if payload is None:
            pending.append(index)
        else:
            resolve(index, payload, cached=True)
    if jobs > 1 and len(pending) > 1:
        _run_pool(plan, pending, jobs, resolve)
    else:
        for index in pending:
            try:
                payload = execute_point(plan[index])
            except Exception as exc:
                resolve(index, error=exc)
            else:
                resolve(index, payload)
    bus.emit("sweep.done", ts=total, total=total,
             cached=sum(o.cached for o in outcomes),
             executed=sum(not o.cached for o in outcomes))
    return outcomes


def _run_pool(plan: Sequence[SweepPoint], indices: Sequence[int], jobs: int,
              resolve: Callable[..., None]) -> None:
    """Run ``plan[i]`` for each of ``indices`` in a process pool, handing
    each payload or error to ``resolve`` as it completes.

    A worker that dies breaks its pool: every point the pool had not
    resolved fails with ``BrokenProcessPool``, and nothing tells which
    of them killed the worker.  Those points run once more in one fresh
    pool; if a worker dies there too, they fail with its error.  A
    sweep that aborts cancels the points still queued instead of
    waiting for the pool to run them.
    """
    for last_round in (False, True):
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(indices)))
        futures = {pool.submit(execute_point, plan[index]): index
                   for index in indices}
        lost: list[int] = []
        try:
            for future in as_completed(futures):
                index = futures[future]
                try:
                    payload = future.result()
                except Exception as exc:
                    if isinstance(exc, BrokenProcessPool) and not last_round:
                        lost.append(index)
                    else:
                        resolve(index, error=exc)
                else:
                    resolve(index, payload)
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        if not lost:
            return
        indices = sorted(lost)


# ----------------------------------------------------------------------
# Progress reporting.
# ----------------------------------------------------------------------

def attach_progress_printer(
    events: EventBus, stream: Optional[TextIO] = None
) -> int:
    """Subscribe a line-per-point progress printer; returns the token.

    Lines go to ``stream`` (default stderr) so machine-readable stdout
    stays clean:

    .. code-block:: text

        [sweep 3/63] lockfree FAP/INV contention=4 ... (317,204 ev/s)
        [sweep 4/63] lockfree FAP/INV contention=8 ... (cached)
        [sweep] done: 60 cached, 3 simulated
    """
    out = stream if stream is not None else sys.stderr

    def on_event(event) -> None:
        if event.kind == "sweep.point":
            if event.data.get("error"):
                suffix = f" (FAILED: {event.data['error']})"
            elif event.data.get("cached"):
                suffix = " (cached)"
            else:
                eps = event.data.get("events_per_second")
                suffix = f" ({eps:,.0f} ev/s)" if eps else ""
            print(
                f"[sweep {event.ts}/{event.data.get('total', '?')}] "
                f"{event.data.get('label', '')}{suffix}",
                file=out,
                flush=True,
            )
        elif event.kind == "sweep.done":
            print(
                f"[sweep] done: {event.data.get('cached', 0)} cached, "
                f"{event.data.get('executed', 0)} simulated",
                file=out,
                flush=True,
            )

    return events.subscribe(on_event, kinds=("sweep.point", "sweep.done"))
