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
* :class:`SweepExecutor` / :func:`run_sweep` — execute a list of points
  either serially in-process (``jobs=1``, bit-identical to the historic
  nested-loop drivers) or spread across a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Results always come
  back in input order, and progress is published on an
  :class:`~repro.obs.events.EventBus` (``sweep.start`` / ``sweep.point``
  / ``sweep.done``).

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
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, TextIO

from ..apps.common import AppResult
from ..config import SimConfig
from ..errors import ConfigError, SimulationError, WorkerHangError
from ..obs.events import EventBus

__all__ = [
    "SweepPoint",
    "PointOutcome",
    "ResultCache",
    "SweepExecutor",
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
# The executor.
# ----------------------------------------------------------------------

@dataclass
class PointOutcome:
    """One resolved sweep point.

    ``telemetry`` holds the executing worker's host-side measurements
    (``wall_seconds``, ``events``, ``events_per_second``); empty for
    cache hits, which did no simulation on this host.  ``error`` is set
    (and ``result`` is None) for a point quarantined after exhausting
    its retries; ``attempts`` counts executions including the
    successful one.
    """

    point: SweepPoint
    result: Any
    cached: bool
    key: str
    telemetry: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None
    attempts: int = 1


#: Retry backoff sleeps are capped so a deep retry budget cannot stall
#: a sweep for minutes between attempts.
_BACKOFF_CAP = 30.0


class SweepExecutor:
    """Run independent sweep points, optionally in parallel and cached.

    Results are returned in input order regardless of completion order,
    and progress is emitted on :attr:`events`.

    Failure handling (``docs/robustness.md``): a point whose execution
    raises (or whose worker process dies) is retried up to ``retries``
    times with capped exponential backoff.  A point still running after
    ``point_timeout`` seconds is classified as hung; its pool is killed
    and the point fails immediately — a deterministic hang would only
    hang again, so timeouts are never retried.  With
    ``quarantine=True`` an exhausted point becomes a
    :class:`PointOutcome` with ``error`` set instead of aborting the
    sweep, so one poisoned point cannot sink a thousand-point run.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | str | os.PathLike | None = None,
        events: Optional[EventBus] = None,
        retries: int = 0,
        retry_backoff: float = 0.25,
        point_timeout: Optional[float] = None,
        quarantine: bool = False,
    ) -> None:
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache)
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.events = events if events is not None else EventBus()
        self.retries = max(0, int(retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.point_timeout = point_timeout
        self.quarantine = quarantine

    def run(self, points: Iterable[SweepPoint]) -> list[PointOutcome]:
        """Resolve every point; see the class docstring for guarantees."""
        plan = list(points)
        total = len(plan)
        self.events.emit("sweep.start", ts=0, total=total, jobs=self.jobs)
        keys = [point_key(p) for p in plan]
        outcomes: list[Optional[PointOutcome]] = [None] * total
        pending: list[int] = []
        done = 0
        for i, (point, key) in enumerate(zip(plan, keys)):
            payload = self.cache.get(key) if self.cache is not None else None
            if payload is not None:
                outcomes[i] = self._outcome(point, key, payload, cached=True)
                done += 1
                self._emit_point(outcomes[i], i, done, total)
            else:
                pending.append(i)
        if pending and self.jobs > 1 and len(pending) > 1:
            done = self._run_pool(plan, keys, pending, outcomes, done, total)
        else:
            for i in pending:
                outcomes[i] = self._execute_with_retry(plan[i], keys[i])
                done += 1
                self._emit_point(outcomes[i], i, done, total)
        resolved = [o for o in outcomes if o is not None]
        self.events.emit(
            "sweep.done",
            ts=total,
            total=total,
            cached=sum(o.cached for o in resolved),
            executed=sum(not o.cached for o in resolved),
        )
        return resolved

    # ------------------------------------------------------------------
    # Failure handling.
    # ------------------------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        """Sleep before retry number ``attempt`` (capped exponential)."""
        delay = min(self.retry_backoff * (2 ** (attempt - 1)), _BACKOFF_CAP)
        if delay > 0:
            time.sleep(delay)

    def _failed(
        self, point: SweepPoint, key: str, exc: BaseException, attempts: int,
    ) -> PointOutcome:
        """Quarantine an exhausted point, or abort the sweep."""
        error = f"{type(exc).__name__}: {exc}"
        if not self.quarantine:
            raise SimulationError(
                f"sweep point {point.label!r} failed after {attempts} "
                f"attempt(s): {error}"
            ) from exc
        return PointOutcome(
            point=point, result=None, cached=False, key=key,
            error=error, attempts=attempts,
        )

    def _execute_with_retry(self, point: SweepPoint, key: str) -> PointOutcome:
        attempt = 1
        while True:
            try:
                payload = execute_point(point)
            except Exception as exc:
                if attempt <= self.retries:
                    self._backoff(attempt)
                    attempt += 1
                    continue
                return self._failed(point, key, exc, attempt)
            return self._store(point, key, payload, attempts=attempt)

    def _run_pool(
        self,
        plan: Sequence[SweepPoint],
        keys: Sequence[str],
        pending: Sequence[int],
        outcomes: list,
        done: int,
        total: int,
    ) -> int:
        """Drain ``pending`` through a process pool; returns new ``done``.

        The pool runs futures in submission order, so the oldest
        ``workers`` unfinished futures are the ones (approximately) on
        a core; only those are on the ``point_timeout`` clock.  A hung
        or crashed worker poisons its ``ProcessPoolExecutor``, which
        cannot cancel running futures — both paths therefore kill the
        pool outright, rebuild it, and resubmit the innocent unfinished
        points.
        """
        workers = min(self.jobs, len(pending))
        attempts = {i: 1 for i in pending}
        pool = ProcessPoolExecutor(max_workers=workers)
        futures: dict[Any, int] = {}
        order: list[Any] = []
        deadlines: dict[Any, float] = {}

        def submit(index: int) -> None:
            future = pool.submit(execute_point, plan[index])
            futures[future] = index
            order.append(future)

        def kill_pool() -> None:
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already dead
                    pass
            pool.shutdown(wait=False, cancel_futures=True)

        def resolve_failure(index: int, exc: BaseException) -> None:
            nonlocal done
            outcomes[index] = self._failed(
                plan[index], keys[index], exc, attempts[index]
            )
            done += 1
            self._emit_point(outcomes[index], index, done, total)

        try:
            for i in pending:
                submit(i)
            while futures:
                live = [f for f in order if f in futures]
                running = live[:workers]
                timeout = None
                if self.point_timeout is not None:
                    now = time.monotonic()
                    for future in running:
                        deadlines.setdefault(future, now + self.point_timeout)
                    timeout = max(
                        0.0, min(deadlines[f] for f in running) - now
                    )
                finished, _ = wait(
                    set(futures), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not finished:
                    now = time.monotonic()
                    overdue = [f for f in running
                               if deadlines.get(f, now + 1.0) <= now]
                    if not overdue:
                        continue
                    # Hung workers: fail their points (a deterministic
                    # hang would hang every retry), kill the poisoned
                    # pool, and resubmit the innocent unfinished points.
                    for future in overdue:
                        index = futures.pop(future)
                        deadlines.pop(future, None)
                        resolve_failure(index, WorkerHangError(
                            f"sweep point {plan[index].label!r} still "
                            f"running after {self.point_timeout}s"
                        ))
                    survivors = sorted(futures.values())
                    futures.clear()
                    order.clear()
                    deadlines.clear()
                    kill_pool()
                    pool = ProcessPoolExecutor(max_workers=workers)
                    for index in survivors:
                        submit(index)
                    continue
                broken: Optional[BaseException] = None
                for future in finished:
                    index = futures.pop(future)
                    deadlines.pop(future, None)
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        # The dying worker poisons every in-flight
                        # future; finish collecting any real results
                        # from this round, then handle the rest below.
                        futures[future] = index
                        broken = exc
                        continue
                    except Exception as exc:
                        if attempts[index] <= self.retries:
                            attempts[index] += 1
                            self._backoff(attempts[index] - 1)
                            submit(index)
                        else:
                            resolve_failure(index, exc)
                        continue
                    outcomes[index] = self._store(
                        plan[index], keys[index], payload,
                        attempts=attempts[index],
                    )
                    done += 1
                    self._emit_point(outcomes[index], index, done, total)
                if broken is not None:
                    # Which point killed the worker is unknowable from
                    # here, so the crash round counts against every
                    # in-flight point; retries bound the total rounds.
                    crashed = sorted(futures.values())
                    futures.clear()
                    order.clear()
                    deadlines.clear()
                    kill_pool()
                    pool = ProcessPoolExecutor(max_workers=workers)
                    retry: list[int] = []
                    for index in crashed:
                        if attempts[index] <= self.retries:
                            attempts[index] += 1
                            retry.append(index)
                        else:
                            resolve_failure(index, broken)
                    if retry:
                        self._backoff(max(attempts[i] for i in retry) - 1)
                        for index in retry:
                            submit(index)
        finally:
            if futures:
                # Abnormal exit: never block on stuck or dead workers.
                kill_pool()
            else:
                pool.shutdown()
        return done

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _outcome(
        self,
        point: SweepPoint,
        key: str,
        payload: dict[str, Any],
        cached: bool,
        attempts: int = 1,
    ) -> PointOutcome:
        return PointOutcome(
            point=point,
            result=_decode_result(payload["result"]),
            cached=cached,
            key=key,
            telemetry=payload.get("telemetry", {}),
            attempts=attempts,
        )

    def _store(
        self, point: SweepPoint, key: str, payload: dict[str, Any],
        attempts: int = 1,
    ) -> PointOutcome:
        if self.cache is not None:
            # Cache entries are content-addressed simulation outputs;
            # host-side wall measurements don't belong in them.
            self.cache.put(key, {"result": payload["result"]}, point)
        return self._outcome(point, key, payload, cached=False,
                             attempts=attempts)

    def _emit_point(
        self, outcome: PointOutcome, index: int, done: int, total: int
    ) -> None:
        extra: dict[str, Any] = dict(outcome.telemetry)
        if outcome.error is not None:
            extra["error"] = outcome.error
        if outcome.attempts > 1:
            extra["attempts"] = outcome.attempts
        self.events.emit(
            "sweep.point",
            ts=done,
            index=index,
            total=total,
            label=outcome.point.label,
            cached=outcome.cached,
            key=outcome.key,
            **extra,
        )


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: int = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    events: Optional[EventBus] = None,
    retries: int = 0,
    retry_backoff: float = 0.25,
    point_timeout: Optional[float] = None,
    quarantine: bool = False,
) -> list[PointOutcome]:
    """Convenience wrapper: build a :class:`SweepExecutor` and run it."""
    executor = SweepExecutor(
        jobs=jobs, cache=cache, events=events, retries=retries,
        retry_backoff=retry_backoff, point_timeout=point_timeout,
        quarantine=quarantine,
    )
    return executor.run(points)


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
