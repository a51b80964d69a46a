"""Parallel sweep execution.

Every figure and table in the paper is a cross-product of *independent*
simulation points — (primitive variant, sharing-pattern spec, machine
config) triples, each of which builds its own deterministic machine.
This module turns that observation into infrastructure:

* :class:`SweepPoint` — a picklable descriptor of one simulation point:
  which runner to call (by its module-qualified reference, so worker
  processes resolve it by import), with which variant/spec/config/extra
  keyword arguments.
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
    outcomes = run_sweep(points, jobs=4)
    results = [o.result for o in outcomes]

See ``docs/parallel.md`` for the full design.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence, TextIO

from ..config import SimConfig
from ..errors import ConfigError, SimulationError
from ..obs.events import EventBus

__all__ = [
    "SweepPoint",
    "PointOutcome",
    "make_point",
    "run_sweep",
    "runner_ref",
    "resolve_runner",
    "attach_progress_printer",
]


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
# Point descriptors.
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
            (kept picklable and hashable).
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
    """Run one point; return its result + host telemetry.

    This is the unit of work shipped to pool workers, so it must stay a
    module-level function (picklable by reference); a pool worker's
    result reaches the parent by pickle.
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
    # Per-point host telemetry, forwarded on sweep.point (live per-point
    # throughput for --progress).
    events = sum(machine.sim.events_processed for machine in machines)
    telemetry = {
        "wall_seconds": round(wall, 6),
        "events": events,
        "events_per_second": round(events / wall, 1) if wall > 0 else 0.0,
    }
    return {"result": result, "telemetry": telemetry}


# ----------------------------------------------------------------------
# The sweep.
# ----------------------------------------------------------------------

@dataclass
class PointOutcome:
    """One resolved sweep point.

    ``telemetry`` holds the executing worker's host-side measurements
    (``wall_seconds``, ``events``, ``events_per_second``).  ``error`` is
    set (and ``result`` is None) for a point that failed in a sweep run
    with ``quarantine=True``.
    """

    point: SweepPoint
    result: Any
    telemetry: dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None


def run_sweep(
    points: Iterable[SweepPoint],
    jobs: int = 1,
    events: Optional[EventBus] = None,
    quarantine: bool = False,
) -> list[PointOutcome]:
    """Run every point; return their outcomes in input order.

    With ``jobs=1``, or one point, the points run serially in this
    process; otherwise a :class:`ProcessPoolExecutor` of up to ``jobs``
    workers runs them.  Progress goes to ``events``: ``sweep.start``,
    one ``sweep.point`` per point as it resolves, and ``sweep.done``.

    Every point is deterministic, so a point runs once: one that raised
    would raise again.  Its failure aborts the sweep with a
    :class:`SimulationError` naming it, or with ``quarantine=True``
    becomes an outcome whose ``error`` is set.  See :func:`_run_pool`
    for the one failure that is not a property of the point, a pool
    worker's death.
    """
    bus = events if events is not None else EventBus()
    jobs = max(1, int(jobs))
    plan = list(points)
    total = len(plan)
    outcomes: list[Optional[PointOutcome]] = [None] * total
    done = 0
    bus.emit("sweep.start", ts=0, total=total, jobs=jobs)

    def resolve(index: int, payload: Optional[dict[str, Any]] = None,
                error: Optional[BaseException] = None) -> None:
        """Record point ``index``'s payload or error and publish it."""
        nonlocal done
        point = plan[index]
        if error is not None:
            message = f"{type(error).__name__}: {error}"
            if not quarantine:
                raise SimulationError(
                    f"sweep point {point.label!r} failed: {message}"
                ) from error
            outcome = PointOutcome(point, None, error=message)
            extra = {"error": message}
        else:
            outcome = PointOutcome(point, payload["result"],
                                   payload["telemetry"])
            extra = outcome.telemetry
        outcomes[index] = outcome
        done += 1
        bus.emit("sweep.point", ts=done, index=index, total=total,
                 label=point.label, **extra)

    if jobs > 1 and total > 1:
        _run_pool(plan, range(total), jobs, resolve)
    else:
        for index, point in enumerate(plan):
            try:
                payload = execute_point(point)
            except Exception as exc:
                resolve(index, error=exc)
            else:
                resolve(index, payload)
    bus.emit("sweep.done", ts=total, total=total)
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
        [sweep] done: 63 points
    """
    out = stream if stream is not None else sys.stderr

    def on_event(event) -> None:
        if event.kind == "sweep.point":
            if event.data.get("error"):
                suffix = f" (FAILED: {event.data['error']})"
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
            print(f"[sweep] done: {event.data.get('total', 0)} points",
                  file=out, flush=True)

    return events.subscribe(on_event, kinds=("sweep.point", "sweep.done"))
