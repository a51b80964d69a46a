"""Conservative-window sharded execution of one machine.

One simulated machine is split into contiguous node regions
(:mod:`repro.network.partition`), each region running on its own
:class:`~repro.machine.machine.Machine` instance with a
:class:`~repro.network.shardmesh.ShardedWormholeMesh`.  A coordinator
advances all regions in lockstep **windows**:

1. Compute ``g`` — the earliest pending event time across all regions,
   including boundary messages still in flight.
2. Run every region up to ``g + lookahead - 1`` (exclusive of
   ``g + lookahead``).  The lookahead is the minimum number of cycles a
   message needs to cross between regions, so nothing sent inside the
   window can *arrive* inside it: regions never see a message late.
3. Exchange outboxes; boundary messages are injected into their
   destination region's arrival buffers before the next window.

Same-cycle cross-boundary arrivals are ordered by the arrival buffers'
canonical ``(tail_arrival, send_time, src, src_seq)`` keys, not by which
region delivered first — so the merged execution is **bit-identical**
for every shard count, including ``shards=1`` (the reference the CI
determinism job diffs against).  Registries merge commutatively
(region order), and final counter values are resolved from per-region
claims (:func:`repro.harness.shardwork.resolve_claims`).

Backends: ``inline`` steps every region in this process (zero IPC —
what the determinism tests and quick perf kernels use); ``process``
forks one worker per region connected by pipes (what ``--shards`` uses
for wall-clock speedup on multicore hosts).

Observability (:mod:`repro.obs.shardobs`): pass ``obs=`` a
:class:`~repro.obs.shardobs.ShardObsOptions` to collect span records, a
host-time profile, and telemetry beats *inside* each worker — over
either backend — shipped with the finish payload and merged here.  The
coordinator itself always measures its synchronization shape (windows,
lookahead utilization, per-shard busy/blocked wall, traffic matrix,
queue depths) into :attr:`ShardOutcome.shard`, and emits one
``shard.progress`` record per window on the optional ``telemetry``
writer / ``events`` bus.  With ``obs=None`` the workers attach nothing:
no timing shim, no heartbeat, and results/metrics are bit-identical to
an unobserved run.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from dataclasses import dataclass, field
from time import monotonic, perf_counter, sleep
from typing import Any, Optional

from ..config import SimConfig
from ..errors import (
    ConfigError,
    DeadlockError,
    SimulationError,
    WorkerCrashError,
    WorkerHangError,
)
from ..machine.machine import build_machine
from ..network.partition import RegionPlan, make_plan
from ..obs.profile import ComponentProfiler, profiled
from ..obs.registry import MetricsRegistry
from ..obs.shardobs import (
    BeatBuffer,
    ShardObsOptions,
    ShardSpanCollector,
    stitched_critpath,
)
from ..obs.telemetry import Heartbeat
from .shardwork import collect_claims, get_workload, resolve_claims

__all__ = ["ShardOutcome", "run_shard"]

#: Window width used when there is a single region: no cross traffic
#: exists, so any width is safe and bigger windows mean fewer rounds.
_SOLO_WINDOW = 1 << 20

#: Worker heartbeat period (seconds) when a window watchdog is armed.
#: Beats classify an overdue worker as hung-but-alive vs crashed; they
#: never extend the deadline (a live heartbeat thread says nothing
#: about the simulation loop making progress).
_HEARTBEAT_PERIOD = 0.5

#: Poll granularity of the watchdog receive loop, seconds.
_POLL_STEP = 0.05

#: Cap on the exponential retry backoff, seconds.
_BACKOFF_CAP = 30.0


@dataclass
class ShardOutcome:
    """One sharded run's merged, shard-count-invariant outputs.

    ``results`` and ``metrics`` are pure simulation outputs (identical
    for every shard count and backend), and so is ``critpath`` — the
    stitched critical-path blame when span collection was enabled.
    ``info`` describes the run's *shape* (window count, lookahead,
    boundary traffic, backend) and belongs in the envelope's ``perf``
    section; ``shard`` is the host-dependent sync-metrics section
    (wall times, traffic matrix, merged profile, stitch/telemetry
    stats).  Determinism diffs strip both.  ``graphs`` holds the
    stitched :class:`~repro.obs.spans.TxnSpanGraph` objects for callers
    that want more than the aggregate.
    """

    results: dict[str, Any]
    metrics: dict[str, Any]
    info: dict[str, Any]
    arrival_logs: list[list[tuple]] = field(default_factory=list)
    shard: Optional[dict[str, Any]] = None
    critpath: Optional[dict[str, Any]] = None
    graphs: list[Any] = field(default_factory=list)


# ----------------------------------------------------------------------
# One region's worker (used directly inline, or inside a forked process).
# ----------------------------------------------------------------------

class _ShardWorker:
    """Owns one region's machine; steps it window by window."""

    def __init__(
        self,
        config: SimConfig,
        regions: tuple[tuple[int, ...], ...],
        index: int,
        workload_name: str,
        turns: int,
        log_arrivals: bool = False,
        obs: Optional[ShardObsOptions] = None,
    ) -> None:
        self.profiler: Optional[ComponentProfiler] = None
        self.collector: Optional[ShardSpanCollector] = None
        self.beats: Optional[BeatBuffer] = None
        self.busy_seconds = 0.0
        if obs is not None and obs.profile:
            # The simulator picks up the active profiler at
            # construction, so the session only needs to span the build.
            self.profiler = ComponentProfiler()
            with profiled(self.profiler):
                self.machine = build_machine(config, region=regions[index])
        else:
            self.machine = build_machine(config, region=regions[index])
        if log_arrivals:
            self.machine.mesh.arrival_log = []
        if obs is not None and obs.spans:
            self.collector = ShardSpanCollector(self.machine.events)
            self.machine.mesh.span_log = self.collector.records
        if obs is not None and obs.telemetry_every > 0:
            self.beats = BeatBuffer()
            Heartbeat(self.machine, every=obs.telemetry_every,
                      writer=self.beats)
        workload = get_workload(workload_name)
        self.ctx = workload.setup(self.machine, turns)
        workload.spawn(self.machine, self.ctx, turns)

    def next_time(self) -> Optional[int]:
        return self.machine.sim.next_event_time()

    def step(
        self, until: int, inbox: list
    ) -> tuple[Optional[int], list, int, int]:
        """Run one window; reply (next event, outbox, events, depth)."""
        t0 = perf_counter()
        mesh = self.machine.mesh
        if inbox:
            mesh.inject(inbox)
        sim = self.machine.sim
        sim.run(until=until)
        self.busy_seconds += perf_counter() - t0
        outbox = mesh.take_outbox()
        return (sim.next_event_time(), outbox, sim.events_processed,
                mesh.in_flight())

    def finish(self) -> dict[str, Any]:
        machine = self.machine
        finish_times = [
            node.processor.finish_time
            for node in machine.nodes
            if node is not None and node.processor.finish_time is not None
        ]
        blocked = [
            node.processor.process.name
            for node in machine.nodes
            if node is not None
            and node.processor.process is not None
            and not node.processor.process.done
        ]
        return {
            "claims": collect_claims(machine, self.ctx),
            "expected": self.ctx["expected"],
            "snapshot": machine.registry.snapshot(),
            "running": machine._running_programs,
            "blocked": blocked,
            "finish_time": max(finish_times) if finish_times else 0,
            "arrivals": machine.mesh.arrival_log,
            "events": machine.sim.events_processed,
            "busy_seconds": self.busy_seconds,
            "records": (self.collector.records
                        if self.collector is not None else None),
            "profile": (self.profiler.snapshot()
                        if self.profiler is not None else None),
            "beats": self.beats.records if self.beats is not None else [],
        }


# ----------------------------------------------------------------------
# Backends.
# ----------------------------------------------------------------------

class _InlineBackend:
    """All regions stepped in this process (no IPC, no pickling)."""

    def __init__(self, config, plan, workload, turns, log_arrivals, obs,
                 window_timeout=None):
        # window_timeout is accepted for signature parity with the
        # process backend; an inline run cannot hang asynchronously.
        self.workers = [
            _ShardWorker(config, plan.regions, i, workload, turns,
                         log_arrivals, obs)
            for i in range(plan.n_shards)
        ]

    def start(self) -> list[Optional[int]]:
        return [w.next_time() for w in self.workers]

    def step_all(self, until, inboxes):
        return [
            w.step(until, inbox)
            for w, inbox in zip(self.workers, inboxes)
        ]

    def finish_all(self) -> list[dict[str, Any]]:
        return [w.finish() for w in self.workers]

    def close(self) -> None:
        pass


#: Parent-side pipe ends created so far, so each forked worker can close
#: the ones it inherited: a leaked duplicate would keep a sibling's pipe
#: open and turn the coordinator's ``conn.close()`` EOF signal (prompt
#: worker exit, fast ``close()``) into a 5s join timeout per worker.
_PARENT_CONNS: list[Any] = []


def _worker_main(conn, config, regions, index, workload, turns,
                 log_arrivals, obs, heartbeat: float = 0.0) -> None:
    """Pipe-served region worker (child process entry point).

    When ``heartbeat`` is positive a daemon thread sends ``("beat", t)``
    records every ``heartbeat`` seconds so the coordinator's window
    watchdog can tell a hung-but-alive worker from a dead one.  All pipe
    writes are serialized through one lock — a beat must never interleave
    bytes with a reply.
    """
    for inherited in _PARENT_CONNS:
        try:
            inherited.close()
        except OSError:  # pragma: no cover
            pass
    _PARENT_CONNS.clear()
    lock = threading.Lock()
    stop = threading.Event()

    def send(item) -> None:
        with lock:
            conn.send(item)

    if heartbeat > 0:
        def _beat() -> None:
            while not stop.wait(heartbeat):
                try:
                    send(("beat", monotonic()))
                except OSError:  # pragma: no cover - parent gone
                    return

        threading.Thread(target=_beat, daemon=True).start()
    try:
        worker = _ShardWorker(config, regions, index, workload, turns,
                              log_arrivals, obs)
        send(("ready", worker.next_time()))
        while True:
            request = conn.recv()
            if request[0] == "step":
                send(("stepped", worker.step(request[1], request[2])))
            elif request[0] == "finish":
                send(("finished", worker.finish()))
                return
            else:  # pragma: no cover - protocol misuse
                raise SimulationError(f"unknown request {request[0]!r}")
    except Exception as exc:
        try:
            send(("error",
                  f"{type(exc).__name__}: {exc}\n"
                  f"{traceback.format_exc()}"))
        except OSError:  # pragma: no cover - parent already gone
            pass
    finally:
        stop.set()
        with lock:
            conn.close()


class _ProcessBackend:
    """One forked process per region, star-connected by pipes.

    With ``window_timeout`` set, every reply wait runs under a
    wall-clock watchdog: the workers heartbeat every
    :data:`_HEARTBEAT_PERIOD` seconds, and an overdue reply is
    classified as :class:`~repro.errors.WorkerHangError` (process alive
    — heartbeats only prove liveness, they never extend the deadline)
    or :class:`~repro.errors.WorkerCrashError` (process dead / pipe
    EOF).  Both are retryable by :func:`run_shard`.
    """

    def __init__(self, config, plan, workload, turns, log_arrivals, obs,
                 window_timeout=None):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        self.window_timeout = window_timeout
        heartbeat = _HEARTBEAT_PERIOD if window_timeout is not None else 0.0
        self.conns = []
        self.procs = []
        try:
            for i in range(plan.n_shards):
                parent, child = ctx.Pipe()
                # Registered before the fork so the child (which clones
                # this module's globals) can close the inherited ends.
                _PARENT_CONNS.append(parent)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, config, plan.regions, i, workload, turns,
                          log_arrivals, obs, heartbeat),
                    daemon=True,
                )
                proc.start()
                child.close()
                self.conns.append(parent)
                self.procs.append(proc)
        finally:
            _PARENT_CONNS.clear()

    def _cleanup_for(self, exc: SimulationError) -> None:
        """Tear the pool down without masking the failure being raised.

        The run is being aborted, so surviving workers are terminated
        up front rather than waiting out ``close()``'s graceful join —
        a hung sibling would otherwise stall every retry by 5s.
        """
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        try:
            self.close()
        except SimulationError:  # pragma: no cover - unkillable leftover
            pass
        raise exc

    def _crashed(self, index: int) -> None:
        proc = self.procs[index]
        proc.join(timeout=1)
        self._cleanup_for(WorkerCrashError(
            f"shard worker {index} (pid {proc.pid}) died mid-window "
            f"(exitcode {proc.exitcode})"
        ))

    def _hung(self, index: int, last_beat: Optional[float]) -> None:
        age = (f"{monotonic() - last_beat:.1f}s ago"
               if last_beat is not None else "never seen")
        self._cleanup_for(WorkerHangError(
            f"shard worker {index} (pid {self.procs[index].pid}) exceeded "
            f"the {self.window_timeout}s window watchdog while alive "
            f"(last heartbeat: {age})"
        ))

    def _recv(self, index: int, want: str):
        conn = self.conns[index]
        timeout = self.window_timeout
        deadline = None if timeout is None else monotonic() + timeout
        last_beat: Optional[float] = None
        while True:
            try:
                if deadline is not None:
                    remaining = deadline - monotonic()
                    if remaining <= 0:
                        if not self.procs[index].is_alive():
                            self._crashed(index)
                        self._hung(index, last_beat)
                    if not conn.poll(min(remaining, _POLL_STEP)):
                        continue
                kind, payload = conn.recv()
            except (EOFError, OSError):
                self._crashed(index)
            if kind == "beat":
                last_beat = payload
                continue
            if kind == "error":
                self._cleanup_for(
                    SimulationError(f"shard worker failed:\n{payload}")
                )
            if kind != want:  # pragma: no cover - protocol misuse
                self._cleanup_for(
                    SimulationError(f"expected {want!r}, got {kind!r}")
                )
            return payload

    def start(self) -> list[Optional[int]]:
        return [self._recv(i, "ready") for i in range(len(self.conns))]

    def step_all(self, until, inboxes):
        for conn, inbox in zip(self.conns, inboxes):
            conn.send(("step", until, inbox))
        return [self._recv(i, "stepped") for i in range(len(self.conns))]

    def finish_all(self) -> list[dict[str, Any]]:
        for conn in self.conns:
            conn.send(("finish",))
        return [self._recv(i, "finished") for i in range(len(self.conns))]

    def close(self) -> None:
        """Tear down workers, escalating join -> terminate -> kill.

        Idempotent.  A worker that survives ``kill()`` (unkillable — for
        example stuck in the kernel) is surfaced as
        :class:`~repro.errors.SimulationError` listing the leaked pids
        instead of being silently abandoned.
        """
        conns, self.conns = self.conns, []
        procs, self.procs = self.procs, []
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        leaked = []
        for proc in procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - terminate ignored
                proc.kill()
                proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - unkillable
                leaked.append(proc.pid)
        if leaked:  # pragma: no cover - unkillable workers
            raise SimulationError(
                f"shard worker process(es) leaked after kill: pids {leaked}"
            )


_BACKENDS = {"inline": _InlineBackend, "process": _ProcessBackend}


# ----------------------------------------------------------------------
# The coordinator.
# ----------------------------------------------------------------------

def run_shard(
    config: SimConfig,
    workload: str = "golden_contention",
    shards: int = 1,
    turns: int = 8,
    backend: str = "inline",
    cuts: tuple[int, ...] | None = None,
    plan: RegionPlan | None = None,
    log_arrivals: bool = False,
    window: int | None = None,
    obs: Optional[ShardObsOptions] = None,
    telemetry: Optional[Any] = None,
    events: Optional[Any] = None,
    retries: int = 1,
    retry_backoff: float = 0.25,
    window_timeout: Optional[float] = None,
) -> ShardOutcome:
    """Run ``workload`` on a machine split into ``shards`` regions.

    Returns a :class:`ShardOutcome` whose ``results`` and ``metrics``
    are identical for every ``shards``/``backend`` choice.  ``plan``
    (or ``cuts``) overrides the default even partition — the property
    tests use it to explore arbitrary contiguous region splits.

    ``window`` widens the synchronization window beyond the safe
    lookahead — an assertion by the caller that the workload's traffic
    never crosses regions (e.g. ``local_faa``).  It trades rounds for
    throughput; it can never trade correctness for throughput, because
    a boundary message arriving inside a too-wide window raises
    :class:`~repro.errors.SimulationError` instead of being delivered
    late.

    ``obs`` enables in-worker observability (spans / profile /
    telemetry beats; see :class:`~repro.obs.shardobs.ShardObsOptions`),
    ``telemetry`` receives one ``shard.progress`` JSONL record per
    window (plus the workers' shipped heartbeats), and ``events`` is an
    optional coordinator-side :class:`~repro.obs.events.EventBus` for
    the same per-window progress.  All three default to off, leaving
    the workers unobserved.

    Self-healing (``process`` backend; see ``docs/robustness.md``):
    ``window_timeout`` arms a per-reply wall-clock watchdog backed by a
    worker heartbeat that classifies an overdue window as
    :class:`~repro.errors.WorkerHangError` (alive but stuck) or
    :class:`~repro.errors.WorkerCrashError` (process died / pipe EOF).
    Because the simulation is deterministic, either failure is safely
    retried from scratch up to ``retries`` times with capped exponential
    backoff (``retry_backoff * 2**(attempt-1)``, capped at
    :data:`_BACKOFF_CAP` seconds), emitting a ``shard.retry`` event per
    attempt; a retried run produces the same :class:`ShardOutcome` as an
    unperturbed one, except for ``info["attempts"]``.
    """
    if backend not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise ConfigError(f"unknown backend {backend!r} (known: {known})")
    if plan is None:
        plan = make_plan(config, shards, cuts)
    else:
        plan.validate()
    get_workload(workload)  # fail fast on unknown names
    if obs is not None and not obs.enabled:
        obs = None

    retries = max(0, int(retries))
    attempt = 1
    while True:
        try:
            outcome = _run_shard_once(
                config, workload, turns, backend, plan, log_arrivals,
                window, obs, telemetry, events, window_timeout,
            )
        except (WorkerCrashError, WorkerHangError) as exc:
            if attempt > retries:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            if events is not None and getattr(events, "active", False):
                events.emit("shard.retry", 0, attempt=attempt,
                            reason=reason)
            if telemetry is not None:
                telemetry.write({"record": "shard.retry",
                                 "attempt": attempt, "reason": reason})
            sleep(min(retry_backoff * 2 ** (attempt - 1), _BACKOFF_CAP))
            attempt += 1
            continue
        outcome.info["attempts"] = attempt
        return outcome


def _run_shard_once(
    config: SimConfig,
    workload: str,
    turns: int,
    backend: str,
    plan: RegionPlan,
    log_arrivals: bool,
    window: int | None,
    obs: Optional[ShardObsOptions],
    telemetry: Optional[Any],
    events: Optional[Any],
    window_timeout: Optional[float],
) -> ShardOutcome:
    """One attempt of the coordinator loop (see :func:`run_shard`)."""
    membership = plan.membership()
    n_shards = plan.n_shards
    width = plan.lookahead if n_shards > 1 else _SOLO_WINDOW
    if window is not None and window > width:
        width = window

    runner = _BACKENDS[backend](config, plan, workload, turns,
                                log_arrivals, obs,
                                window_timeout=window_timeout)
    windows = 0
    boundary_messages = 0
    traffic = [[0] * n_shards for _ in range(n_shards)]
    max_outbox = 0
    max_depth = 0
    advance_total = 0
    prev_g: Optional[int] = None
    last_events = [0] * n_shards
    live = telemetry is not None or (events is not None
                                     and getattr(events, "active", False))
    loop_wall = 0.0
    try:
        next_times = runner.start()
        inboxes: list[list] = [[] for _ in range(n_shards)]
        loop_t0 = perf_counter()
        last_beat = loop_t0
        while True:
            g: Optional[int] = None
            for t in next_times:
                if t is not None and (g is None or t < g):
                    g = t
            for inbox in inboxes:
                for entry in inbox:
                    if g is None or entry[0] < g:
                        g = entry[0]
            if g is None:
                break
            until = g + width - 1
            stepped = runner.step_all(until, inboxes)
            next_times = [s[0] for s in stepped]
            inboxes = [[] for _ in range(n_shards)]
            for src_shard, (_, outbox, _, depth) in enumerate(stepped):
                for entry in outbox:
                    dst_shard = membership[entry[4]]
                    traffic[src_shard][dst_shard] += 1
                    inboxes[dst_shard].append(entry)
                boundary_messages += len(outbox)
                if len(outbox) > max_outbox:
                    max_outbox = len(outbox)
                if depth > max_depth:
                    max_depth = depth
            if prev_g is not None:
                advance_total += g - prev_g
            prev_g = g
            windows += 1
            deltas = [s[2] - e for s, e in zip(stepped, last_events)]
            last_events = [s[2] for s in stepped]
            if live:
                now_wall = perf_counter()
                dt = now_wall - last_beat
                last_beat = now_wall
                eps = [round(d / dt, 1) if dt > 0 else 0.0 for d in deltas]
                in_flight = sum(len(inbox) for inbox in inboxes)
                if telemetry is not None:
                    telemetry.write({
                        "record": "shard.progress", "window": windows,
                        "bound": g, "until": until, "events": last_events,
                        "events_per_second": eps, "in_flight": in_flight,
                    })
                if events is not None and events.active:
                    events.emit("shard.progress", g, window=windows,
                                bound=g, until=until, events=last_events,
                                events_per_second=eps, in_flight=in_flight)
        loop_wall = perf_counter() - loop_t0
        finished = runner.finish_all()
    finally:
        runner.close()

    running = sum(f["running"] for f in finished)
    if running > 0:
        blocked = [name for f in finished for name in f["blocked"]]
        raise DeadlockError(
            f"sharded run drained with {running} program(s) blocked: "
            f"{blocked[:8]}"
        )
    merged = MetricsRegistry()
    for f in finished:
        merged.merge_snapshot(f["snapshot"])
    metrics = merged.snapshot()
    counters = resolve_claims([f["claims"] for f in finished])
    expected = finished[0]["expected"]
    results = {
        "workload": workload,
        "counters": counters,
        "expected": expected,
        "match": counters == expected,
        "end_time": max(f["finish_time"] for f in finished),
        "events": metrics.get("sim.events_processed", 0),
    }
    info = {
        "shards": n_shards,
        "backend": backend,
        "lookahead": plan.lookahead,
        "windows": windows,
        "boundary_messages": boundary_messages,
    }

    # Sync metrics: the coordinator's own shape + per-shard wall split.
    busy = [float(f.get("busy_seconds", 0.0)) for f in finished]
    shard_section: dict[str, Any] = {
        "sync": {
            "shards": n_shards,
            "backend": backend,
            "lookahead": plan.lookahead,
            "window": width,
            "windows": windows,
            "boundary_messages": boundary_messages,
            "avg_window_advance": (round(advance_total / (windows - 1), 3)
                                   if windows > 1 else float(width)),
            "lookahead_utilization": (
                round(advance_total / ((windows - 1) * width), 4)
                if windows > 1 else 1.0
            ),
            "wall_seconds": round(loop_wall, 6),
            "traffic_matrix": traffic,
            "max_outbox_depth": max_outbox,
            "max_arrival_depth": max_depth,
            "per_shard": [
                {
                    "shard": i,
                    "nodes": len(plan.regions[i]),
                    "events": int(f.get("events", 0)),
                    "busy_seconds": round(b, 6),
                    "blocked_seconds": round(max(0.0, loop_wall - b), 6),
                    "busy_share": (round(b / loop_wall, 4)
                                   if loop_wall > 0 else 0.0),
                }
                for i, (f, b) in enumerate(zip(finished, busy))
            ],
        },
    }

    profile_snapshot = None
    if obs is not None and obs.profile:
        merged_prof = ComponentProfiler()
        for f in finished:
            if f.get("profile"):
                merged_prof.merge_snapshot(f["profile"])
        profile_snapshot = merged_prof.snapshot()
        shard_section["profile"] = profile_snapshot

    if obs is not None and obs.telemetry_every > 0:
        beats_per_shard = [len(f.get("beats") or []) for f in finished]
        if telemetry is not None:
            for i, f in enumerate(finished):
                for beat in f.get("beats") or []:
                    telemetry.write({**beat, "shard": i})
        shard_section["telemetry"] = {
            "every": obs.telemetry_every,
            "beats": sum(beats_per_shard),
            "per_shard": beats_per_shard,
        }

    critpath = None
    graphs: list[Any] = []
    if obs is not None and obs.spans:
        critpath, graphs, stitch_stats = stitched_critpath(
            [f.get("records") or [] for f in finished]
        )
        shard_section["stitch"] = stitch_stats

    arrival_logs = [f["arrivals"] for f in finished] if log_arrivals else []
    return ShardOutcome(results=results, metrics=metrics, info=info,
                        arrival_logs=arrival_logs, shard=shard_section,
                        critpath=critpath, graphs=graphs)
