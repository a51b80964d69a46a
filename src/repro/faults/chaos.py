"""The ``repro chaos`` verification driver.

Chaos runs answer one question: do the paper's atomic primitives stay
*correct* when the machine misbehaves in every way the protocol is
supposed to tolerate?  Each chaos point builds a machine with a seeded
:class:`~repro.faults.plan.FaultPlan`, runs an atomic-counter workload
(fetch_and_add, a CAS retry loop, or an LL/SC retry loop — one history
event per increment via :class:`repro.verify.history.History`), and
gates the run on four independent checks:

* **termination** under a cycle-budget watchdog (``max_events`` on the
  simulator — a livelocked protocol trips it, as does a deadlock);
* the **history checker**
  (:func:`repro.verify.checkers.check_counter_history`): every
  increment's pre-value chains exactly once from 0 to the total — no
  lost or duplicated update survives this under any interleaving;
* **final-value** agreement with the arithmetic expectation *and* with
  the fault-free golden run of the same seed/policy (intensity 0.0 is
  always swept alongside and is bit-identical to a plain run);
* **metric conservation**: every message delivered is counted exactly
  once per type, and every program contributed exactly ``turns``
  history events.

Points fan out through the parallel sweep engine
(:func:`repro.harness.parallel.run_sweep`) with quarantine enabled, so
a point that raises runs once and is reported in the envelope (its
verdict's ``executed`` check holds the error) instead of aborting the
matrix.  The verdict envelope is deliberately free of wall-clock data:
``repro chaos --seed S`` emits the same bytes on every host.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Optional, Sequence

from ..config import SimConfig, small_config
from ..errors import ConfigError, SimulationError
from ..obs.schema import make_run_payload
from ..verify.checkers import CheckFailure, check_counter_history
from ..verify.history import History
from .plan import DEFAULT_CHAOS_PLAN, FaultPlan

__all__ = [
    "CHAOS_WORKLOADS",
    "DEFAULT_MAX_EVENTS",
    "run_chaos_point",
    "run_chaos",
    "render_chaos",
]

#: Cycle-budget watchdog: generous for the small chaos machines (a
#: clean 8-node x 8-turn run needs a few thousand events), tight enough
#: that a livelock fails in well under a second.
DEFAULT_MAX_EVENTS = 2_000_000

DEFAULT_POLICIES = ("INV", "UPD", "UNC")


def _inc_faa(p, addr):
    """One atomic increment via fetch_and_add; returns the pre-value."""
    old = yield p.fetch_add(addr, 1)
    return old


def _inc_cas(p, addr):
    """One atomic increment via a CAS retry loop; returns the pre-value."""
    while True:
        old = yield p.load(addr)
        ok = yield p.cas(addr, old, old + 1)
        if ok:
            return old


def _inc_llsc(p, addr):
    """One atomic increment via an LL/SC retry loop; returns the
    pre-value.  Exercises the reservation-kill fault site."""
    while True:
        linked = yield p.ll(addr)
        ok = yield p.sc(addr, linked.value + 1, linked.token)
        if ok:
            return linked.value


CHAOS_WORKLOADS = {
    "faa": _inc_faa,
    "casloop": _inc_cas,
    "llsc": _inc_llsc,
}


def run_chaos_point(
    policy: str = "INV",
    workload: str = "faa",
    turns: int = 8,
    max_events: int = DEFAULT_MAX_EVENTS,
    intensity: float = 0.0,
    config: Optional[SimConfig] = None,
    observe: Any = None,
) -> dict[str, Any]:
    """Run one faulted machine and return its JSON verdict.

    Sweep-engine compatible: module-level, picklable arguments, and a
    JSON-able return value.  ``intensity`` is informational (the actual
    fault rates live in ``config.faults``); the verdict records it.
    """
    from ..coherence.policy import SyncPolicy
    from ..machine.machine import build_machine

    if workload not in CHAOS_WORKLOADS:
        raise ConfigError(
            f"unknown chaos workload {workload!r}; "
            f"choose from {sorted(CHAOS_WORKLOADS)}"
        )
    try:
        sync_policy = SyncPolicy[policy]
    except KeyError:
        raise ConfigError(f"unknown sync policy {policy!r}") from None
    inc = CHAOS_WORKLOADS[workload]
    cfg = config if config is not None else small_config()
    machine = build_machine(cfg)
    if observe is not None:
        observe(machine)
    addr = machine.alloc_sync(sync_policy, home=0)
    machine.write_word(addr, 0)
    history = History(machine)

    def program(p, addr):
        for _ in range(turns):
            yield from history.wrap(p, "inc", 1, inc(p, addr))

    machine.spawn_all(program, addr)

    checks: dict[str, str] = {}
    try:
        end = machine.run(max_events=max_events)
        checks["terminated"] = "ok"
    except SimulationError as exc:  # DeadlockError included
        end = machine.now
        checks["terminated"] = f"{type(exc).__name__}: {exc}"

    expected = turns * machine.n_nodes
    final: Optional[int] = None
    if checks["terminated"] == "ok":
        final = machine.read_word(addr)
        try:
            check_counter_history(history, initial=0)
            checks["history"] = "ok"
        except CheckFailure as exc:
            checks["history"] = str(exc)
        checks["final_value"] = (
            "ok" if final == expected
            else f"final {final} != expected {expected}"
        )
    snapshot = machine.registry.snapshot()
    checks["conservation"] = _conservation(snapshot, len(history), expected)

    return {
        "policy": policy,
        "workload": workload,
        "seed": cfg.seed,
        "intensity": intensity,
        "fault_seed": cfg.faults.seed if cfg.faults is not None else None,
        "ok": all(value == "ok" for value in checks.values()),
        "checks": checks,
        "end_time": end,
        "events_processed": snapshot.get("sim.events_processed", 0),
        "final": final,
        "expected": expected,
        "faults": {key: value for key, value in snapshot.items()
                   if key.startswith("faults.")},
    }


def _conservation(snapshot: dict[str, Any], history_len: int,
                  expected_events: int) -> str:
    """Metric-conservation invariants that every legal fault preserves."""
    delivered = (snapshot.get("net.messages", 0)
                 + snapshot.get("net.local_messages", 0))
    by_type = sum(value for key, value in snapshot.items()
                  if key.startswith("net.by_type."))
    if delivered != by_type:
        return (f"net.messages+net.local_messages={delivered} but "
                f"sum(net.by_type.*)={by_type}")
    if history_len != expected_events:
        return (f"history recorded {history_len} increments, "
                f"expected {expected_events}")
    return "ok"


def run_chaos(
    seeds: Sequence[int],
    intensities: Iterable[float] = (1.0,),
    policies: Sequence[str] = DEFAULT_POLICIES,
    workload: str = "faa",
    turns: int = 6,
    nodes: int = 8,
    plan: Optional[FaultPlan] = None,
    max_events: int = DEFAULT_MAX_EVENTS,
    config: Optional[SimConfig] = None,
    jobs: int = 1,
    events: Any = None,
) -> dict[str, Any]:
    """Sweep seeds x intensities x policies; return the verdict envelope.

    Intensity 0.0 (the fault-free golden) is always included: every
    faulted point's final value is compared against the golden of its
    (seed, policy) cell.  The returned ``repro.run/1`` payload carries
    the verdict matrix in its ``faults`` section and no host-dependent
    data, so the same arguments produce byte-identical envelopes.
    """
    from ..harness.parallel import make_point, run_sweep

    base_plan = plan if plan is not None else DEFAULT_CHAOS_PLAN
    base = config if config is not None else small_config(n_nodes=nodes)
    levels = sorted({float(level) for level in intensities} | {0.0})
    points = []
    cells = []
    for seed in seeds:
        for policy in policies:
            for level in levels:
                scaled = dataclasses.replace(base_plan, seed=seed).scaled(level)
                cfg = dataclasses.replace(
                    base, seed=seed,
                    faults=scaled if scaled.active else None,
                )
                points.append(make_point(
                    run_chaos_point,
                    config=cfg,
                    label=(f"chaos {workload}/{policy} "
                           f"seed={seed} intensity={level:g}"),
                    policy=policy, workload=workload, turns=turns,
                    max_events=max_events, intensity=level,
                ))
                cells.append((seed, policy, level))

    outcomes = run_sweep(points, jobs=jobs, events=events,
                         quarantine=True)

    golden: dict[tuple[int, str], Any] = {}
    for outcome, (seed, policy, level) in zip(outcomes, cells):
        if level == 0.0 and outcome.error is None:
            golden[(seed, policy)] = outcome.result

    verdicts = []
    for outcome, (seed, policy, level) in zip(outcomes, cells):
        if outcome.error is not None:
            verdicts.append({
                "policy": policy, "workload": workload, "seed": seed,
                "intensity": level, "ok": False,
                "checks": {"executed": outcome.error},
            })
            continue
        verdict = dict(outcome.result)
        reference = golden.get((seed, policy))
        if level > 0.0:
            if reference is None:
                verdict["checks"]["golden"] = "golden run unavailable"
            elif verdict["final"] != reference["final"]:
                verdict["checks"]["golden"] = (
                    f"final {verdict['final']} != "
                    f"golden {reference['final']}"
                )
            else:
                verdict["checks"]["golden"] = "ok"
            verdict["ok"] = all(
                value == "ok" for value in verdict["checks"].values()
            )
        verdicts.append(verdict)

    passed = sum(1 for verdict in verdicts if verdict["ok"])
    section = {
        "plan": base_plan.describe(),
        "workload": workload,
        "turns": turns,
        "nodes": base.machine.n_nodes,
        "seeds": list(seeds),
        "intensities": levels,
        "policies": list(policies),
        "points": len(verdicts),
        "passed": passed,
        "failed": len(verdicts) - passed,
        "verdicts": verdicts,
    }
    params = {
        "seeds": list(seeds), "intensities": levels,
        "policies": list(policies), "workload": workload, "turns": turns,
        "nodes": base.machine.n_nodes, "max_events": max_events,
    }
    results = {
        "points": len(verdicts),
        "passed": passed,
        "failed": len(verdicts) - passed,
        "ok": passed == len(verdicts),
    }
    return make_run_payload("chaos", params, results, faults=section)


def render_chaos(payload: dict[str, Any]) -> str:
    """Human-readable summary of a chaos envelope."""
    section = payload.get("faults", {})
    lines = [
        f"chaos: {section.get('workload')} x {section.get('nodes')} nodes, "
        f"{len(section.get('seeds', []))} seed(s), "
        f"intensities {section.get('intensities')}",
        f"  {section.get('passed', 0)}/{section.get('points', 0)} "
        f"points passed",
    ]
    for verdict in section.get("verdicts", []):
        if verdict.get("ok"):
            continue
        complaints = ", ".join(
            f"{name}: {value}"
            for name, value in verdict.get("checks", {}).items()
            if value != "ok"
        )
        lines.append(
            f"  FAIL {verdict.get('workload')}/{verdict.get('policy')} "
            f"seed={verdict.get('seed')} "
            f"intensity={verdict.get('intensity')}: {complaints}"
        )
    fired: dict[str, int] = {}
    for verdict in section.get("verdicts", []):
        for name, value in verdict.get("faults", {}).items():
            fired[name] = fired.get(name, 0) + value
    if fired:
        lines.append("  injected: " + ", ".join(
            f"{name.removeprefix('faults.')}={value}"
            for name, value in sorted(fired.items())
        ))
    return "\n".join(lines)
