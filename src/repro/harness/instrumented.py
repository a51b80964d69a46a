"""Representative instrumented runs for ``repro stats`` / ``repro trace``.

Full experiments build many machines internally and throw their metrics
away with each; for interactive inspection we instead run one small,
*representative* configuration of each experiment with the full
observability stack attached — an
:class:`~repro.obs.events.EventRecorder`, a
:class:`~repro.obs.spans.SpanBuilder` (causal span graphs per
transaction), and a :class:`~repro.obs.hotspot.HotspotTracker` (per-line
contention) — and hand back the live machine, so its registry, latency
tracker, span graphs, and recorded events can be rendered or exported.

.. code-block:: python

    run = run_instrumented("table1")
    print(run.machine.registry.render())
    print(run.critpath().render())
    print(export_events(run.recorder.events, "chrome"))
    payload = run.payload()          # full repro.run/1 envelope
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..apps.synthetic import (
    SyntheticSpec,
    run_lockfree_counter,
    run_mcs_counter,
    run_tts_counter,
)
from ..apps.tclosure import run_transitive_closure
from ..coherence.policy import SyncPolicy
from ..config import SimConfig, small_config
from ..errors import ConfigError
from ..machine.machine import Machine, build_machine
from ..obs.critpath import CritPathAggregator
from ..obs.events import EventRecorder
from ..obs.hotspot import HotspotTracker
from ..obs.schema import make_run_payload
from ..obs.spans import SpanBuilder
from ..sync.variant import PrimitiveVariant

__all__ = [
    "InstrumentedRun",
    "INSTRUMENTED_EXPERIMENTS",
    "READS_TURNS",
    "run_instrumented",
]

#: What a representative run calls with the machine it builds, before
#: any program runs.
Observe = Callable[[Machine], None]


@dataclass
class InstrumentedRun:
    """A finished representative run with its instruments still attached."""

    experiment: str
    description: str
    machine: Machine
    recorder: EventRecorder
    spans: SpanBuilder
    hotspots: HotspotTracker
    #: Wall-clock seconds the run itself took (machine build + program).
    wall_seconds: float = 0.0

    @property
    def events_per_second(self) -> float:
        """Simulated events executed per wall-clock second."""
        if not self.wall_seconds:
            return 0.0
        return self.machine.sim.events_processed / self.wall_seconds

    def critpath(self, worst: int = 8) -> CritPathAggregator:
        """Critical-path attribution over the run's remote transactions."""
        return CritPathAggregator.from_graphs(self.spans.completed,
                                              worst=worst)

    def payload(self, params: Optional[dict[str, Any]] = None,
                top_hotspots: int = 10,
                profile: Optional[dict[str, Any]] = None) -> dict[str, Any]:
        """The run as a full ``repro.run/1`` envelope.

        Includes every optional section: registry ``metrics``, the
        ``latency`` breakdown, ``critpath`` attribution, the
        ``hotspots`` ranking, and — when the run executed under
        :func:`repro.obs.profile.profiled` — the host-time ``profile``
        snapshot; the input ``repro report`` renders.
        """
        return make_run_payload(
            f"instrumented-{self.experiment}",
            params={"nodes": self.machine.n_nodes, **(params or {})},
            results={
                "description": self.description,
                "end_cycle": self.machine.now,
                "events_recorded": len(self.recorder),
                "transactions": len(self.spans.completed),
            },
            metrics=self.machine.registry.snapshot(),
            latency=self.machine.stats.latency.snapshot(),
            critpath=self.critpath().snapshot(),
            hotspots=self.hotspots.snapshot(top_n=top_hotspots),
            perf={
                "wall_seconds": round(self.wall_seconds, 6),
                "events_per_second": round(self.events_per_second, 1),
            },
            profile=profile,
        )


def _run_table1(config: SimConfig, turns: int, observe: Observe) -> str:
    # The richest Table 1 row: INV store to a remote-exclusive line
    # (4 serialized messages — ownership transferred through the home).
    machine = build_machine(config)
    observe(machine)
    addr = machine.alloc_sync(SyncPolicy.INV, home=1)

    def put(p, value):
        yield p.store(addr, value)

    machine.spawn(2, put, 1)        # stage: node 2 takes the line exclusive
    machine.run()
    machine.spawn(0, put, 2)        # measure: node 0 steals ownership
    machine.run()
    return "INV store to a remote-exclusive line"


def _counter_runner(runner, label: str):
    def run(config: SimConfig, turns: int, observe: Observe) -> str:
        contention = min(4, config.machine.n_nodes)
        spec = SyntheticSpec(contention=contention, turns=turns)
        variant = PrimitiveVariant("fap", SyncPolicy.INV)
        runner(variant, spec, config, observe=observe)
        return f"{label}, fetch_and_add/INV, c={contention}, {turns} turns"

    return run


def _run_apps(config: SimConfig, turns: int, observe: Observe) -> str:
    variant = PrimitiveVariant("fap", SyncPolicy.INV)
    run_transitive_closure(variant, size=12, config=config, observe=observe)
    return "Transitive Closure (size 12), fetch_and_add/INV"


def _run_llsc(config: SimConfig, turns: int, observe: Observe) -> str:
    contention = min(4, config.machine.n_nodes)
    spec = SyntheticSpec(contention=contention, turns=turns)
    variant = PrimitiveVariant("llsc", SyncPolicy.UNC)
    run_lockfree_counter(variant, spec, config, observe=observe)
    return f"LL/SC counter under UNC (reservations), c={contention}"


def _run_dropcopy(config: SimConfig, turns: int, observe: Observe) -> str:
    contention = min(4, config.machine.n_nodes)
    spec = SyntheticSpec(contention=contention, turns=turns)
    variant = PrimitiveVariant("fap", SyncPolicy.INV, use_drop=True)
    run_lockfree_counter(variant, spec, config, observe=observe)
    return f"fetch_and_Φ counter with drop_copy, c={contention}"


def _run_chaos(config: SimConfig, turns: int, observe: Observe) -> str:
    import dataclasses

    from ..faults.chaos import run_chaos_point
    from ..faults.plan import DEFAULT_CHAOS_PLAN

    cfg = dataclasses.replace(
        config,
        faults=dataclasses.replace(DEFAULT_CHAOS_PLAN, seed=config.seed),
    )
    verdict = run_chaos_point(policy="INV", workload="faa", turns=turns,
                              intensity=1.0, config=cfg, observe=observe)
    status = "all checks ok" if verdict["ok"] else "CHECKS FAILED"
    return f"faulted faa/INV chaos point (fault seed {cfg.seed}), {status}"


INSTRUMENTED_EXPERIMENTS = {
    "table1": _run_table1,
    "chaos": _run_chaos,
    "figure2": _run_apps,
    "figure3": _counter_runner(run_lockfree_counter, "lock-free counter"),
    "figure4": _counter_runner(run_tts_counter, "TTS-lock counter"),
    "figure5": _counter_runner(run_mcs_counter, "MCS-lock counter"),
    "figure6": _run_apps,
    "ablation-reservations": _run_llsc,
    "ablation-dropcopy": _run_dropcopy,
}

#: The representatives that read ``turns``; Table 1's and the
#: applications' ignore it.
READS_TURNS = frozenset({"figure3", "figure4", "figure5",
                         "ablation-reservations", "ablation-dropcopy",
                         "chaos"})


def run_instrumented(
    experiment: str,
    config: SimConfig | None = None,
    turns: int = 2,
    blocks: Optional[Iterable[int]] = None,
) -> InstrumentedRun:
    """Run one representative configuration of ``experiment``, recorded.

    Returns the live machine (registry and latency tracker populated)
    plus the attached instruments: the recorder (all event kinds,
    optionally block-filtered), the span builder, and the hotspot
    tracker.
    """
    try:
        runner = INSTRUMENTED_EXPERIMENTS[experiment]
    except KeyError:
        known = ", ".join(sorted(INSTRUMENTED_EXPERIMENTS))
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from: {known}"
        ) from None
    # The recorder honors the block filter; the span builder and hotspot
    # tracker always see everything (a filtered span graph would report
    # broken critical paths).
    captured: list[tuple] = []

    def observe(machine: Machine) -> None:
        captured.append((machine,
                         EventRecorder(machine.events, blocks=blocks),
                         SpanBuilder(machine.events),
                         HotspotTracker(machine.events)))

    t0 = time.perf_counter()
    description = runner(config or small_config(n_nodes=4), turns, observe)
    wall = time.perf_counter() - t0
    return InstrumentedRun(experiment, description, *captured[-1],
                           wall_seconds=wall)
