"""Figures 3–5: average time per counter update, all variants, all panels.

Each figure sweeps the same panels over a different update mechanism:

* Figure 3 — lock-free counter;
* Figure 4 — counter under a TTS lock with bounded exponential backoff;
* Figure 5 — counter under an MCS queue lock.

Panels: the no-contention case with write-run ``a`` in {1, 1.5, 2, 3, 10},
and contention ``c`` in {2, 4, 8, 16, 64} (clipped to the machine size).
Bars: the 21 variants of :func:`repro.harness.configs.figure_variants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..apps.common import AppResult
from ..apps.synthetic import (
    SyntheticSpec,
    run_lockfree_counter,
    run_mcs_counter,
    run_tts_counter,
)
from ..config import SimConfig
from ..obs.events import EventBus
from ..sync.variant import PrimitiveVariant
from .configs import figure_variants
from .parallel import make_point, run_sweep
from .report import render_table

__all__ = [
    "PanelResult",
    "no_contention_panels",
    "contention_panels",
    "run_counter_figure",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "render_figure",
]

AppRunner = Callable[[PrimitiveVariant, SyntheticSpec, SimConfig], AppResult]

_WRITE_RUNS = (1.0, 1.5, 2.0, 3.0, 10.0)
_CONTENTIONS = (2, 4, 8, 16, 64)


@dataclass
class PanelResult:
    """One figure panel: a label plus (bar label, avg cycles) rows."""

    label: str
    spec: SyntheticSpec
    bars: list[tuple[str, float]] = field(default_factory=list)

    def value(self, bar_label: str) -> float:
        """Average cycles of the named bar."""
        for label, value in self.bars:
            if label == bar_label:
                return value
        raise KeyError(bar_label)


def no_contention_panels(turns: int = 32) -> list[SyntheticSpec]:
    """The left-hand panels: c=1 with varying write-run."""
    return [
        SyntheticSpec(contention=1, write_run=a, turns=turns)
        for a in _WRITE_RUNS
    ]


def contention_panels(n_nodes: int, turns: int = 32) -> list[SyntheticSpec]:
    """The right-hand panels: varying contention, clipped to the machine.

    A level clipped to 1 is left out: it would repeat the c=1 a=1 panel
    of :func:`no_contention_panels`.
    """
    levels = sorted({min(c, n_nodes) for c in _CONTENTIONS} - {1})
    return [SyntheticSpec(contention=c, turns=turns) for c in levels]


def _panel_label(spec: SyntheticSpec) -> str:
    if spec.contention == 1:
        return f"c=1 a={spec.write_run:g}"
    return f"c={spec.contention}"


def run_counter_figure(
    runner: AppRunner,
    config: SimConfig,
    turns: int = 32,
    variants: Sequence[PrimitiveVariant] | None = None,
    specs: Sequence[SyntheticSpec] | None = None,
    jobs: int = 1,
    events: Optional[EventBus] = None,
) -> list[PanelResult]:
    """Run one figure: every panel × every variant.

    Panel/variant points are independent simulations, so they go through
    :func:`repro.harness.parallel.run_sweep` — ``jobs`` spreads them over
    worker processes; results are identical for any ``jobs``.
    """
    if variants is None:
        variants = figure_variants()
    if specs is None:
        specs = no_contention_panels(turns) + contention_panels(
            config.machine.n_nodes, turns
        )
    points = [
        make_point(runner, variant=variant, spec=spec, config=config)
        for spec in specs
        for variant in variants
    ]
    outcomes = iter(run_sweep(points, jobs=jobs, events=events))
    panels = []
    for spec in specs:
        panel = PanelResult(label=_panel_label(spec), spec=spec)
        for variant in variants:
            result = next(outcomes).result
            panel.bars.append((variant.label, result.avg_cycles))
        panels.append(panel)
    return panels


def run_figure3(config: SimConfig, turns: int = 32, **kwargs) -> list[PanelResult]:
    """Figure 3: the lock-free counter."""
    return run_counter_figure(run_lockfree_counter, config, turns, **kwargs)


def run_figure4(config: SimConfig, turns: int = 32, **kwargs) -> list[PanelResult]:
    """Figure 4: the TTS-lock-protected counter."""
    return run_counter_figure(run_tts_counter, config, turns, **kwargs)


def run_figure5(config: SimConfig, turns: int = 32, **kwargs) -> list[PanelResult]:
    """Figure 5: the MCS-lock-protected counter."""
    return run_counter_figure(run_mcs_counter, config, turns, **kwargs)


def render_figure(panels: list[PanelResult], title: str) -> str:
    """Render a figure as one table: variants × panels."""
    if not panels:
        return title
    headers = ["variant"] + [p.label for p in panels]
    bar_labels = [label for label, _ in panels[0].bars]
    rows = []
    for label in bar_labels:
        rows.append([label] + [p.value(label) for p in panels])
    return render_table(headers, rows, title=title)
