"""Figure 6: total elapsed time of the real applications.

For each of LocusRoute, Cholesky, and Transitive Closure: total cycles of
the parallel section under every primitive/policy variant (the same 21
bars as Figures 3–5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..apps.cholesky import run_cholesky
from ..apps.locusroute import run_locusroute
from ..apps.tclosure import run_transitive_closure
from ..config import SimConfig
from ..obs.events import EventBus
from ..sync.variant import PrimitiveVariant
from .configs import figure_variants
from .parallel import ResultCache, make_point, run_sweep
from .report import render_table

__all__ = ["Figure6Result", "run_figure6", "render_figure6"]


@dataclass
class Figure6Result:
    """app → [(variant label, total cycles)]."""

    apps: dict[str, list[tuple[str, int]]] = field(default_factory=dict)

    def cycles(self, app: str, label: str) -> int:
        """Total cycles for one app under one variant."""
        for bar_label, cycles in self.apps[app]:
            if bar_label == label:
                return cycles
        raise KeyError(label)


def run_figure6(
    config: SimConfig,
    variants: Sequence[PrimitiveVariant] | None = None,
    tclosure_size: int = 24,
    locusroute_wires: int | None = None,
    cholesky_columns: int | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: Optional[EventBus] = None,
) -> Figure6Result:
    """Run the three real applications under every variant.

    Lock-application inputs default to machine-proportional sizes (see
    the application docstrings).  The variant × app points run through
    the parallel sweep executor; ``jobs``/``cache`` spread and memoize
    them without changing the results.
    """
    if variants is None:
        variants = figure_variants()
    app_points = (
        ("locusroute", run_locusroute, {"n_wires": locusroute_wires}),
        ("cholesky", run_cholesky, {"n_columns": cholesky_columns}),
        ("tclosure", run_transitive_closure, {"size": tclosure_size}),
    )
    points = [
        make_point(runner, variant=variant, config=config,
                   label=f"{app} {variant.label}", **kwargs)
        for variant in variants
        for app, runner, kwargs in app_points
    ]
    outcomes = iter(run_sweep(points, jobs=jobs, cache=cache, events=events))
    result = Figure6Result()
    for variant in variants:
        for app, _, _ in app_points:
            result.apps.setdefault(app, []).append(
                (variant.label, next(outcomes).result.cycles)
            )
    return result


def render_figure6(result: Figure6Result) -> str:
    """Render all apps as one table: variants × apps."""
    apps = sorted(result.apps)
    if not apps:
        return "Figure 6 (no data)"
    headers = ["variant"] + apps
    labels = [label for label, _ in result.apps[apps[0]]]
    rows = []
    for label in labels:
        rows.append([label] + [result.cycles(app, label) for app in apps])
    return render_table(headers, rows, title="Figure 6: total elapsed cycles")
