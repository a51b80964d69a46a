"""Figure 2: contention histograms of the real applications.

For each of LocusRoute, Cholesky, and Transitive Closure, and for each
coherence policy (UNC, INV, UPD), the histogram of the contention level
observed at the beginning of each synchronization access, plus the average
write-run lengths quoted in §4.2.

Each app/policy pair is an independent simulation, so the nine runs go
through the parallel sweep executor (see
:mod:`repro.harness.parallel`): ``jobs`` spreads them across worker
processes, with results identical to the serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..apps.cholesky import run_cholesky
from ..apps.common import AppResult
from ..apps.locusroute import run_locusroute
from ..apps.tclosure import run_transitive_closure
from ..config import SimConfig
from ..obs.events import EventBus
from .configs import policy_survey_variants
from .parallel import make_point, run_sweep

__all__ = ["Figure2Result", "run_figure2"]


@dataclass
class Figure2Result:
    """All Figure 2 measurements: app → policy → AppResult."""

    apps: dict[str, dict[str, AppResult]] = field(default_factory=dict)

    def histogram(self, app: str, policy: str) -> dict[int, float]:
        """Contention histogram (level → percentage) for one app/policy."""
        return self.apps[app][policy].contention_histogram

    def write_run(self, app: str, policy: str) -> float:
        """Average write-run length for one app/policy."""
        return self.apps[app][policy].write_run


def run_figure2(
    config: SimConfig,
    tclosure_size: int = 24,
    locusroute_wires: int | None = None,
    cholesky_columns: int | None = None,
    jobs: int = 1,
    events: Optional[EventBus] = None,
) -> Figure2Result:
    """Run the three real applications under each coherence policy.

    The lock applications' inputs default to sizes and task grains
    proportional to the machine (see their docstrings) so the calibrated
    sharing pattern holds at any scale.
    """
    app_points = (
        ("locusroute", run_locusroute, {"n_wires": locusroute_wires}),
        ("cholesky", run_cholesky, {"n_columns": cholesky_columns}),
        ("tclosure", run_transitive_closure, {"size": tclosure_size}),
    )
    variants = policy_survey_variants()
    points = [
        make_point(runner, variant=variant, config=config,
                   label=f"{app} {variant.policy.value}", **kwargs)
        for variant in variants
        for app, runner, kwargs in app_points
    ]
    outcomes = iter(run_sweep(points, jobs=jobs, events=events))
    result = Figure2Result()
    for variant in variants:
        policy = variant.policy.value
        for app, _, _ in app_points:
            result.apps.setdefault(app, {})[policy] = next(outcomes).result
    return result
