"""Experiment harness: regenerates every table and figure of the paper."""

from .configs import figure_variants, policy_survey_variants
from .parallel import (
    PointOutcome,
    ResultCache,
    SweepPoint,
    code_fingerprint,
    make_point,
    point_key,
    run_sweep,
)
from .report import render_table, render_histogram
from .table1 import run_table1, TABLE1_EXPECTED
from .figures import (
    PanelResult,
    no_contention_panels,
    contention_panels,
    run_counter_figure,
    run_figure3,
    run_figure4,
    run_figure5,
)
from .figure2 import run_figure2
from .figure6 import run_figure6
from .ablation import (
    run_reservation_ablation,
    run_dropcopy_ablation,
    RESERVATION_STRATEGIES,
)

__all__ = [
    "figure_variants",
    "policy_survey_variants",
    "PointOutcome",
    "ResultCache",
    "SweepPoint",
    "code_fingerprint",
    "make_point",
    "point_key",
    "run_sweep",
    "render_table",
    "render_histogram",
    "run_table1",
    "TABLE1_EXPECTED",
    "PanelResult",
    "no_contention_panels",
    "contention_panels",
    "run_counter_figure",
    "run_figure3",
    "run_figure4",
    "run_figure5",
    "run_figure2",
    "run_figure6",
    "run_reservation_ablation",
    "run_dropcopy_ablation",
    "RESERVATION_STRATEGIES",
]
