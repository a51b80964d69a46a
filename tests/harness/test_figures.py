"""Scaled-down figure runs: structure and headline shape claims."""

import pytest

from repro.apps.synthetic import SyntheticSpec
from repro.coherence.policy import SyncPolicy
from repro.config import SimConfig
from repro.harness.figures import (
    contention_panels,
    no_contention_panels,
    render_figure,
    run_counter_figure,
    run_figure3,
)
from repro.apps.synthetic import run_lockfree_counter
from repro.sync.variant import PrimitiveVariant

CFG8 = SimConfig().with_nodes(8)

SMALL_VARIANTS = [
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("fap", SyncPolicy.INV),
    PrimitiveVariant("cas", SyncPolicy.INV, use_lx=True),
    PrimitiveVariant("fap", SyncPolicy.UPD),
]


def test_panel_spec_enumeration():
    specs = no_contention_panels()
    assert [s.write_run for s in specs] == [1.0, 1.5, 2.0, 3.0, 10.0]
    assert all(s.contention == 1 for s in specs)
    cont = contention_panels(64)
    assert [s.contention for s in cont] == [2, 4, 8, 16, 64]


def test_contention_panels_clip_to_machine():
    cont = contention_panels(8)
    assert [s.contention for s in cont] == [2, 4, 8]


def test_contention_panels_leave_out_c1():
    """A level clipped to 1 would repeat the c=1 a=1 panel."""
    assert contention_panels(1) == []
    assert [s.contention for s in contention_panels(2)] == [2]


def test_run_counter_figure_structure():
    specs = [SyntheticSpec(contention=1, turns=4),
             SyntheticSpec(contention=4, turns=4)]
    panels = run_counter_figure(run_lockfree_counter, CFG8, turns=4,
                                variants=SMALL_VARIANTS, specs=specs)
    assert len(panels) == 2
    assert panels[0].label == "c=1 a=1"
    assert panels[1].label == "c=4"
    for panel in panels:
        assert [label for label, _ in panel.bars] == \
               [v.label for v in SMALL_VARIANTS]
        assert all(value > 0 for _, value in panel.bars)


def test_figure3_headline_shapes():
    # The paper's two headline Figure 3 claims, on a scaled-down machine:
    # (1) UNC fetch_and_add wins under contention;
    # (2) INV wins for long write runs.
    specs = [SyntheticSpec(contention=1, write_run=10.0, turns=8),
             SyntheticSpec(contention=8, turns=8)]
    panels = run_figure3(CFG8, turns=8, variants=SMALL_VARIANTS, specs=specs)
    long_run, contended = panels
    assert long_run.value("FAP/INV") < long_run.value("FAP/UNC")
    assert contended.value("FAP/UNC") < contended.value("FAP/INV")
    assert contended.value("FAP/UNC") < contended.value("FAP/UPD")


def test_render_figure_contains_all_bars():
    specs = [SyntheticSpec(contention=1, turns=2)]
    panels = run_figure3(CFG8, turns=2, variants=SMALL_VARIANTS, specs=specs)
    text = render_figure(panels, "Figure 3")
    for variant in SMALL_VARIANTS:
        assert variant.label in text


def test_panel_value_unknown_label():
    specs = [SyntheticSpec(contention=1, turns=2)]
    panels = run_figure3(CFG8, turns=2, variants=SMALL_VARIANTS, specs=specs)
    with pytest.raises(KeyError):
        panels[0].value("nonexistent")
