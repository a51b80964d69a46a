"""Figure 3: average time per update of the lock-free counter.

All 21 primitive/policy/auxiliary variants over the paper's panels
(write-run 1, 1.5, 2, 3, 10 with no contention; contention 2–64), with
the paper's headline shape claims asserted.
"""

from repro.harness.figures import render_figure, run_figure3

from .conftest import BENCH_TURNS, SWEEP_OPTS, publish, publish_json


def test_figure3(bench_config):
    panels = run_figure3(bench_config, turns=BENCH_TURNS, **SWEEP_OPTS)
    publish("figure3", render_figure(
        panels, "Figure 3: lock-free counter, average cycles per update"))
    publish_json("figure3", {"panels": [
        {"label": p.label, "bars": [[label, value] for label, value in p.bars]}
        for p in panels
    ]}, params={**bench_config.machine.envelope_params, "turns": BENCH_TURNS})

    by_label = {panel.label: panel for panel in panels}
    top_c = max(p.spec.contention for p in panels)
    contended = by_label[f"c={top_c}"]
    a1 = by_label["c=1 a=1"]
    a2 = by_label["c=1 a=2"]
    a10 = by_label["c=1 a=10"]

    # UNC fetch_and_add is the clear winner under contention (§4.3.2).
    unc_faa = contended.value("FAP/UNC")
    for label, value in contended.bars:
        if label != "FAP/UNC":
            assert unc_faa < value, (label, value)

    # UNC stays competitive with cached implementations up to write runs
    # of about 2 (§4.3.1)...
    assert a2.value("FAP/UNC") < 1.25 * a2.value("FAP/INV")
    # ... but INV wins clearly for long write runs.
    assert a10.value("FAP/INV") < 0.5 * a10.value("FAP/UNC")

    # load_exclusive helps INV compare_and_swap everywhere (§4.3.2).
    assert a1.value("CAS+lx/INV") < a1.value("CAS/INV")
    assert contended.value("CAS+lx/INV") < contended.value("CAS/INV")

    # INVd/INVs are almost always equal to or worse than CAS+lx (§4.3.2).
    assert contended.value("CAS/INVd") >= contended.value("CAS+lx/INV")
    assert contended.value("CAS/INVs") >= contended.value("CAS+lx/INV")

    # A simulated fetch_and_add (CAS or LL/SC loop) pays roughly an extra
    # miss over the native primitive in the uncontended case (§2.2).
    assert a1.value("LLSC/INV") > 1.2 * a1.value("FAP/INV")

    # drop_copy helps INV fetch_and_phi at write-run 1, and stops helping
    # as runs lengthen (§4.3.2).
    assert a1.value("FAP/INV+dc") < a1.value("FAP/INV")
    assert a10.value("FAP/INV+dc") > a10.value("FAP/INV")

    # drop_copy helps UPD when many sharers would otherwise be updated.
    assert contended.value("FAP/UPD+dc") < contended.value("FAP/UPD")
