"""Figure 5: counter under an MCS queue lock.

The case where load_linked/store_conditional *simulates*
compare_and_swap (and fetch_and_store): the paper expects the simulation
to cost roughly an extra miss per operation relative to native CAS.
"""

from repro.harness.figures import render_figure, run_figure5

from .conftest import BENCH_TURNS, SWEEP_OPTS, publish, publish_json


def test_figure5(bench_config):
    panels = run_figure5(bench_config, turns=BENCH_TURNS, **SWEEP_OPTS)
    publish("figure5", render_figure(
        panels, "Figure 5: MCS-lock counter, average cycles per update"))
    publish_json("figure5", {"panels": [
        {"label": p.label, "bars": [[label, value] for label, value in p.bars]}
        for p in panels
    ]}, params={**bench_config.machine.envelope_params, "turns": BENCH_TURNS})

    by_label = {panel.label: panel for panel in panels}
    a1 = by_label["c=1 a=1"]
    a10 = by_label["c=1 a=10"]

    # Simulating the MCS lock's atomics with LL/SC costs more than native
    # fetch_and_store + compare_and_swap (§2.2, §4.3.2).
    assert a1.value("LLSC/INV") > a1.value("CAS/INV")
    assert a1.value("LLSC/UPD") > a1.value("CAS/UPD")
    assert a1.value("LLSC/UNC") > a1.value("CAS/UNC")

    # Under UPD, compare_and_swap always beats LL/SC (load_linked must
    # travel to memory even when the tail is cached).
    for panel in panels:
        assert panel.value("CAS/UPD") < panel.value("LLSC/UPD") * 1.1, (
            panel.label)

    # Queue-lock handoff stays bounded under contention: the MCS lock's
    # point is local spinning.  Average cost at c=max must stay within a
    # small factor of the uncontended handoff.
    top_c = max(p.spec.contention for p in panels)
    contended = by_label[f"c={top_c}"]
    assert contended.value("CAS/INV") < 25 * a1.value("CAS/INV")

    # INV benefits from long write runs as usual.
    assert a10.value("CAS/INV") < a1.value("CAS/INV")
