"""Figure 4: counter under a test-and-test-and-set lock with backoff."""

from repro.harness.figures import render_figure, run_figure4

from .conftest import BENCH_TURNS, SWEEP_OPTS, publish, publish_json


def test_figure4(bench_config):
    panels = run_figure4(bench_config, turns=BENCH_TURNS, **SWEEP_OPTS)
    publish("figure4", render_figure(
        panels, "Figure 4: TTS-lock counter, average cycles per update"))
    publish_json("figure4", {"panels": [
        {"label": p.label, "bars": [[label, value] for label, value in p.bars]}
        for p in panels
    ]}, params={**bench_config.machine.envelope_params, "turns": BENCH_TURNS})

    by_label = {panel.label: panel for panel in panels}
    top_c = max(p.spec.contention for p in panels)
    contended = by_label[f"c={top_c}"]
    a1 = by_label["c=1 a=1"]
    a10 = by_label["c=1 a=10"]

    # Under high contention with the TTS lock, UPD beats INV: on a
    # release every waiter re-reads, and only successful writes cause
    # updates (§4.3.1).
    assert contended.value("FAP/UPD") < contended.value("FAP/INV")
    assert contended.value("CAS/UPD") < contended.value("CAS/INV")

    # Long write runs (repeated acquire/release without interference)
    # favour INV caching.
    assert a10.value("FAP/INV") < a10.value("FAP/UNC")
    assert a10.value("FAP/INV") < a10.value("FAP/UPD")

    # load_exclusive keeps helping compare_and_swap.
    assert a1.value("CAS+lx/INV") <= a1.value("CAS/INV") * 1.05

    # UPD compare_and_swap beats UPD LL/SC: the lock's test read is a hit
    # under UPD, while load_linked must always travel to memory (§4.3.2).
    for panel in panels:
        assert panel.value("CAS/UPD") < panel.value("LLSC/UPD") * 1.05, (
            panel.label)
