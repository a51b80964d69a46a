"""Ablation (paper §4.3.1/§4.3.2): when does drop_copy help?

Sweeps the lock-free fetch_and_add counter with and without drop_copy
under INV and UPD across write-run lengths and contention, reproducing
the paper's qualitative findings:

* INV, write-run 1, no contention: drop_copy helps (2 serialized
  messages instead of 4 for the next writer).
* INV, long write runs: drop_copy throws away useful exclusivity.
* INV under contention: drop_copy can hurt (writebacks race recalls,
  producing NAKs and retries).
* UPD with many sharers: drop_copy sheds useless update traffic.
"""

from repro.harness.ablation import run_dropcopy_ablation
from repro.harness.report import render_table

from .conftest import BENCH_NODES, BENCH_TURNS, SWEEP_OPTS, publish, publish_json


def test_dropcopy_ablation(bench_config):
    outcome = run_dropcopy_ablation(bench_config, turns=BENCH_TURNS,
                                    **SWEEP_OPTS)
    table = outcome.table
    rows = [
        [panel] + [round(table[(panel, variant)], 1)
                   for variant in outcome.variants]
        for panel in outcome.panels
    ]
    publish("ablation_dropcopy", render_table(
        ["panel"] + outcome.variants, rows,
        title="Ablation: drop_copy effect on the lock-free counter"))
    publish_json("ablation_dropcopy", {
        "panels": outcome.panels,
        "variants": outcome.variants,
        "cycles_per_update": {
            panel: {variant: table[(panel, variant)]
                    for variant in outcome.variants}
            for panel in outcome.panels
        },
    }, params={**bench_config.machine.envelope_params, "turns": BENCH_TURNS})

    contended = outcome.panels[2]
    # drop_copy helps INV at write-run 1 with no contention...
    assert table[("a=1", "INV+dc")] < table[("a=1", "INV")]
    # ...hurts INV for long write runs...
    assert table[("a=10", "INV+dc")] > table[("a=10", "INV")]
    # ...and hurts INV under contention (NAK races, extra writebacks).
    assert table[(contended, "INV+dc")] > table[(contended, "INV")]
    # UPD with every updater holding a copy: drop_copy sheds updates.
    assert table[(contended, "UPD+dc")] < table[(contended, "UPD")]
    assert BENCH_NODES >= 8
