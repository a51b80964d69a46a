"""Ablation: are the paper's conclusions robust to the timing model?

Our latency constants are not MINT's, so the reproduction's value rests
on the *orderings* being insensitive to them.  This bench re-runs the
headline Figure 3 comparisons under three very different machines —
fast memory/slow network, slow memory/fast network, and uniformly slow —
and asserts the paper's two core claims hold in each:

* uncached fetch_and_add wins under contention;
* the cached INV implementation wins for long write runs.
"""

from dataclasses import replace

from repro import SyncPolicy
from repro.apps.synthetic import SyntheticSpec, run_lockfree_counter
from repro.config import TimingConfig
from repro.harness.parallel import make_point, run_sweep
from repro.harness.report import render_table
from repro.sync.variant import PrimitiveVariant

from .conftest import BENCH_NODES, BENCH_TURNS, SWEEP_OPTS, publish, publish_json

TIMINGS = {
    "default": TimingConfig(),
    "fast-mem": TimingConfig(memory_service=6, hop_cycles=4),
    "slow-mem": TimingConfig(memory_service=60, hop_cycles=1),
    "slow-all": TimingConfig(memory_service=40, hop_cycles=4,
                             controller_occupancy=8),
}

VARIANTS = {
    "FAP/UNC": PrimitiveVariant("fap", SyncPolicy.UNC),
    "FAP/INV": PrimitiveVariant("fap", SyncPolicy.INV),
    "FAP/UPD": PrimitiveVariant("fap", SyncPolicy.UPD),
    "CAS+lx/INV": PrimitiveVariant("cas", SyncPolicy.INV, use_lx=True),
}


def test_timing_sensitivity(bench_config):
    contended = SyntheticSpec(contention=min(16, BENCH_NODES),
                              turns=BENCH_TURNS)
    long_runs = SyntheticSpec(contention=1, write_run=10.0,
                              turns=BENCH_TURNS)

    panels = (("contended", contended), ("a=10", long_runs))

    keys = []
    points = []
    for timing_name, timing in TIMINGS.items():
        config = replace(bench_config, timing=timing)
        for var_name, variant in VARIANTS.items():
            for panel_name, spec in panels:
                keys.append((timing_name, var_name, panel_name))
                points.append(make_point(
                    run_lockfree_counter, variant=variant, spec=spec,
                    config=config,
                    label=f"timing: {timing_name} {var_name} {panel_name}",
                ))
    outcomes = run_sweep(points, **SWEEP_OPTS)
    table = {key: outcome.result.avg_cycles
             for key, outcome in zip(keys, outcomes)}

    rows = []
    for timing_name in TIMINGS:
        for panel in ("contended", "a=10"):
            rows.append([f"{timing_name}/{panel}"] + [
                round(table[(timing_name, v, panel)], 1) for v in VARIANTS
            ])
    publish("ablation_timing", render_table(
        ["machine/panel"] + list(VARIANTS), rows,
        title="Ablation: headline orderings across timing models"))
    publish_json("ablation_timing", {"cycles_per_update": {
        timing_name: {
            panel: {v: table[(timing_name, v, panel)] for v in VARIANTS}
            for panel in ("contended", "a=10")
        }
        for timing_name in TIMINGS
    }}, params={**bench_config.machine.envelope_params, "turns": BENCH_TURNS})

    for timing_name in TIMINGS:
        # UNC fetch_and_add wins under contention, whatever the machine.
        unc = table[(timing_name, "FAP/UNC", "contended")]
        for var_name in ("FAP/INV", "FAP/UPD", "CAS+lx/INV"):
            assert unc < table[(timing_name, var_name, "contended")], (
                timing_name, var_name)
        # The cached INV implementation wins for long write runs.
        inv = table[(timing_name, "FAP/INV", "a=10")]
        assert inv < table[(timing_name, "FAP/UNC", "a=10")], timing_name
        assert inv < table[(timing_name, "FAP/UPD", "a=10")], timing_name
