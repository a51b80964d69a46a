"""Figure 6: total elapsed time of the real applications, all variants."""

from repro.harness.figure6 import render_figure6, run_figure6

from .conftest import SWEEP_OPTS, publish, publish_json


def test_figure6(bench_config):
    result = run_figure6(bench_config, tclosure_size=24, **SWEEP_OPTS)
    publish("figure6", render_figure6(result))
    publish_json("figure6", {"apps": {
        app: [[label, cycles] for label, cycles in bars]
        for app, bars in result.apps.items()
    }}, params=bench_config.machine.envelope_params)

    # Every app ran under every variant and took nonzero time.
    assert set(result.apps) == {"locusroute", "cholesky", "tclosure"}
    for app, bars in result.apps.items():
        assert len(bars) == 21, app
        assert all(cycles > 0 for _, cycles in bars), app

    # Transitive Closure is dominated by its contended lock-free counter:
    # uncached fetch_and_add beats the cached INV implementation, as in
    # the paper's Figure 6 (UNC FAP is among the best bars).
    assert (result.cycles("tclosure", "FAP/UNC")
            < result.cycles("tclosure", "FAP/INV"))
    # Simulated fetch_and_add (LL/SC) never beats the native one there.
    assert (result.cycles("tclosure", "FAP/UNC")
            < result.cycles("tclosure", "LLSC/UNC"))

    # The lock applications are compute-dominated: no primitive choice
    # may change total time by more than ~2x (the paper's bars for
    # LocusRoute/Cholesky are all within a small band).
    for app in ("locusroute", "cholesky"):
        times = [cycles for _, cycles in result.apps[app]]
        assert max(times) < 2.0 * min(times), (app, min(times), max(times))
