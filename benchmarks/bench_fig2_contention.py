"""Figure 2: contention histograms and §4.2 write-run lengths.

Regenerates, for each real application and coherence policy, the
histogram of contention levels at the beginning of each synchronization
access, plus the average write-run lengths the paper quotes (LocusRoute
1.70–1.83, Cholesky 1.59–1.62, Transitive Closure slightly above 1).
"""

from repro.harness.figure2 import run_figure2
from repro.harness.report import render_histogram, render_table

from .conftest import BENCH_NODES, SWEEP_OPTS, publish, publish_json


def _mean(histogram):
    return sum(level * pct for level, pct in histogram.items()) / 100.0


def test_figure2(bench_config):
    result = run_figure2(bench_config, **SWEEP_OPTS)

    sections = []
    for app in ("locusroute", "cholesky", "tclosure"):
        for policy in ("UNC", "INV", "UPD"):
            histogram = result.histogram(app, policy)
            sections.append(render_histogram(
                histogram,
                title=(f"Figure 2 — {app} / {policy} "
                       f"(mean level {_mean(histogram):.2f})"),
            ))
    write_runs = render_table(
        ["application", "UNC", "INV", "UPD", "paper"],
        [
            ["locusroute"] + [round(result.write_run("locusroute", p), 2)
                              for p in ("UNC", "INV", "UPD")] + ["1.70-1.83"],
            ["cholesky"] + [round(result.write_run("cholesky", p), 2)
                            for p in ("UNC", "INV", "UPD")] + ["1.59-1.62"],
            ["tclosure"] + [round(result.write_run("tclosure", p), 2)
                            for p in ("UNC", "INV", "UPD")] + ["~1.0"],
        ],
        title="Section 4.2: average write-run lengths",
    )
    publish("figure2", "\n\n".join(sections) + "\n\n" + write_runs)
    publish_json("figure2", {"apps": {
        app: {
            policy: {
                "histogram": {str(level): pct for level, pct
                              in result.histogram(app, policy).items()},
                "write_run": result.write_run(app, policy),
            }
            for policy in ("UNC", "INV", "UPD")
        }
        for app in ("locusroute", "cholesky", "tclosure")
    }}, params=bench_config.machine.envelope_params)

    # Shape assertions (paper §4.2): the lock applications are dominated
    # by the no-contention case; Transitive Closure contends heavily.
    for policy in ("UNC", "INV", "UPD"):
        assert result.histogram("locusroute", policy).get(1, 0) > 50.0
        assert result.histogram("cholesky", policy).get(1, 0) > 50.0
        assert (_mean(result.histogram("tclosure", policy))
                > 2 * _mean(result.histogram("locusroute", policy)))
    # Write-run regimes (lock apps run in pairs of writes; the lock-free
    # counter's runs stay near 1).
    for app, low, high in (("locusroute", 1.4, 2.1), ("cholesky", 1.3, 2.1)):
        for policy in ("UNC", "INV", "UPD"):
            assert low <= result.write_run(app, policy) <= high, (
                app, policy, result.write_run(app, policy))
    for policy in ("UNC", "INV", "UPD"):
        assert 1.0 <= result.write_run("tclosure", policy) < 1.5
    assert BENCH_NODES >= 8
