"""Ablation (paper §3.1): in-memory LL/SC reservation strategies.

Compares the four reservation designs for memory-side LL/SC — the full
bit vector, the limited-slot table (over-limit load_linked's are doomed
and their store_conditional's fail locally), the bounded-free-list
linked lists, and write serial numbers — on a contended LL/SC counter
with the UNC policy.
"""

from repro.harness.ablation import (
    RESERVATION_STRATEGIES,
    run_reservation_ablation,
)
from repro.harness.report import render_table

from .conftest import BENCH_NODES, BENCH_TURNS, SWEEP_OPTS, publish, publish_json


def test_reservation_strategies(bench_config):
    contention = min(16, BENCH_NODES)
    outcome = run_reservation_ablation(
        bench_config, contention=contention, turns=BENCH_TURNS,
        reservation_limit=4, **SWEEP_OPTS,
    )
    results = outcome.results
    rows = [
        [strategy, round(results[strategy][0], 1), results[strategy][1]]
        for strategy in RESERVATION_STRATEGIES
    ]
    publish("ablation_reservations", render_table(
        ["strategy", "cycles/update", "local SC failures"],
        rows,
        title=(f"Ablation §3.1: LL/SC reservation strategies "
               f"(UNC, c={contention})"),
    ))
    publish_json("ablation_reservations", {"strategies": {
        strategy: {
            "cycles_per_update": results[strategy][0],
            "local_sc_failures": results[strategy][1],
        }
        for strategy in RESERVATION_STRATEGIES
    }}, params={**bench_config.machine.envelope_params, "turns": BENCH_TURNS})

    # Only the capacity-bounded strategies fail store_conditionals
    # locally (doomed reservations) — their point: shed network traffic
    # under contention at the cost of lock-free semantics.
    assert results["limited"][1] > 0
    assert results["bitvector"][1] == 0
    assert results["serial"][1] == 0
    # All strategies stay within a sane band of each other.
    costs = [avg for avg, _ in results.values()]
    assert max(costs) < 4 * min(costs)
