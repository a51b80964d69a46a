"""Table 1: serialized network messages for stores (exact reproduction)."""

from repro.harness.report import render_table
from repro.harness.table1 import TABLE1_CONFIG, TABLE1_EXPECTED, run_table1

from .conftest import SWEEP_OPTS, publish, publish_json


def test_table1():
    measured = run_table1(**SWEEP_OPTS)

    rows = [
        [label, TABLE1_EXPECTED[label], measured[label]]
        for label in TABLE1_EXPECTED
    ]
    publish(
        "table1",
        render_table(
            ["store target", "paper", "measured"],
            rows,
            title="Table 1: serialized network messages per store",
        ),
    )
    publish_json("table1", {
        "expected": dict(TABLE1_EXPECTED),
        "measured": measured,
        "match": measured == TABLE1_EXPECTED,
    }, params=TABLE1_CONFIG.machine.envelope_params)
    assert measured == TABLE1_EXPECTED
