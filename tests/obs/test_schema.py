"""The repro.run/1 envelope: sections, the loader and the differ."""

import json

import pytest

from repro.obs.schema import (
    SCHEMA,
    diff_runs,
    load_run,
    make_run_payload,
    validate_run_payload,
)


def _full_payload():
    """An envelope carrying every optional section the schema knows; the
    host-time ``profile`` is added as ``--profile`` adds it."""
    payload = make_run_payload(
        "demo", params={"nodes": 4},
        results={"answer": 42},
        metrics={"net.messages": 7},
        critpath={"txns": 2, "cycles": 20, "by_kind": {"msg": 20},
                  "by_component": {}, "keys": {}, "worst": []},
        hotspots={"window": 256, "blocks_seen": 1,
                  "top": [{"block": 0, "score": 12}]},
        faults={"workload": "faa", "points": 1, "passed": 1, "failed": 0,
                "verdicts": [{"seed": 1, "intensity": 1.0, "ok": True,
                              "faults": {"faults.net.delay": 3}}]},
    )
    payload["profile"] = {
        "total_ns": 1000, "attributed_ns": 900, "dispatch_ns": 100,
        "events": 5, "runs": 1,
        "kinds": {"Process.resume": {"calls": 5, "ns": 900, "share": 0.9}}}
    return payload


def test_optional_sections_kept_and_validated():
    payload = _full_payload()
    assert set(payload) == {"schema", "experiment", "version", "params",
                            "results", "metrics", "critpath", "hotspots",
                            "profile", "faults"}
    assert validate_run_payload(payload) is payload
    # An envelope that still carries the retired ``latency`` section
    # loads: unknown keys are ignored.
    older = {**payload, "latency": {"faa/INV": {"count": 2}}}
    assert validate_run_payload(older) is older
    for key in ("critpath", "hotspots", "profile", "faults"):
        bad = dict(payload)
        bad[key] = "nope"
        with pytest.raises(ValueError, match=key):
            validate_run_payload(bad)


def test_all_sections_round_trip_through_json():
    """Serialize → parse → validate with every optional section present."""
    payload = _full_payload()
    reparsed = validate_run_payload(json.dumps(payload))
    assert reparsed == payload
    assert reparsed["profile"]["kinds"]["Process.resume"]["calls"] == 5
    assert reparsed["faults"]["verdicts"][0]["faults"] == {
        "faults.net.delay": 3}


def test_sections_absent_when_not_given():
    payload = make_run_payload("demo", params={}, results={})
    assert (payload["schema"], payload["experiment"]) == (SCHEMA, "demo")
    assert "critpath" not in payload and "hotspots" not in payload
    validate_run_payload(payload)


# ----------------------------------------------------------------------
# load_run: every bad file is an error that names it.
# ----------------------------------------------------------------------

def test_load_run_reads_and_validates(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_full_payload()))
    assert load_run(path) == _full_payload()


@pytest.mark.parametrize("text", [None, "{not json", '{"schema": "x"}'],
                         ids=["missing", "invalid-json", "wrong-schema"])
def test_load_run_errors_name_the_file(tmp_path, text):
    path = tmp_path / "bad.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_run(path)
    assert str(path) in str(info.value)


# ----------------------------------------------------------------------
# diff_runs: the one leaf walker behind every envelope gate.
# ----------------------------------------------------------------------

def _diffs(a, b, **kwargs):
    return list(diff_runs(a, b, **kwargs))


def test_diff_runs_leaves_compare_by_type():
    leaves = [1, 1.0, True]
    for a in leaves:
        for b in leaves:
            diffs = _diffs({"results": {"x": a}}, {"results": {"x": b}})
            assert (diffs == []) == (a is b), (a, b)
    assert _diffs({"x": 1}, {"x": True}) == ["x: True != reference 1"]


def test_diff_runs_reports_keys_on_one_side():
    reference = {"results": {"kept": 1, "dropped": 2}}
    candidate = {"results": {"kept": 1, "added": 3}}
    assert _diffs(reference, candidate) == [
        "results.added: only in candidate",
        "results.dropped: only in reference",
    ]


def test_diff_runs_lists_of_different_length():
    reference = {"results": {"counters": [7, 7, [1, 2]]}}
    assert _diffs(reference, {"results": {"counters": [7, 7]}}) == [
        "results.counters: length 2 != reference 3"]
    assert _diffs(reference, {"results": {"counters": [7, 8, [1, 3]]}}) == [
        "results.counters[1]: 8 != reference 7",
        "results.counters[2][1]: 3 != reference 2",
    ]


def test_diff_runs_skips_host_sections_but_not_critpath():
    reference, candidate = _full_payload(), _full_payload()
    candidate["profile"] = {"total_ns": 99}
    assert _diffs(reference, candidate) == []
    del candidate["profile"]
    assert _diffs(reference, candidate) == []
    candidate["critpath"]["cycles"] = 21
    assert _diffs(reference, candidate) == [
        "critpath.cycles: 21 != reference 20"]


def test_diff_runs_ignored_path_may_be_absent_on_one_side():
    reference = make_run_payload("demo", params={"nodes": 4},
                                 results={"answer": 42})
    candidate = make_run_payload("demo", params={"nodes": 4,
                                                 "directory": "coarse:1"},
                                 results={"answer": 42})
    assert _diffs(reference, candidate) == [
        "params.directory: only in candidate"]
    assert _diffs(reference, candidate, ignore=["params.directory"]) == []
    assert _diffs(reference, candidate,
                  ignore=["params.nonesuch", "no.such.section",
                          "params.directory"]) == []
