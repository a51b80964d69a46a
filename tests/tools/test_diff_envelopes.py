"""The CI envelope gate (tools/diff_envelopes.py): determinism and baselines."""

import importlib.util
import json
import pathlib

from repro.config import SimConfig
from repro.harness.table1 import TABLE1_CONFIG
from repro.obs.schema import load_run

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SCRIPT = REPO_ROOT / "tools" / "diff_envelopes.py"
BASELINES = REPO_ROOT / "benchmarks" / "baselines"

spec = importlib.util.spec_from_file_location("diff_envelopes", SCRIPT)
diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff)


def envelope(**overrides):
    doc = {
        "schema": "repro.run/1",
        "experiment": "figure3",
        "version": "1.0.0",
        "params": {"nodes": 64, "turns": 8, "directory": "full"},
        "results": {"counters": [7, 7], "match": True, "end_time": 4978},
        "metrics": {"net.messages": 1006},
    }
    doc.update(overrides)
    return doc


def write_all(tmp_path, *docs):
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"env{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


def test_identical_envelopes_pass(tmp_path, capsys):
    paths = write_all(tmp_path, envelope(), envelope(), envelope())
    assert diff.main(paths) == 0
    assert "2 envelope(s) byte-identical" in capsys.readouterr().out
    # Every committed benchmark baseline is a valid envelope that
    # passes against itself and records the machine it ran: Table 1's
    # own 4-node mesh, or the paper's 64-node one.
    machines = {"BENCH_table1.json": TABLE1_CONFIG.machine,
                "BENCH_figure2.json": SimConfig().machine}
    baselines = sorted(BASELINES.glob("BENCH_*.json"))
    assert [path.name for path in baselines] == sorted(machines)
    for path in baselines:
        params = load_run(path)["params"]
        assert params == machines[path.name].envelope_params
        assert diff.main([str(path), str(path)]) == 0


def test_host_time_sections_are_always_stripped(tmp_path):
    a = envelope(profile={"total_ns": 123, "dispatch_ns": 45})
    b = envelope(profile={"total_ns": 999, "dispatch_ns": 1})
    c = envelope()
    assert diff.main(write_all(tmp_path, a, b, c)) == 0


def test_stitched_critpath_is_not_stripped(tmp_path, capsys):
    """The blame gate: critpath differences must fail."""
    a = envelope(critpath={"txns": 8, "cycles": 640})
    b = envelope(critpath={"txns": 8, "cycles": 641})
    assert diff.main(write_all(tmp_path, a, b)) == 1
    assert "critpath.cycles" in capsys.readouterr().out


def test_simulation_divergence_fails_with_leaf_report(tmp_path, capsys):
    a = envelope()
    b = envelope(results={"counters": [7, 8], "match": True,
                          "end_time": 4978})
    assert diff.main(write_all(tmp_path, a, b)) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "results.counters[1]" in out
    # A run at another size is a divergence too, however equal its results.
    c = envelope(params={"nodes": 32, "turns": 8, "directory": "full"})
    assert diff.main(write_all(tmp_path, a, c)) == 1
    assert "params.nodes: 32 != reference 64" in capsys.readouterr().out


def test_ignore_strips_dotted_paths(tmp_path):
    a = envelope()
    b = envelope()
    b["params"]["directory"] = "limited:64"
    paths = write_all(tmp_path, a, b)
    assert diff.main(paths) == 1
    assert diff.main(["--ignore", "params.directory", *paths]) == 0


def test_ignore_tolerates_absent_paths(tmp_path):
    paths = write_all(tmp_path, envelope(), envelope())
    assert diff.main(["--ignore", "params.nonesuch",
                      "--ignore", "no.such.section", *paths]) == 0


def test_type_change_is_a_divergence(tmp_path, capsys):
    a = envelope(metrics={"net.messages": 1006})
    b = envelope(metrics={"net.messages": 1006.0})
    assert diff.main(write_all(tmp_path, a, b)) == 1
    # bool is an int subclass; a True/1 swap is still a change.
    c = envelope(results={"counters": [7, 7], "match": 1, "end_time": 4978})
    assert diff.main(write_all(tmp_path, a, c)) == 1
    assert "results.match: 1 != reference True" in capsys.readouterr().out


def test_missing_key_is_a_divergence(tmp_path, capsys):
    a = envelope()
    b = envelope()
    del b["metrics"]["net.messages"]
    assert diff.main(write_all(tmp_path, a, b)) == 1
    assert "only in reference" in capsys.readouterr().out
    # An extra key fails too: a new metric needs a deliberate refresh.
    c = envelope(metrics={"net.messages": 1006, "net.flits": 5000})
    assert diff.main(write_all(tmp_path, a, c)) == 1
    assert "metrics.net.flits: only in candidate" in capsys.readouterr().out


def test_missing_or_non_envelope_file_fails(tmp_path, capsys):
    reference, candidate = write_all(tmp_path, envelope(), envelope())
    missing = str(tmp_path / "absent.json")
    assert diff.main([reference, missing]) == 1
    assert missing in capsys.readouterr().err
    pathlib.Path(candidate).write_text(json.dumps({"schema": "repro.run/1"}))
    assert diff.main([reference, candidate]) == 1
    assert candidate in capsys.readouterr().err


def test_ignore_topology_and_directory_params(tmp_path):
    """Representation ablations: the same simulation tagged with
    different params.directory / params.topology labels must diff
    clean once that concern is stripped."""
    full = envelope()
    full["params"].update({"topology": "mesh", "directory": "full"})
    limited = envelope()
    limited["params"].update({"topology": "mesh", "directory": "limited:64"})
    coarse = envelope()
    coarse["params"].update({"topology": "torus", "directory": "coarse:1"})
    paths = write_all(tmp_path, full, limited, coarse)
    assert diff.main(paths) == 1
    assert diff.main(["--ignore", "params.directory",
                      "--ignore", "params.topology", *paths]) == 0
    # Ignoring only one concern still reports the other.
    assert diff.main(["--ignore", "params.directory", *paths]) == 1
