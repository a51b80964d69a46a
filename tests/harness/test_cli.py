"""CLI smoke tests (small machines, captured output)."""

import re

import pytest

from repro.cli import build_parser, main
from repro.harness.figure2 import Figure2Result
from repro.harness.figure6 import Figure6Result


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(lines)


def test_parser_rejects_missing_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table1_exits_zero_and_prints():
    code, text = run_cli(["table1"])
    assert code == 0
    assert "Table 1" in text
    assert "INV to remote exclusive" in text


def test_figure3_small():
    code, text = run_cli(["--nodes", "4", "--turns", "2", "figure3"])
    assert code == 0
    assert "FAP/UNC" in text and "CAS+lx/INV" in text


def test_ablation_dropcopy_small():
    code, text = run_cli(["--nodes", "4", "--turns", "2",
                          "ablation-dropcopy"])
    assert code == 0
    assert "INV+dc" in text


def test_ablation_reservations_small():
    code, text = run_cli(["--nodes", "8", "--turns", "2",
                          "ablation-reservations"])
    assert code == 0
    for strategy in ("bitvector", "limited", "linkedlist", "serial"):
        assert strategy in text


def test_out_directory_written(tmp_path):
    code, text = run_cli(["--nodes", "4", "--turns", "2",
                          "--out", str(tmp_path), "figure3"])
    assert code == 0
    assert (tmp_path / "figure3.txt").exists()
    assert "FAP/UNC" in (tmp_path / "figure3.txt").read_text()


def test_table1_json_after_subcommand(tmp_path):
    from repro.obs.schema import validate_run_payload

    out = tmp_path / "table1.json"
    code, _ = run_cli(["table1", "--json", str(out)])
    assert code == 0
    payload = validate_run_payload(out.read_text(), experiment="table1")
    assert payload["results"]["match"] is True
    assert payload["results"]["measured"]["INV to remote exclusive"] == 4


def test_table1_json_records_the_machine_it_ran(tmp_path):
    import json

    # Table 1 runs on its own 4-node mesh whatever the machine options
    # say, and it has no turns.
    out = tmp_path / "table1.json"
    code, _ = run_cli(["--topology", "torus", "--nodes", "16", "table1",
                       "--json", str(out)])
    assert code == 0
    params = json.loads(out.read_text())["params"]
    assert params == {"nodes": 4, "topology": "mesh", "directory": "full"}


def test_ablation_directory_json_records_the_machines_it_ran(tmp_path):
    import json

    # Every point runs one of the --sizes machines under all three
    # sharer-set representations, whatever --nodes and --directory say.
    out = tmp_path / "ablation-directory.json"
    code, _ = run_cli(["--nodes", "16", "--turns", "1", "--directory",
                       "limited", "ablation-directory", "--sizes", "4",
                       "--sizes", "8", "--json", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["params"] == {"sizes": [4, 8], "topology": "mesh",
                                 "dir_pointers": 8, "dir_region": 8,
                                 "turns": 1}
    ran = {(p["nodes"], p["representation"])
           for p in payload["results"]["points"]}
    assert ran == {(n, rep) for n in (4, 8)
                   for rep in ("full", "limited", "coarse")}


@pytest.mark.parametrize("experiment, runner, result", [
    ("figure2", "run_figure2", Figure2Result()),
    ("figure6", "run_figure6", Figure6Result()),
])
def test_app_figure_json_records_no_turns(tmp_path, monkeypatch,
                                          experiment, runner, result):
    import json

    from repro import cli

    # Neither runner takes turns, so the envelope records none.
    monkeypatch.setattr(cli, runner, lambda config, **opts: result)
    out = tmp_path / f"{experiment}.json"
    code, _ = run_cli(["--nodes", "4", "--turns", "3", experiment,
                       "--json", str(out)])
    assert code == 0
    params = json.loads(out.read_text())["params"]
    assert params == {"nodes": 4, "topology": "mesh", "directory": "full"}


@pytest.mark.parametrize("argv", [
    ["table1", "--no-cache"],
    ["table1", "--cache-dir", "X"],
    ["stats", "table1", "--quick"],
    ["table1", "--telemetry", "X"],
    ["table1", "--telemetry-every", "5"],
    ["stats", "figure3", "--format", "jsonl"],
    ["stats", "figure3", "--worst", "2"],
    ["stats", "figure3", "--top", "3"],
    ["stats", "table1", "--collapsed", "X"],
])
def test_removed_flags_are_unrecognized(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["critpath", "hotspots", "profile"])
def test_removed_subcommands_are_invalid_choices(command, capsys):
    """``stats`` prints and writes every section these printed."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args([command, "figure3"])
    assert exit_info.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--nodes", "0", "figure3"], "--nodes: must be at least 1, got 0"),
    (["--turns", "-1", "figure3"], "--turns: must be at least 1, got -1"),
    (["figure3", "--jobs", "-3"], "--jobs: must be at least 1, got -3"),
    (["figure3", "--dir-pointers", "0"], "--dir-pointers: must be at least 1"),
    (["figure3", "--dir-region", "0"], "--dir-region: must be at least 1"),
    (["ablation-directory", "--sizes", "16", "--sizes", "0"],
     "--sizes: must be at least 1, got 0"),
    (["chaos", "--max-events", "0"], "--max-events: must be at least 1"),
    (["trace", "table1", "--block", "-2"], "--block: must be at least 0"),
    (["--nodes", "four", "figure3"], "--nodes: invalid int value: 'four'"),
])
def test_bad_counts_exit_2_naming_the_option(argv, message, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"argument {message}" in capsys.readouterr().err


def test_counts_at_their_minimum_parse():
    args = build_parser().parse_args(
        ["--nodes", "1", "--turns", "1", "--jobs", "1", "trace",
         "figure3", "--block", "0"])
    assert (args.nodes, args.turns, args.jobs, args.block) == (1, 1, 1, 0)


SHAPE = ["--nodes", "4", "--topology", "torus", "--directory", "limited",
         "--dir-pointers", "2", "--turns", "3"]
MACHINE = {"nodes": 4, "topology": "torus", "directory": "limited:2"}


@pytest.mark.parametrize("argv, params", [
    (["stats", "table1"], MACHINE),
    (["stats", "figure2"], MACHINE),
    (["stats", "figure4"], {**MACHINE, "turns": 3}),
    (["stats", "chaos"], {**MACHINE, "turns": 3}),
    (["stats", "figure6"], MACHINE),
    (["stats", "ablation-dropcopy"], {**MACHINE, "turns": 3}),
    (["trace", "table1", "--block", "1"],
     {**MACHINE, "block": 1, "format": "text"}),
    (["--profile", "stats", "figure3"], {**MACHINE, "turns": 3}),
])
def test_instrumented_json_records_the_machine_that_ran(tmp_path, argv,
                                                        params):
    import json

    # The machine the representative built, and turns only where the
    # representative reads them.
    out = tmp_path / "run.json"
    code, _ = run_cli(SHAPE + argv + ["--json", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["params"] == params


@pytest.mark.parametrize("command", ["stats", "trace"])
@pytest.mark.parametrize("nodes", ["1", "2"])
def test_table1_representative_needs_three_nodes(nodes, command, capsys):
    """Its requester, home and owner are three distinct nodes.  Too few
    is a one-line usage error, as argparse reports a bad option."""
    code, _ = run_cli(["--nodes", nodes, command, "table1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: the table1 representative needs "
                          "at least 3 nodes")
    assert len(err.splitlines()) == 1
    code, _ = run_cli(["--nodes", "3", command, "table1"])
    assert code == 0


def test_figure3_json_schema(tmp_path):
    from repro.obs.schema import validate_run_payload

    out = tmp_path / "fig3.json"
    code, _ = run_cli(["--nodes", "4", "--turns", "1", "figure3",
                       "--json", str(out)])
    assert code == 0
    payload = validate_run_payload(out.read_text(), experiment="figure3")
    assert payload["params"]["nodes"] == 4
    assert payload["results"]["panels"]


def test_stats_subcommand(tmp_path):
    from repro.obs.schema import validate_run_payload

    out = tmp_path / "stats.json"
    code, text = run_cli(["--nodes", "4", "--turns", "2", "stats",
                          "figure3", "--json", str(out)])
    assert code == 0
    # The registry, then the critical path, then the hotspots.
    assert "net.messages" in text
    assert "blame by hop kind" in text
    assert "per primitive/policy:" in text
    assert re.search(r"^  faa/INV +\d+ ", text, re.MULTILINE)
    assert "worst transactions" in text
    assert "contention score" in text
    assert (text.index("net.messages") < text.index("blame by hop kind")
            < text.index("worst transactions")
            < text.index("contention score"))
    payload = validate_run_payload(out.read_text())
    assert "metrics" in payload and "critpath" in payload
    assert "latency" not in payload
    assert payload["metrics"]["net.messages"] > 0


def test_trace_subcommand_formats(tmp_path):
    import json

    code, text = run_cli(["--nodes", "4", "trace", "table1"])
    assert code == 0
    assert "GETX" in text

    code, text = run_cli(["--nodes", "4", "trace", "table1",
                          "--format", "chrome"])
    assert code == 0
    doc = json.loads(text)
    assert all("ph" in e and "ts" in e and "pid" in e
               for e in doc["traceEvents"])

    code, text = run_cli(["--nodes", "4", "trace", "table1",
                          "--format", "jsonl"])
    assert code == 0
    assert all(json.loads(line) for line in text.splitlines())


def test_trace_block_filter():
    import json

    code, text = run_cli(["--nodes", "4", "trace", "table1",
                          "--block", "99999", "--format", "jsonl"])
    assert code == 0
    assert text.strip() == ""  # nothing touches that block
    code, text = run_cli(["--nodes", "4", "trace", "table1",
                          "--format", "jsonl"])
    blocks = {json.loads(line).get("block") for line in text.splitlines()}
    assert blocks  # the unfiltered trace does see blocks


def test_stats_json_envelope_carries_critpath_and_hotspots(tmp_path):
    from repro.obs.schema import validate_run_payload

    out = tmp_path / "stats.json"
    code, _ = run_cli(["--nodes", "4", "--turns", "2", "stats", "figure3",
                       "--json", str(out)])
    assert code == 0
    payload = validate_run_payload(out.read_text())
    assert payload["results"]["transactions"] > 0
    critpath = payload["critpath"]
    assert critpath["txns"] > 0
    assert sum(critpath["by_kind"].values()) == critpath["cycles"]
    assert 0 < len(critpath["worst"]) <= 8
    for txn in critpath["worst"]:
        assert sum(step["cycles"] for step in txn["path"]) == txn["cycles"]
    scores = [block["score"] for block in payload["hotspots"]["top"]]
    assert scores and scores == sorted(scores, reverse=True)
    assert len(scores) <= 10


def test_report_subcommand(tmp_path):
    run_json = tmp_path / "run.json"
    code, _ = run_cli(["--nodes", "4", "table1", "--json", str(run_json)])
    assert code == 0

    # default output: input path with .html suffix
    code, text = run_cli(["report", str(run_json)])
    assert code == 0
    default_out = tmp_path / "run.html"
    assert default_out.exists()
    assert str(default_out) in text

    target = tmp_path / "sub" / "report.html"
    code, _ = run_cli(["report", str(run_json), "-o", str(target),
                       "--title", "CLI report"])
    assert code == 0
    html = target.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "CLI report" in html
    for panel in ("panel-1", "panel-2", "panel-3", "panel-4"):
        assert panel in html


def test_report_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}')
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        run_cli(["report", str(bad)])


@pytest.mark.parametrize("option", [["--nodes", "3"], ["--jobs", "4"],
                                    ["--profile"]],
                         ids=lambda option: option[0])
def test_report_takes_only_its_own_options(option, capsys):
    """``report`` renders a file, so no experiment option follows it;
    given before the subcommand, as for every command, one parses."""
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(["report", "run.json", *option])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    build_parser().parse_args([*option, "report", "run.json"])


# ----------------------------------------------------------------------
# Self-profiling.
# ----------------------------------------------------------------------

def test_profile_honours_machine_shape_flags(monkeypatch):
    """A ``--profile`` run simulates the machine the shape flags name."""
    from repro import cli

    configs = []
    real = cli.run_instrumented

    def spy(experiment, config, **kwargs):
        configs.append(config)
        return real(experiment, config, **kwargs)

    monkeypatch.setattr(cli, "run_instrumented", spy)
    code, _ = run_cli(["--nodes", "4", "--topology", "torus", "--directory",
                       "limited", "--dir-pointers", "2", "--profile", "stats",
                       "table1"])
    assert code == 0
    machine = configs[0].machine
    assert machine.n_nodes == 4
    assert machine.topology == "torus"
    assert machine.directory_label == "limited:2"


def test_profile_flag_injects_section_into_json(tmp_path, capsys):
    import json

    from repro.obs.schema import validate_run_payload

    target = tmp_path / "stats.json"
    code, text = run_cli(["--nodes", "4", "--turns", "2", "--profile",
                          "stats", "figure3", "--json", str(target)])
    assert code == 0
    payload = validate_run_payload(target.read_text())
    prof = payload["profile"]
    assert prof["kinds"]
    assert prof["attributed_ns"] + prof["dispatch_ns"] == prof["total_ns"]
    # The human-readable table lands on stderr, leaving stdout clean; it
    # lists every handler, then the dispatch residual.
    err = capsys.readouterr().err
    assert "host-time profile" not in text
    rows = [line.split()[0] for line in err.splitlines()[2:]]
    assert sorted(rows[:-1]) == sorted(prof["kinds"])
    assert rows[-1] == "engine.dispatch"
    json.loads(target.read_text())


def test_topology_and_directory_flags_parse():
    args = build_parser().parse_args(
        ["--nodes", "16", "--topology", "torus", "--directory", "limited",
         "--dir-pointers", "2", "--dir-region", "4", "figure3"]
    )
    assert args.topology == "torus"
    assert args.directory == "limited"
    assert args.dir_pointers == 2
    assert args.dir_region == 4


def test_unknown_topology_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["--topology", "ring", "figure3"])


def test_machine_params_tag_envelopes(tmp_path):
    import json

    out = tmp_path / "figure3.json"
    code, _ = run_cli(["--nodes", "4", "--turns", "2",
                       "--topology", "torus", "--directory", "limited",
                       "--dir-pointers", "2", "figure3",
                       "--json", str(out)])
    assert code == 0
    params = json.loads(out.read_text())["params"]
    assert params["topology"] == "torus"
    assert params["directory"] == "limited:2"


def test_directory_flags_reach_the_machine():
    # limited:1 on 4 nodes must still produce correct figure3 numbers
    # (the directory representation never changes protocol results).
    code, text = run_cli(["--nodes", "4", "--turns", "2",
                          "--directory", "limited", "--dir-pointers", "1",
                          "figure3"])
    assert code == 0
    assert "FAP/UNC" in text


def test_ablation_directory_small(tmp_path):
    import json

    out = tmp_path / "ablation_directory.json"
    code, text = run_cli(["--nodes", "8", "--turns", "2",
                          "ablation-directory", "--sizes", "8",
                          "--json", str(out)])
    assert code == 0
    assert "directory sharer-set representations" in text.lower()
    payload = json.loads(out.read_text())
    eq = payload["results"]["equivalence"]
    assert eq["identical"] is True
    reps = {p["representation"] for p in payload["results"]["points"]}
    assert reps == {"full", "limited", "coarse"}
