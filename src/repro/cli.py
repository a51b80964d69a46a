"""Command-line interface: regenerate any of the paper's results.

.. code-block:: console

    $ python -m repro table1
    $ python -m repro figure3 --nodes 16 --turns 8
    $ python -m repro figure2 --out results/
    $ python -m repro ablation-reservations
    $ python -m repro table1 --json table1.json
    $ python -m repro figure3 --jobs 4
    $ python -m repro stats figure3
    $ python -m repro trace table1 --block 0 --format chrome

Every subcommand prints the regenerated table/figure; ``--out DIR`` also
writes it to ``DIR/<name>.txt``, and ``--json OUT`` writes the result as
a schema-stable JSON document (envelope ``repro.run/1``; see
:mod:`repro.obs.schema` and ``docs/observability.md``).

Experiment sweeps run through the parallel executor
(:mod:`repro.harness.parallel`): ``--jobs N`` spreads their independent
simulation points over ``N`` worker processes (results are byte-identical
at any job count).  ``--progress`` (implied by ``--jobs > 1``) prints
per-point progress lines to stderr via the sweep EventBus.  See
``docs/parallel.md``.

Two observability subcommands inspect a small *representative* run of
an experiment instead of regenerating it in full (see
:mod:`repro.harness.instrumented`):

* ``repro stats <experiment>`` — the whole run in one report: the
  machine's metrics registry; critical-path attribution over the run's
  transactions (blame by hop kind and component, n/mean/p50/p95/max and
  dominant hop kind per primitive × policy, and the 8 worst
  transactions with their full serialized paths); and the per-cache-line
  contention ranking of the 10 hottest blocks (queue-wait cycles,
  invalidation multicasts, failed atomics, directory-queue depth).
  ``--json`` writes all of it as one envelope;
* ``repro trace <experiment> --block N --format {text,jsonl,chrome}`` —
  export the structured event trace; ``chrome`` output loads directly
  into ``chrome://tracing`` / https://ui.perfetto.dev (message send and
  delivery slices are linked by flow events, so the viewer draws the
  causal arrows).

Host time has one switch (see :mod:`repro.obs.profile` and
``docs/observability.md``): ``--profile`` on any experiment command
attributes the run's wall-clock time per (component, handler), prints
the table to stderr and adds a ``profile`` section to ``--json``
output.  It is an in-process measurement, so it forces ``--jobs 1``
for that invocation (a pool worker would silently escape
instrumentation).

Counts are checked as they are parsed: a machine size, turn count,
job count or other count below its minimum exits with status 2 and a
message naming the option.

``repro chaos`` sweeps a seeded fault-injection matrix (seeds ×
intensity × policy; see :mod:`repro.faults` and ``docs/robustness.md``)
on the machine the shape options describe, through the parallel sweep
engine, and gates every point on the
``repro.verify`` checkers, an event-budget termination watchdog, metric
conservation, and final-value agreement with the fault-free golden.
Verdicts land in the envelope's ``faults`` section; the envelope
carries no host-dependent data, so ``repro chaos --seed S`` is
byte-reproducible.  ``repro stats chaos`` / ``repro trace chaos``
instrument one representative faulted run (the ``fault.inject`` events
and ``faults.*`` counters).

Finally, ``repro report RUN.json [-o report.html]`` renders any
``repro.run/1`` document — from ``--json`` or a benchmark — into a
single self-contained HTML file (inline SVG, no network access; see
:mod:`repro.harness.htmlreport`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import pathlib
import sys
from typing import Any, Callable, Optional, Sequence

from .config import SimConfig
from .errors import ConfigError
from .faults.chaos import CHAOS_WORKLOADS, DEFAULT_MAX_EVENTS, DEFAULT_POLICIES
from .harness.ablation import (
    RESERVATION_STRATEGIES,
    run_dropcopy_ablation,
    run_reservation_ablation,
)
from .harness.figure2 import run_figure2
from .harness.figure6 import render_figure6, run_figure6
from .harness.figures import (
    render_figure,
    run_figure3,
    run_figure4,
    run_figure5,
)
from .harness.htmlreport import write_report
from .harness.instrumented import (
    INSTRUMENTED_EXPERIMENTS,
    READS_TURNS,
    run_instrumented,
)
from .harness.parallel import attach_progress_printer
from .harness.report import render_histogram, render_table
from .harness.table1 import TABLE1_CONFIG, TABLE1_EXPECTED, run_table1
from .obs.events import EventBus
from .obs.exporters import export_events, to_jsonl
from .obs.profile import profiled
from .obs.schema import (
    dump_run,
    load_run,
    make_run_payload,
    validate_run_payload,
)

__all__ = ["main", "build_parser"]

TRACE_FORMATS = ("text", "jsonl", "chrome")
TOPOLOGIES = ("mesh", "torus")
DIRECTORIES = ("full", "limited", "coarse")


def _count(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"      # argparse's "invalid int value" message
    return parse


def _add_common(parser: argparse.ArgumentParser, top_level: bool) -> None:
    """Shared options, valid both before and after the subcommand.

    Subparser copies default to ``SUPPRESS`` so an option given at the
    top level is not clobbered by the subparser's default.
    """

    def default(value):
        return value if top_level else argparse.SUPPRESS

    parser.add_argument("--nodes", type=_count(1), default=default(64),
                        help="machine size (default 64, the paper's)")
    parser.add_argument("--turns", type=_count(1), default=default(6),
                        help="synthetic-app turns per panel (default 6)")
    parser.add_argument("--topology", choices=TOPOLOGIES,
                        default=default("mesh"),
                        help="interconnect: the paper's 2-D mesh, or a "
                             "torus with wraparound links (default mesh)")
    parser.add_argument("--directory", choices=DIRECTORIES,
                        default=default("full"),
                        help="sharer-set representation: exact full bit "
                             "vector, limited-pointer Dir_i_B, or coarse "
                             "region vector (default full; see "
                             "docs/scaling.md)")
    parser.add_argument("--dir-pointers", type=_count(1), default=default(8),
                        metavar="I",
                        help="pointer capacity for --directory limited "
                             "(default 8)")
    parser.add_argument("--dir-region", type=_count(1), default=default(8),
                        metavar="R",
                        help="nodes per region bit for --directory coarse "
                             "(default 8)")
    parser.add_argument("--out", type=pathlib.Path, default=default(None),
                        help="directory to also write the rendered text to")
    parser.add_argument("--json", type=pathlib.Path, default=default(None),
                        help="write the result as repro.run/1 JSON here")
    parser.add_argument("--jobs", type=_count(1), default=default(1),
                        help="worker processes for sweep points "
                             "(default 1: serial, bit-identical results "
                             "at any setting)")
    parser.add_argument("--progress", action="store_true",
                        default=default(False),
                        help="print per-point sweep progress to stderr "
                             "(implied by --jobs > 1)")
    parser.add_argument("--profile", action="store_true",
                        default=default(False),
                        help="attribute host time per (component, "
                             "handler); table to stderr, 'profile' "
                             "section in --json (forces --jobs 1)")


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line parser."""
    # Options match only when spelled in full: abbreviation would read
    # an unknown ``--top`` as ``--topology``.
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce Michael & Scott (HPCA '95): atomic primitives on "
            "DSM multiprocessors."
        ),
        allow_abbrev=False,
    )
    _add_common(parser, top_level=True)
    sub = parser.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)
    for name, help_text in [
        ("table1", "serialized message counts for stores (exact)"),
        ("figure2", "contention histograms + write-run lengths"),
        ("figure3", "lock-free counter, all variants and panels"),
        ("figure4", "TTS-lock counter, all variants and panels"),
        ("figure5", "MCS-lock counter, all variants and panels"),
        ("figure6", "total elapsed time of the real applications"),
        ("ablation-reservations", "LL/SC reservation strategies (§3.1)"),
        ("ablation-dropcopy", "when drop_copy helps and hurts"),
    ]:
        _add_common(add_parser(name, help=help_text), top_level=False)
    abdir = add_parser(
        "ablation-directory",
        help="sharer-set representations (full/limited/coarse) at scale",
    )
    abdir.add_argument("--sizes", type=_count(1), action="append",
                       default=None, metavar="N",
                       help="machine sizes to sweep (repeatable; "
                            "default 64 and 256)")
    _add_common(abdir, top_level=False)
    stats = add_parser(
        "stats",
        help="metrics registry, critical path and cache-line hotspots of "
             "a representative run",
    )
    stats.add_argument("experiment",
                       choices=sorted(INSTRUMENTED_EXPERIMENTS),
                       help="experiment to instrument")
    _add_common(stats, top_level=False)
    trace = add_parser(
        "trace",
        help="structured event trace of a representative run",
    )
    trace.add_argument("experiment",
                       choices=sorted(INSTRUMENTED_EXPERIMENTS),
                       help="experiment to instrument")
    trace.add_argument("--block", type=_count(0), default=None,
                       help="only events concerning this block")
    trace.add_argument("--format", choices=TRACE_FORMATS, default="text",
                       dest="fmt", help="export format (default text)")
    _add_common(trace, top_level=False)
    chaos = add_parser(
        "chaos",
        help="fault-injection verification: sweep seeds x intensity x "
             "policy, gating every run on the verify checkers, a "
             "termination watchdog, metric conservation, and agreement "
             "with the fault-free golden",
    )
    chaos.add_argument("--seed", type=int, action="append", default=None,
                       dest="seeds", metavar="S",
                       help="fault/config seed (repeatable; default 1 2)")
    chaos.add_argument("--intensity", type=float, action="append",
                       default=None, dest="intensities", metavar="X",
                       help="fault-plan scale factor (repeatable; the "
                            "0.0 golden is always swept too; default 1.0)")
    chaos.add_argument("--policy", action="append", default=None,
                       dest="policies", choices=DEFAULT_POLICIES,
                       help="coherence policy (repeatable; default all)")
    chaos.add_argument("--workload", default="faa",
                       choices=sorted(CHAOS_WORKLOADS),
                       help="atomic-counter workload (default faa)")
    chaos.add_argument("--max-events", type=_count(1),
                       default=DEFAULT_MAX_EVENTS,
                       help="event-budget termination watchdog: most "
                            "simulated events a run may execute "
                            f"(default {DEFAULT_MAX_EVENTS})")
    _add_common(chaos, top_level=False)
    report = add_parser(
        "report",
        help="render a repro.run/1 JSON document as self-contained HTML",
    )
    report.add_argument("run", type=pathlib.Path,
                        help="repro.run/1 JSON document (from --json or a "
                             "benchmark)")
    report.add_argument("-o", "--output", type=pathlib.Path, default=None,
                        help="HTML file to write (default: the input with "
                             "a .html suffix)")
    report.add_argument("--title", default=None,
                        help="report title (default derives from the "
                             "experiment name)")
    return parser


def _config(args: argparse.Namespace) -> SimConfig:
    config = SimConfig().with_nodes(args.nodes)
    machine = dataclasses.replace(
        config.machine,
        topology=args.topology,
        directory=args.directory,
        dir_pointers=args.dir_pointers,
        dir_region=args.dir_region,
    )
    config = dataclasses.replace(config, machine=machine)
    config.validate()
    return config


def _instrumented_params(args: argparse.Namespace, run) -> dict[str, Any]:
    """Envelope params of a representative run: the machine it built,
    and ``turns`` if the representative reads them."""
    params = run.machine.config.machine.envelope_params
    if args.experiment in READS_TURNS:
        params["turns"] = args.turns
    return params


def _sweep_opts(args: argparse.Namespace) -> dict[str, Any]:
    """Executor options (jobs/events) from the parsed arguments.

    Progress lines go to stderr so stdout and ``--json`` stay
    byte-identical whatever the job count.
    """
    events = EventBus()
    if args.progress or args.jobs > 1:
        attach_progress_printer(events)
    return {"jobs": args.jobs, "events": events}


def _emit(
    args: argparse.Namespace,
    name: str,
    text: str,
    out: Callable[[str], None],
    results: Optional[dict[str, Any]] = None,
    params: Optional[dict[str, Any]] = None,
) -> None:
    out(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / f"{name}.txt").write_text(text + "\n")
    if args.json is not None and results is not None:
        payload = make_run_payload(
            name,
            params=(params if params is not None else
                    {**_config(args).machine.envelope_params,
                     "turns": args.turns}),
            results=results,
        )
        dump_run(payload, args.json)


def _cmd_table1(args, out) -> int:
    # Table 1 always runs on its own machine, whatever the machine
    # options say; the envelope records that machine.
    measured = run_table1(**_sweep_opts(args))
    rows = [[label, TABLE1_EXPECTED[label], measured[label]]
            for label in TABLE1_EXPECTED]
    _emit(args, "table1", render_table(
        ["store target", "paper", "measured"], rows,
        title="Table 1: serialized network messages per store"), out,
        results={
            "expected": dict(TABLE1_EXPECTED),
            "measured": measured,
            "match": measured == TABLE1_EXPECTED,
        }, params=TABLE1_CONFIG.machine.envelope_params)
    return 0 if measured == TABLE1_EXPECTED else 1


def _cmd_figure2(args, out) -> int:
    config = _config(args)
    result = run_figure2(config, **_sweep_opts(args))
    sections = []
    apps_json: dict[str, Any] = {}
    for app in sorted(result.apps):
        apps_json[app] = {}
        for policy in ("UNC", "INV", "UPD"):
            sections.append(render_histogram(
                result.histogram(app, policy),
                title=f"Figure 2 — {app} / {policy}"))
            apps_json[app][policy] = {
                "histogram": {str(level): pct for level, pct
                              in result.histogram(app, policy).items()},
                "write_run": result.write_run(app, policy),
            }
    rows = [[app] + [round(result.write_run(app, p), 2)
                     for p in ("UNC", "INV", "UPD")]
            for app in sorted(result.apps)]
    sections.append(render_table(
        ["application", "UNC", "INV", "UPD"], rows,
        title="Section 4.2: average write-run lengths"))
    _emit(args, "figure2", "\n\n".join(sections), out,
          results={"apps": apps_json},
          params=config.machine.envelope_params)
    return 0


def _make_counter_figure(name: str, runner) -> Callable:
    def command(args, out) -> int:
        panels = runner(_config(args), turns=args.turns,
                        **_sweep_opts(args))
        _emit(args, name, render_figure(
            panels, f"{name.capitalize()}: average cycles per update"), out,
            results={"panels": [
                {"label": p.label,
                 "bars": [[label, value] for label, value in p.bars]}
                for p in panels
            ]})
        return 0

    return command


def _cmd_figure6(args, out) -> int:
    config = _config(args)
    result = run_figure6(config, **_sweep_opts(args))
    _emit(args, "figure6", render_figure6(result), out,
          results={"apps": {
              app: [[label, cycles] for label, cycles in bars]
              for app, bars in result.apps.items()
          }}, params=config.machine.envelope_params)
    return 0


def _cmd_ablation_reservations(args, out) -> int:
    outcome = run_reservation_ablation(_config(args), turns=args.turns,
                                       **_sweep_opts(args))
    rows = [[strategy, round(outcome.results[strategy][0], 1),
             outcome.results[strategy][1]]
            for strategy in RESERVATION_STRATEGIES]
    _emit(args, "ablation-reservations", render_table(
        ["strategy", "cycles/update", "local SC failures"], rows,
        title="Ablation §3.1: LL/SC reservation strategies"), out,
        results={"strategies": {
            strategy: {
                "cycles_per_update": outcome.results[strategy][0],
                "local_sc_failures": outcome.results[strategy][1],
            }
            for strategy in RESERVATION_STRATEGIES
        }})
    return 0


def _cmd_ablation_dropcopy(args, out) -> int:
    outcome = run_dropcopy_ablation(_config(args), turns=args.turns,
                                    **_sweep_opts(args))
    rows = [[panel] + [round(outcome.table[(panel, v)], 1)
                       for v in outcome.variants]
            for panel in outcome.panels]
    _emit(args, "ablation-dropcopy", render_table(
        ["panel"] + outcome.variants, rows,
        title="Ablation: drop_copy effect on the lock-free counter"), out,
        results={
            "panels": outcome.panels,
            "variants": outcome.variants,
            "cycles_per_update": {
                panel: {v: outcome.table[(panel, v)]
                        for v in outcome.variants}
                for panel in outcome.panels
            },
        })
    return 0


def _cmd_ablation_directory(args, out) -> int:
    from .harness.ablation import run_directory_ablation

    sizes = tuple(args.sizes) if args.sizes else (64, 256)
    config = _config(args)
    outcome = run_directory_ablation(config, sizes=sizes,
                                     turns=args.turns, **_sweep_opts(args))
    rows = [
        [p["nodes"], p["contention"], p["representation"], p["messages"],
         p["invalidations"], p["spurious_targets"],
         "yes" if p["final_value"] == p["final_expected"] else "NO"]
        for p in outcome.points
    ]
    eq = outcome.equivalence
    title = (
        "Ablation: directory sharer-set representations "
        f"(exact-capacity runs at n={eq['nodes']} identical: "
        f"{eq['identical']})"
    )
    _emit(args, "ablation-directory", render_table(
        ["nodes", "contention", "directory", "messages", "INVs",
         "spurious", "value ok"], rows, title=title), out,
        results={
            "equivalence": eq,
            "points": outcome.points,
        },
        # Every point runs one of ``sizes`` under every representation,
        # so the envelope names those, not ``--nodes``/``--directory``.
        params={"sizes": list(sizes),
                "topology": config.machine.topology,
                "dir_pointers": config.machine.dir_pointers,
                "dir_region": config.machine.dir_region,
                "turns": args.turns})
    return 0 if eq["identical"] else 1


def _cmd_stats(args, out) -> int:
    run = run_instrumented(args.experiment, _config(args), turns=args.turns)
    text = "\n".join([
        f"stats — {args.experiment}: {run.description}",
        "",
        run.machine.registry.render(),
        "",
        run.critpath().render(),
        "",
        run.hotspots.render(),
    ])
    _emit(args, f"stats-{args.experiment}", text, out)
    if args.json is not None:
        dump_run(run.payload(params=_instrumented_params(args, run)),
                 args.json)
    return 0


def _cmd_chaos(args, out) -> int:
    from .faults.chaos import render_chaos, run_chaos

    payload = run_chaos(
        args.seeds if args.seeds else [1, 2],
        intensities=args.intensities if args.intensities else [1.0],
        policies=(tuple(args.policies) if args.policies
                  else DEFAULT_POLICIES),
        workload=args.workload,
        turns=args.turns,
        max_events=args.max_events,
        config=_config(args),
        **_sweep_opts(args),
    )
    text = render_chaos(payload)
    out(text)
    # The sweep-health count goes to stderr, never into the
    # byte-reproducible envelope.  Only a quarantined point's verdict
    # carries the ``executed`` check.
    verdicts = payload["faults"]["verdicts"]
    quarantined = sum("executed" in verdict["checks"] for verdict in verdicts)
    if quarantined:
        print(f"chaos: sweep.quarantined = {quarantined}", file=sys.stderr)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / "chaos.txt").write_text(text + "\n")
    if args.json is not None:
        dump_run(payload, args.json)
    return 0 if payload["results"]["ok"] else 1


def _cmd_report(args, out) -> int:
    payload = load_run(args.run)
    target = (args.output if args.output is not None
              else args.run.with_suffix(".html"))
    write_report(payload, target, title=args.title)
    out(f"wrote {target}")
    return 0


def _cmd_trace(args, out) -> int:
    blocks = {args.block} if args.block is not None else None
    run = run_instrumented(args.experiment, _config(args), turns=args.turns,
                           blocks=blocks)
    events = run.recorder.events
    title = f"trace — {args.experiment}: {run.description}"
    text = export_events(events, args.fmt, title=title)
    out(text)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        ext = {"text": "txt", "jsonl": "jsonl", "chrome": "json"}[args.fmt]
        (args.out / f"trace-{args.experiment}.{ext}").write_text(text + "\n")
    if args.json is not None:
        payload = make_run_payload(
            f"trace-{args.experiment}",
            params={**_instrumented_params(args, run),
                    "block": args.block, "format": args.fmt},
            results={
                "description": run.description,
                "events": [json.loads(line)
                           for line in to_jsonl(events).splitlines()],
            },
        )
        dump_run(payload, args.json)
    return 0


_COMMANDS: dict[str, Callable] = {
    "table1": _cmd_table1,
    "figure2": _cmd_figure2,
    "figure3": _make_counter_figure("figure3", run_figure3),
    "figure4": _make_counter_figure("figure4", run_figure4),
    "figure5": _make_counter_figure("figure5", run_figure5),
    "figure6": _cmd_figure6,
    "ablation-reservations": _cmd_ablation_reservations,
    "ablation-dropcopy": _cmd_ablation_dropcopy,
    "ablation-directory": _cmd_ablation_directory,
    "chaos": _cmd_chaos,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "report": _cmd_report,
}


def _inject_profile(path: pathlib.Path, snapshot: dict[str, Any]) -> None:
    """Add the session's ``profile`` section to an emitted envelope.

    Commands build their ``--json`` payloads before the profiling
    session closes, so the attribution is grafted on afterwards (and
    re-validated against the schema).
    """
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return
    document["profile"] = snapshot
    validate_run_payload(document)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[Sequence[str]] = None,
         out: Callable[[str], None] = print) -> int:
    """Entry point; returns a process exit code.

    A :class:`ConfigError` (a machine or run the options describe is
    unusable) is reported in one line and exits 2, as argparse reports
    a bad option.  A :class:`~repro.errors.SimulationError` keeps its
    traceback: it points at a simulator bug.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run(args, out)
    except ConfigError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace, out: Callable[[str], None]) -> int:
    """Run the parsed command, under the profiler if ``--profile``."""
    command = _COMMANDS[args.command]
    if not args.profile:
        return command(args, out)
    # Profiling is an in-process session: a pool worker would run the
    # simulation outside it, so a profiled invocation is serial.
    args.jobs = 1
    with profiled() as prof:
        code = command(args, out)
    print(prof.render(), file=sys.stderr)
    if args.json is not None:
        _inject_profile(args.json, prof.snapshot())
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
