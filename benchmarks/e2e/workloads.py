"""The benchmark's four workloads, each a fixed list of simulation points.

A point is one independent simulation reached through the simulator's
public entry points: an application runner from ``repro.apps`` or, for
the 1024-node points, ``build_machine``/``alloc_sync``/``spawn``/``run``.
Every point runs its own functional check (the runners' final-value
checks, plus the checks below for runners that return values without
checking them) and hands back the machine it built, from which the
measuring code reads the registry counters and the sim digest.

All workloads are closed loops with one client: the points of a pass run
back to back, each starting when the previous one has finished.

Inputs come from the benchmark seed.  Seed 0 is the canonical input set
of the paper's figures (``SimConfig.seed=12345``; application seeds 11,
23 and 7; the scale crowd on nodes 2..49 with homes 0, 1 and 2).  Any
other seed derives every one of those from ``random.Random(seed)``,
except the Transitive Closure graph, which stays the canonical one: the
simulated work of a random 12-vertex closure swings by 2x between draws
(184k to 368k events over 26 of them), so a drawn graph would make the
workload's host time measure the draw instead of the simulator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro import SimConfig, SyncPolicy, build_machine
from repro.apps.cholesky import run_cholesky
from repro.apps.locusroute import run_locusroute
from repro.apps.synthetic import (
    SyntheticSpec,
    run_lockfree_counter,
    run_mcs_counter,
    run_tts_counter,
)
from repro.apps.tclosure import run_transitive_closure
from repro.config import scale_config
from repro.harness.configs import figure_variants
from repro.machine.machine import Machine
from repro.sync.variant import PrimitiveVariant

__all__ = [
    "Inputs",
    "Point",
    "PointResult",
    "derive_inputs",
    "make_points",
]

_WRITE_RUNS = (1.0, 1.5, 2.0, 3.0, 10.0)
_SCALE_COMBOS = (("torus", "limited"), ("torus", "full"), ("torus", "coarse"),
                 ("mesh", "limited"), ("mesh", "coarse"))
_SCALE_CROWD = 48
#: The Transitive Closure graph's seed at every benchmark seed.
_TCLOSURE_SEED = 7


@dataclass(frozen=True)
class Inputs:
    """Every input a workload takes, derived from the benchmark seed."""

    sim_seed: int
    #: Application input seeds, one per Figure-6 variant: independent
    #: inputs per variant average out how much the cost of one random
    #: input swings.
    locusroute_seeds: tuple[int, int, int]
    cholesky_seeds: tuple[int, int, int]
    #: Homes of the scale points' UNC, INV and UPD variables.
    scale_homes: tuple[int, int, int]
    scale_writer: int
    scale_readers: tuple[int, ...]


def derive_inputs(seed: int, n_nodes: int) -> Inputs:
    """Seed 0 -> the canonical figure inputs; otherwise seeded draws."""
    crowd = min(_SCALE_CROWD, n_nodes - 2)
    if seed == 0:
        return Inputs(12345, (11,) * 3, (23,) * 3, (0, 1, 2), 0,
                      tuple(range(2, 2 + crowd)))
    rng = random.Random(seed)

    def draws(n: int) -> tuple:
        return tuple(rng.randrange(1, 1 << 31) for _ in range(n))

    sim_seed = draws(1)[0]
    locus, chol = draws(3), draws(3)
    homes = tuple(rng.randrange(n_nodes) for _ in range(3))
    writer = rng.randrange(n_nodes)
    readers = rng.sample([n for n in range(n_nodes) if n != writer], crowd)
    return Inputs(sim_seed, locus, chol, homes,  # type: ignore[arg-type]
                  writer, tuple(sorted(readers)))


@dataclass
class PointResult:
    """What one point hands back to the measuring code."""

    machine: Machine
    cycles: int
    #: Useful outcomes: counter updates and lock acquisitions that
    #: completed (the numerator of ``controller.useful_ratio``).
    useful: int
    #: Final values the point computed, part of its sim digest.
    final: Any


@dataclass(frozen=True)
class Point:
    """One simulation point of a workload."""

    label: str
    run: Callable[[], PointResult]


def _observed(runner: Callable[..., Any], *args: Any, **kwargs: Any):
    """Call an application runner, capturing the machine it builds."""
    built: list[Machine] = []
    result = runner(*args, observe=built.append, **kwargs)
    return result, built[0]


def _synthetic(runner, variant: PrimitiveVariant, spec: SyntheticSpec,
               config: SimConfig) -> PointResult:
    result, machine = _observed(runner, variant, spec, config)
    return PointResult(machine, result.cycles, result.updates,
                       result.extra["counter"])


def _locusroute(variant: PrimitiveVariant, seed: int,
                config: SimConfig) -> PointResult:
    result, machine = _observed(run_locusroute, variant, seed=seed,
                                config=config)
    # The runner returns the cost grid's total without checking it.  Each
    # region update adds 1 to 4 cost words under one region-lock grab;
    # the other grabs are of the pool lock, one per wire plus one closing
    # grab per processor.  A lost update under a broken lock shows up as
    # a short total.
    regions = result.updates - result.extra["wires"] - machine.n_nodes
    if result.extra["cost_total"] != 4 * regions:
        raise AssertionError(
            f"locusroute {variant.label}: cost_total="
            f"{result.extra['cost_total']}, expected {4 * regions}")
    return PointResult(machine, result.cycles, result.updates,
                       result.extra["cost_total"])


def _cholesky(variant: PrimitiveVariant, seed: int,
              config: SimConfig) -> PointResult:
    result, machine = _observed(run_cholesky, variant, seed=seed,
                                config=config)
    # The runner exposes no final data to check.  Its lock-acquisition
    # count and simulated cycles are in the sim digest, which must repeat
    # across passes and, at seed 0, equal golden.json.
    return PointResult(machine, result.cycles, result.updates,
                       result.updates)


def _tclosure(variant: PrimitiveVariant, config: SimConfig) -> PointResult:
    # check=True: the runner compares the closure with a sequential one.
    result, machine = _observed(run_transitive_closure, variant, size=12,
                                seed=_TCLOSURE_SEED, config=config,
                                check=True)
    return PointResult(machine, result.cycles, result.updates,
                       result.extra["size"])


def _scale(config: SimConfig, inputs: Inputs, turns: int) -> PointResult:
    """Build, an all-node UNC storm, then a reader crowd and one writer on
    an INV and a UPD variable (the crowd overflows Dir_8_B's pointers)."""
    machine = build_machine(config)
    n = machine.n_nodes
    unc_home, inv_home, upd_home = inputs.scale_homes
    unc = machine.alloc_sync(SyncPolicy.UNC, home=unc_home)

    def storm(p):
        for _ in range(turns):
            yield p.fetch_add(unc, 1)

    machine.spawn_all(storm)
    machine.run()
    inv = machine.alloc_sync(SyncPolicy.INV, home=inv_home)
    upd = machine.alloc_sync(SyncPolicy.UPD, home=upd_home)
    seen: list[int] = []

    def reader(p):
        seen.append((yield p.load(inv)))
        seen.append((yield p.load(upd)))

    def writer(p):
        for _ in range(turns):
            yield p.fetch_add(inv, 1)
            yield p.fetch_add(upd, 1)

    for pid in inputs.scale_readers:
        machine.spawn(pid, reader)
    machine.run()
    machine.spawn(inputs.scale_writer, writer)
    end = machine.run()
    final = [machine.read_word(unc), machine.read_word(inv),
             machine.read_word(upd)]
    if final != [n * turns, turns, turns] or any(seen):
        raise AssertionError(f"scale point: final {final}, reads {set(seen)}")
    return PointResult(machine, end, n * turns + 2 * turns, final)


def make_points(workload: str, seed: int = 0, smoke: bool = False
                ) -> list[Point]:
    """The fixed point list of ``workload`` for ``seed``.

    ``smoke`` shrinks every point to 16 nodes and one turn (the
    self-test's size); the point lists keep their shape.
    """
    nodes = 16 if smoke else 1024 if workload == "scale_1024" else 64
    turns = 1 if smoke else None
    inputs = derive_inputs(seed, nodes)
    config = SimConfig(seed=inputs.sim_seed).with_nodes(nodes)
    points: list[Point] = []

    def add(label: str, fn: Callable[..., PointResult], *args: Any) -> None:
        points.append(Point(label, lambda: fn(*args)))

    if workload == "contention_c64":
        spec = SyntheticSpec(contention=nodes, turns=turns or 4)
        bars = [PrimitiveVariant(family, policy)
                for policy in (SyncPolicy.UNC, SyncPolicy.INV, SyncPolicy.UPD)
                for family in ("fap", "llsc", "cas")]
        bars += [PrimitiveVariant("cas", SyncPolicy.INVD),
                 PrimitiveVariant("cas", SyncPolicy.INVS)]
        for variant in bars:
            add(f"lockfree c={nodes} {variant.label}", _synthetic,
                run_lockfree_counter, variant, spec, config)
    elif workload == "apps_fig6":
        for i, variant in enumerate((PrimitiveVariant("fap", SyncPolicy.UNC),
                                     PrimitiveVariant("cas", SyncPolicy.INV),
                                     PrimitiveVariant("fap", SyncPolicy.UPD))):
            add(f"locusroute {variant.label}", _locusroute, variant,
                inputs.locusroute_seeds[i], config)
            add(f"cholesky {variant.label}", _cholesky, variant,
                inputs.cholesky_seeds[i], config)
            add(f"tclosure {variant.label}", _tclosure, variant, config)
    elif workload == "writerun_c1":
        runners = (("lockfree", run_lockfree_counter),
                   ("tts", run_tts_counter), ("mcs", run_mcs_counter))
        for app, runner in runners:
            for a in _WRITE_RUNS:
                spec = SyntheticSpec(contention=1, write_run=a,
                                     turns=turns or 16)
                for variant in figure_variants():
                    add(f"{app} a={a:g} {variant.label}", _synthetic,
                        runner, variant, spec, config)
    elif workload == "scale_1024":
        for topology, directory in _SCALE_COMBOS:
            scale = replace(scale_config(nodes, topology=topology,
                                         directory=directory),
                            seed=inputs.sim_seed)
            add(f"scale {topology}/{directory}", _scale, scale, inputs,
                turns or 2)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return points
