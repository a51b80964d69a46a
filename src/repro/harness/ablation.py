"""Ablation studies for the design choices the paper discusses.

* :func:`run_reservation_ablation` — §3.1's in-memory LL/SC reservation
  designs (bit vector, limited slots, bounded-free-list linked lists,
  write serial numbers) on a contended UNC LL/SC counter.
* :func:`run_dropcopy_ablation` — when drop_copy helps and when it
  hurts, across write-run lengths and contention, under INV and UPD.

Both sweeps run their independent points through
:mod:`repro.harness.parallel`, so ``jobs`` spreads them across worker
processes and ``cache`` memoizes them without changing the results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from ..apps.synthetic import SyntheticSpec, run_lockfree_counter
from ..coherence.policy import SyncPolicy
from ..config import SimConfig
from ..machine.machine import Machine, build_machine
from ..obs.events import EventBus
from ..sync.counters import increment
from ..sync.variant import PrimitiveVariant
from .parallel import ResultCache, make_point, run_sweep

__all__ = [
    "ReservationAblation",
    "run_reservation_ablation",
    "run_reservation_point",
    "DropCopyAblation",
    "run_dropcopy_ablation",
    "DirectoryAblation",
    "run_directory_ablation",
    "run_directory_point",
    "RESERVATION_STRATEGIES",
    "DIRECTORY_REPRESENTATIONS",
]

RESERVATION_STRATEGIES = ("bitvector", "limited", "linkedlist", "serial")

DIRECTORY_REPRESENTATIONS = ("full", "limited", "coarse")


@dataclass
class ReservationAblation:
    """strategy -> (cycles/update, local SC failures)."""

    results: dict[str, tuple[float, int]] = field(default_factory=dict)


def run_reservation_point(
    strategy: str,
    contention: int,
    turns: int,
    reservation_limit: int,
    config: SimConfig | None = None,
    observe: Optional[Callable[[Machine], None]] = None,
) -> dict[str, float | int]:
    """Measure one reservation strategy on a contended LL/SC counter."""
    base = config or SimConfig()
    run_config = replace(base, reservation_strategy=strategy,
                         reservation_limit=reservation_limit)
    machine = build_machine(run_config)
    if observe is not None:
        observe(machine)
    n_nodes = machine.n_nodes
    variant = PrimitiveVariant("llsc", SyncPolicy.UNC)
    counter = machine.alloc_sync(SyncPolicy.UNC, home=0)

    def program(p):
        for turn in range(turns):
            yield p.barrier(turn, n_nodes)
            if p.pid < contention:
                yield from increment(p, counter, variant)

    machine.spawn_all(program)
    machine.run()
    updates = turns * contention
    value = machine.read_word(counter)
    if value != updates:
        raise AssertionError(
            f"{strategy}: counter={value}, expected {updates}"
        )
    local_failures = sum(
        node.controller.stats.sc_local_failures for node in machine.nodes
    )
    return {
        "cycles_per_update": machine.now / updates,
        "local_sc_failures": local_failures,
    }


def run_reservation_ablation(
    config: SimConfig,
    contention: int | None = None,
    turns: int = 6,
    reservation_limit: int = 4,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: Optional[EventBus] = None,
) -> ReservationAblation:
    """Measure each reservation strategy on a contended LL/SC counter."""
    n_nodes = config.machine.n_nodes
    if contention is None:
        contention = min(16, n_nodes)
    points = [
        make_point(run_reservation_point, config=config,
                   label=f"reservations {strategy} c={contention}",
                   strategy=strategy, contention=contention, turns=turns,
                   reservation_limit=reservation_limit)
        for strategy in RESERVATION_STRATEGIES
    ]
    outcomes = run_sweep(points, jobs=jobs, cache=cache, events=events)
    outcome = ReservationAblation()
    for strategy, point_outcome in zip(RESERVATION_STRATEGIES, outcomes):
        measured = point_outcome.result
        outcome.results[strategy] = (
            measured["cycles_per_update"],
            measured["local_sc_failures"],
        )
    return outcome


@dataclass
class DropCopyAblation:
    """(panel label, variant label) -> cycles/update."""

    table: dict[tuple[str, str], float] = field(default_factory=dict)
    panels: list[str] = field(default_factory=list)
    variants: list[str] = field(default_factory=list)


def run_dropcopy_ablation(
    config: SimConfig,
    turns: int = 6,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: Optional[EventBus] = None,
) -> DropCopyAblation:
    """Sweep the lock-free counter with and without drop_copy."""
    contention = min(16, config.machine.n_nodes)
    specs = [
        ("a=1", SyntheticSpec(contention=1, write_run=1.0, turns=turns)),
        ("a=10", SyntheticSpec(contention=1, write_run=10.0, turns=turns)),
        (f"c={contention}", SyntheticSpec(contention=contention, turns=turns)),
    ]
    variants = {
        "INV": PrimitiveVariant("fap", SyncPolicy.INV),
        "INV+dc": PrimitiveVariant("fap", SyncPolicy.INV, use_drop=True),
        "UPD": PrimitiveVariant("fap", SyncPolicy.UPD),
        "UPD+dc": PrimitiveVariant("fap", SyncPolicy.UPD, use_drop=True),
    }
    points = [
        make_point(run_lockfree_counter, variant=variant, spec=spec,
                   config=config, label=f"dropcopy {spec_label} {var_label}")
        for spec_label, spec in specs
        for var_label, variant in variants.items()
    ]
    outcomes = iter(run_sweep(points, jobs=jobs, cache=cache, events=events))
    outcome = DropCopyAblation(
        panels=[label for label, _ in specs],
        variants=list(variants),
    )
    for spec_label, _ in specs:
        for var_label in variants:
            outcome.table[(spec_label, var_label)] = (
                next(outcomes).result.avg_cycles
            )
    return outcome


@dataclass
class DirectoryAblation:
    """Sharer-set representations on the share-then-write sweep.

    Attributes:
        points: One record per (nodes, contention, representation),
            carrying invalidation/message counts and the run's
            deterministic outputs.
        equivalence: Exact-capacity check at small N: limited pointers
            sized to the machine and 1-node regions must reproduce the
            full-bit-vector run *identically* (cycles, messages,
            metrics), demonstrating unchanged protocol decisions.
    """

    points: list[dict] = field(default_factory=list)
    equivalence: dict = field(default_factory=dict)


def run_directory_point(
    representation: str,
    nodes: int,
    contention: int,
    turns: int,
    dir_pointers: int = 8,
    dir_region: int = 8,
    config: SimConfig | None = None,
    observe: Optional[Callable[[Machine], None]] = None,
) -> dict:
    """One share-then-write run under one sharer-set representation.

    Every turn, ``contention`` processors load the counter — becoming
    directory sharers — then a rotating leader ``fetch_and_add``s it
    (INV policy), forcing the directory to invalidate every copy.  The
    full bit vector invalidates exactly the sharers; limited pointers
    past capacity broadcast; coarse vectors invalidate whole regions.
    Returns the message/invalidation counts that differ plus the final
    value, which must not.
    """
    base = config or SimConfig()
    run_config = replace(
        base,
        machine=replace(
            base.machine,
            n_nodes=nodes,
            directory=representation,
            dir_pointers=dir_pointers,
            dir_region=dir_region,
        ),
    )
    machine = build_machine(run_config)
    if observe is not None:
        observe(machine)
    counter = machine.alloc_sync(SyncPolicy.INV, home=0)
    n_nodes = machine.n_nodes

    def program(p):
        for turn in range(turns):
            yield p.barrier(turn, n_nodes)
            if p.pid < contention:
                yield p.load(counter)
                if p.pid == turn % contention:
                    yield p.fetch_add(counter, 1)

    machine.spawn_all(program)
    end = machine.run()
    snap = machine.registry.snapshot()

    def total(suffix: str) -> int:
        return sum(v for k, v in snap.items() if k.endswith(suffix))

    return {
        "representation": representation,
        "nodes": nodes,
        "contention": contention,
        "end_cycle": end,
        "final_value": machine.read_word(counter),
        "final_expected": turns,
        "messages": machine.mesh.stats.messages,
        "invalidations": snap.get("net.by_type.INV", 0),
        "inv_acks": snap.get("net.by_type.INV_ACK", 0),
        "spurious_targets": total(".spurious_targets"),
        "imprecise_fanouts": total(".imprecise_fanouts"),
    }


def run_directory_ablation(
    config: SimConfig,
    sizes: tuple[int, ...] = (64, 256),
    contentions: tuple[int, ...] = (4, 16, 64),
    turns: int = 4,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: Optional[EventBus] = None,
) -> DirectoryAblation:
    """Compare sharer-set representations across machine sizes.

    Two parts: an *equivalence* gate at the smallest size — every
    representation configured for exact capacity (pointers = N,
    region = 1) must match the full bit vector cycle-for-cycle — and the
    *cost sweep*, where the default sparse parameters pay real extra
    invalidations that grow with machine size.
    """
    small = min(sizes)
    eq_points = [
        make_point(
            run_directory_point, config=config,
            label=f"directory {rep} exact n={small}",
            representation=rep, nodes=small,
            contention=min(16, small), turns=turns,
            dir_pointers=small, dir_region=1,
        )
        for rep in DIRECTORY_REPRESENTATIONS
    ]
    sweep_jobs = [
        (rep, nodes, contention)
        for nodes in sizes
        for contention in contentions
        if contention <= nodes
        for rep in DIRECTORY_REPRESENTATIONS
    ]
    sweep_points = [
        make_point(
            run_directory_point, config=config,
            label=f"directory {rep} n={nodes} c={contention}",
            representation=rep, nodes=nodes,
            contention=contention, turns=turns,
            dir_pointers=config.machine.dir_pointers,
            dir_region=config.machine.dir_region,
        )
        for rep, nodes, contention in sweep_jobs
    ]
    outcomes = run_sweep(eq_points + sweep_points, jobs=jobs, cache=cache,
                         events=events)
    eq = [o.result for o in outcomes[: len(eq_points)]]
    full = eq[0]
    outcome = DirectoryAblation(
        equivalence={
            "nodes": small,
            "identical": all(r == {**full, "representation":
                                   r["representation"]} for r in eq),
            "runs": eq,
        },
        points=[o.result for o in outcomes[len(eq_points):]],
    )
    return outcome
