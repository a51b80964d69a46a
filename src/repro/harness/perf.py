"""Wall-clock performance harness for the simulation kernel.

The simulator is deterministic, so its *results* are regression-tested
bit-for-bit elsewhere (``tools/diff_envelopes.py`` against the committed
``BENCH_*.json``); this module tracks how *fast* those results are
produced.  It runs five fixed-workload kernels, each stressing one
layer of the hot path:

``event_churn``
    The bare :class:`~repro.sim.engine.Simulator`: self-rescheduling
    callback chains with a realistic mix of near (calendar-bucket) and
    far (heap) delays.  No machine model at all — this is the event
    core's ceiling.
``faa_storm``
    A full machine under total contention: every processor hammers one
    ``fetch_and_add`` counter (INV policy), exercising the coherence
    controller, directory, memory queue, and network together.
``mesh_saturation``
    The wormhole mesh alone: rounds of all-to-all message blasts through
    the entry/exit port model, no coherence on top.
``table1_mini``
    A shrunk Table 1 sweep — the paper's flagship experiment end to end,
    including machine construction costs.
``mesh_1024``
    Construction plus two storms on a 1024-node torus, under a memory
    budget that gates the topology and directory footprint.

Each kernel returns a dict of **deterministic proxies** (event counts,
message counts, end cycles, final values).  The harness replays every
kernel ``reps`` times, asserts the proxies are identical on every rep
(catching nondeterminism the moment an optimization introduces it), and
reports best-of-``reps`` wall seconds plus events/second.  One extra
untimed rep runs under :mod:`tracemalloc`, with the cyclic collector
off, to record peak allocations.

``repro perf [--quick] [--json OUT]`` drives this from the CLI; the JSON
output is a standard ``repro.run/1`` envelope (``BENCH_PERF.json`` in
CI) gated by ``tools/check_perf_regression.py``, which fails on any
proxy drift and treats wall-clock numbers as informational.  See
``docs/performance.md`` for how to read the output.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Any, Callable, Iterable, Optional

from ..config import scale_config, small_config
from ..coherence.policy import SyncPolicy
from ..machine.machine import build_machine
from ..network.mesh import WormholeMesh
from ..network.message import Message, MessageType, Unit
from ..obs.schema import make_run_payload
from ..sim.engine import Simulator
from .report import render_table
from .table1 import run_table1

__all__ = [
    "PERF_KERNELS",
    "MEM_BUDGETS_KIB",
    "run_perf",
    "perf_payload",
    "render_perf",
]

#: Delay mix for the event-churn kernel: dominated by the small delays a
#: real machine schedules (hits, occupancies, hops), with one far delay
#: so the heap back end and the calendar/heap merge path stay hot.
_CHURN_DELAYS = (1, 2, 4, 0, 8, 3, 300, 5)


def _event_churn(quick: bool) -> dict[str, Any]:
    """Self-rescheduling callback chains on a bare simulator."""
    budget = 60_000 if quick else 240_000
    sim = Simulator()
    remaining = [budget]
    delays = _CHURN_DELAYS
    schedule = sim.schedule

    def tick(_token: int) -> None:
        left = remaining[0]
        if left:
            remaining[0] = left - 1
            schedule(delays[left & 7], tick, left)

    for chain in range(16):
        schedule(chain & 3, tick, chain)
    sim.run()
    return {"end_cycle": sim.now, "events": sim.events_processed}


def _faa_storm(quick: bool) -> dict[str, Any]:
    """Every processor increments one INV-policy counter, full tilt."""
    nodes, turns = (8, 24) if quick else (16, 96)
    m = build_machine(small_config(n_nodes=nodes))
    addr = m.alloc_sync(SyncPolicy.INV, home=1)

    def prog(p):
        for _ in range(turns):
            yield p.fetch_add(addr, 1)

    m.spawn_all(prog)
    end = m.run()
    return {
        "end_cycle": end,
        "events": m.sim.events_processed,
        "messages": m.mesh.stats.messages,
        "flits": m.mesh.stats.flits,
        "final_value": m.read_word(addr),
    }


def _mesh_saturation(quick: bool) -> dict[str, Any]:
    """Rounds of all-to-all blasts through the bare wormhole mesh."""
    rounds = 48 if quick else 200
    n_nodes = 16
    sim = Simulator()
    mesh = WormholeMesh(sim, small_config(n_nodes=n_nodes))
    delivered = [0]

    def sink(msg: Message) -> None:
        delivered[0] += 1

    for node in range(n_nodes):
        mesh.register(node, Unit.HOME, sink)

    def blast(r: int) -> None:
        for src in range(n_nodes):
            dst = (src + r + 1) % n_nodes
            mesh.send(Message(MessageType.GETX, src, dst, Unit.HOME, src))

    for r in range(rounds):
        sim.schedule(r * 3, blast, r)
    sim.run()
    return {
        "end_cycle": sim.now,
        "events": sim.events_processed,
        "messages": mesh.stats.messages + mesh.stats.local_messages,
        "flits": mesh.stats.flits,
        "delivered": delivered[0],
    }


def _table1_mini(quick: bool) -> dict[str, Any]:
    """The paper's Table 1 sweep at a reduced node count."""
    config = None if quick else small_config(n_nodes=16)
    chains = run_table1(config=config)
    return {"chains": dict(chains)}


def _registry_sum(machine, suffix: str) -> int:
    """Sum one per-node counter family from the machine's registry."""
    snap = machine.registry.snapshot()
    return sum(v for k, v in snap.items() if k.endswith(suffix))


def _mesh_1024(quick: bool) -> dict[str, Any]:
    """Construction + storms on the 1024-node (32x32 torus) machine.

    The scale configuration a real 1024-node machine would use: torus
    links, limited-pointer (Dir_8_B) directory.  Phase one is the
    paper's winning recipe at scale — every processor hits one uncached
    ``fetch_and_add`` counter.  Phase two puts a smaller crowd on an
    INV-policy counter, overflowing the pointer capacity so the
    directory broadcasts — the worst-case fan-out an imprecise
    representation pays, with the spurious-target volume reported as a
    deterministic proxy.  The tracemalloc window around this kernel
    covers machine construction, so its budget gates the constant-memory
    claim for topology + directory state.
    """
    inv_crowd, turns = (16, 1) if quick else (48, 2)
    config = scale_config(1024, topology="torus", directory="limited")
    t0 = time.perf_counter()
    m = build_machine(config)
    build_wall = time.perf_counter() - t0
    unc = m.alloc_sync(SyncPolicy.UNC, home=0)

    def unc_prog(p):
        for _ in range(turns):
            yield p.fetch_add(unc, 1)

    m.spawn_all(unc_prog)
    unc_end = m.run()
    # Readers first, so the directory accumulates `inv_crowd` sharers —
    # past the 8 pointers, the Dir_8_B entry overflows.  The writer's
    # fetch_and_add then invalidates via broadcast: 1023 INVs for a
    # handful of true sharers, all counted in spurious_targets.
    inv = m.alloc_sync(SyncPolicy.INV, home=1)

    def reader(p):
        yield p.load(inv)

    def writer(p):
        for _ in range(turns):
            yield p.fetch_add(inv, 1)

    for pid in range(2, 2 + inv_crowd):
        m.spawn(pid, reader)
    m.run()
    m.spawn(0, writer)
    end = m.run()
    return {
        "end_cycle": end,
        "unc_end_cycle": unc_end,
        "events": m.sim.events_processed,
        "messages": m.mesh.stats.messages,
        "unc_final": m.read_word(unc),
        "inv_final": m.read_word(inv),
        "spurious_targets": _registry_sum(m, ".spurious_targets"),
        "imprecise_fanouts": _registry_sum(m, ".imprecise_fanouts"),
        "_info": {"build_wall_seconds": round(build_wall, 6)},
    }


_Kernel = Callable[[bool], dict[str, Any]]

PERF_KERNELS: dict[str, _Kernel] = {
    "event_churn": _event_churn,
    "faa_storm": _faa_storm,
    "mesh_saturation": _mesh_saturation,
    "table1_mini": _table1_mini,
    "mesh_1024": _mesh_1024,
}

#: Absolute peak-allocation budgets per kernel, in KiB, gated by
#: ``tools/check_perf_regression.py`` on every CI run (on top of the
#: ±10% drift band against the committed baseline).  These are
#: deliberately loose ceilings — about 2x the measured peaks — meant to
#: catch structural regressions (an O(N^2) table sneaking back into the
#: topology, per-node state growing a dimension), not noise.  The
#: ``mesh_1024`` budget is the headline: a 1024-node machine must keep
#: construction + two storms under ~32 MiB.
MEM_BUDGETS_KIB: dict[str, int] = {
    "event_churn": 512,
    "faa_storm": 4_096,
    "mesh_saturation": 1_024,
    "table1_mini": 8_192,
    "mesh_1024": 32_768,
}


def run_perf(
    quick: bool = False,
    reps: Optional[int] = None,
    kernels: Optional[Iterable[str]] = None,
) -> dict[str, Any]:
    """Run the microbenchmark kernels; return the results tree.

    Args:
        quick: Use the small workloads (CI smoke; seconds, not minutes).
        reps: Timed repetitions per kernel (best-of).  Defaults to 2 in
            quick mode, 3 otherwise.
        kernels: Subset of :data:`PERF_KERNELS` names; all by default.

    Raises:
        RuntimeError: if any kernel's deterministic proxies differ
            between repetitions.
    """
    if reps is None:
        reps = 2 if quick else 3
    names = list(PERF_KERNELS) if kernels is None else list(kernels)
    out: dict[str, Any] = {}
    for name in names:
        fn = PERF_KERNELS[name]
        # One untimed rep under tracemalloc: allocation tracking slows
        # execution several-fold, so it never shares a rep with timing.
        # peak_alloc_kib is gated at ±10% by
        # tools/check_perf_regression.py and must be stable run to run,
        # so the rep starts from a collected heap and runs with the
        # cyclic collector off: whether and when a collection frees
        # garbage cycles (a finished machine) mid-rep differs between
        # interpreter versions.
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            proxies = fn(quick)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # A kernel may stash host-side measurements (wall-based speedup
        # ratios, per-variant throughput) under "_info"; they are
        # reported alongside the proxies but excluded from the
        # determinism comparison and never gated.
        info = proxies.pop("_info", None)
        best: Optional[float] = None
        for _ in range(reps):
            t0 = time.perf_counter()
            again = fn(quick)
            wall = time.perf_counter() - t0
            info = again.pop("_info", info)
            if again != proxies:
                raise RuntimeError(
                    f"perf kernel {name!r} is nondeterministic: "
                    f"{again!r} != {proxies!r}"
                )
            if best is None or wall < best:
                best = wall
        events = proxies.get("events")
        peak_kib = round(peak / 1024, 1)
        budget = MEM_BUDGETS_KIB.get(name)
        if budget is not None and peak_kib > budget:
            raise RuntimeError(
                f"perf kernel {name!r} peaked at {peak_kib:,.0f} KiB, "
                f"over its {budget:,} KiB budget"
            )
        out[name] = {
            "wall_seconds": round(best, 6),
            "events_per_second": (
                round(events / best) if events and best else None
            ),
            "peak_alloc_kib": peak_kib,
            "budget_kib": budget,
            "reps": reps,
            "proxies": proxies,
        }
        if info is not None:
            out[name]["info"] = info
    return {"mode": "quick" if quick else "full", "kernels": out}


def perf_payload(results: dict[str, Any]) -> dict[str, Any]:
    """Wrap :func:`run_perf` results in a ``repro.run/1`` envelope."""
    return make_run_payload(
        "perf",
        params={"mode": results["mode"]},
        results=results["kernels"],
    )


def render_perf(results: dict[str, Any]) -> str:
    """Render the results tree as an aligned monospace table."""
    headers = ["kernel", "wall (s)", "events/s", "peak alloc (KiB)"]
    rows = []
    for name, r in results["kernels"].items():
        eps = r["events_per_second"]
        rows.append(
            [
                name,
                f"{r['wall_seconds']:.4f}",
                f"{eps:,}" if eps else "-",
                f"{r['peak_alloc_kib']:,.0f}",
            ]
        )
    title = f"perf microbenchmarks ({results['mode']} mode, best of reps)"
    return render_table(headers, rows, title=title)
