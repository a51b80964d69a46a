"""The coherence hot path makes no hidden Python-level calls per event.

``Enum.__hash__``, the enum ``value`` getter and a dataclass
``__init__`` are all Python code, so a dict probe on an enum key, a
``.value`` read or a throwaway dataclass on the per-message path costs
one Python frame per event.  The same lock-free counter bars run at two
lengths under ``sys.setprofile``; the counts of those calls must not
grow with the length, i.e. they are spent once per run, not per event.

Python frames are what a simulated event costs on the host, so the
number of them per executed event is pinned too, on 16-node proxies of
the benchmark's four workloads, and so is the number per node of a
64-node machine build.  A frame counts when it runs in a ``repro``
module, including code ``repro`` generates (a dataclass's
``__init__``).  The counts are exact and host-independent.

Objects that only the cyclic garbage collector can free cost collector
passes that grow with the run, so the same proxies must leave none.
"""

import dataclasses
import enum
import gc
import sys

import pytest

from repro import SimConfig, SyncPolicy, build_machine
from repro.apps.synthetic import (
    SyntheticSpec,
    run_lockfree_counter,
    run_mcs_counter,
    run_tts_counter,
)
from repro.apps.tclosure import run_transitive_closure
from repro.coherence.home import HomeNode
from repro.config import scale_config
from repro.faults.plan import DEFAULT_CHAOS_PLAN
from repro.harness.configs import figure_variants
from repro.memory.directory import DirectoryEntry
from repro.stats import writerun
from repro.sync.variant import PrimitiveVariant

BARS = (
    PrimitiveVariant("fap", SyncPolicy.UNC),
    PrimitiveVariant("cas", SyncPolicy.INV),
    PrimitiveVariant("llsc", SyncPolicy.UPD),
    PrimitiveVariant("cas", SyncPolicy.INVS),
)

#: id(code object) -> name.  The ``value`` getter is
#: ``types.DynamicClassAttribute.__get__`` on Python 3.10 and
#: ``enum.property.__get__`` from 3.11 on.
WATCHED = {
    id(enum.Enum.__hash__.__code__): "Enum.__hash__",
    id(type(enum.Enum.__dict__["value"]).__get__.__code__): "Enum.value",
    id(writerun._RunState.__init__.__code__): "_RunState.__init__",
}


def count_calls(turns: int) -> dict[str, int]:
    """Watched-call counts over the four 16-node bars at ``turns``."""
    config = SimConfig().with_nodes(16)
    counts = dict.fromkeys(WATCHED.values(), 0)

    def profile(frame, event, arg):
        if event == "call":
            name = WATCHED.get(id(frame.f_code))
            if name is not None:
                counts[name] += 1

    sys.setprofile(profile)
    try:
        for variant in BARS:
            run_lockfree_counter(
                variant, SyntheticSpec(contention=16, turns=turns), config)
    finally:
        sys.setprofile(None)
    return counts


def test_hot_path_call_counts_do_not_grow_with_run_length():
    short = count_calls(turns=2)
    long = count_calls(turns=4)
    grown = {name: (short[name], long[name])
             for name in short if long[name] > short[name]}
    assert not grown, f"per-event Python calls (turns 2 -> 4): {grown}"


# ----------------------------------------------------------------------
# Python frames per executed event.
# ----------------------------------------------------------------------

CONFIG16 = SimConfig().with_nodes(16)
LOCKFREE_BARS = [PrimitiveVariant(family, policy)
                 for policy in (SyncPolicy.UNC, SyncPolicy.INV, SyncPolicy.UPD)
                 for family in ("fap", "llsc", "cas")]
LOCKFREE_BARS += [PrimitiveVariant("cas", SyncPolicy.INVD),
                  PrimitiveVariant("cas", SyncPolicy.INVS)]


def lockfree_c16(observe):
    """``contention_c64``'s 11 lock-free counter bars at c=16."""
    for variant in LOCKFREE_BARS:
        run_lockfree_counter(variant, SyntheticSpec(contention=16, turns=2),
                             CONFIG16, observe=observe)


def tclosure(observe):
    """One ``apps_fig6`` application."""
    run_transitive_closure(PrimitiveVariant("cas", SyncPolicy.INV), size=8,
                           config=CONFIG16, observe=observe)


def writerun_c1(observe):
    """``writerun_c1``'s bars at one write run, for all three counters."""
    spec = SyntheticSpec(contention=1, write_run=1.5, turns=4)
    for runner in (run_lockfree_counter, run_tts_counter, run_mcs_counter):
        for variant in figure_variants():
            runner(variant, spec, CONFIG16, observe=observe)


def limited_storm(observe):
    """``scale_1024``'s phases on a torus whose 2-pointer directory the
    reader crowd overflows: a UNC storm, then readers and one writer of
    an INV and a UPD variable."""
    machine = build_machine(scale_config(16, topology="torus",
                                         directory="limited", dir_pointers=2))
    observe(machine)
    unc = machine.alloc_sync(SyncPolicy.UNC, home=0)
    inv = machine.alloc_sync(SyncPolicy.INV, home=1)
    upd = machine.alloc_sync(SyncPolicy.UPD, home=2)

    def storm(p):
        for _ in range(8):
            yield p.fetch_add(unc, 1)

    def reader(p):
        yield p.load(inv)
        yield p.load(upd)

    def writer(p):
        for _ in range(8):
            yield p.fetch_add(inv, 1)
            yield p.fetch_add(upd, 1)

    machine.spawn_all(storm)
    machine.run()
    for pid in range(2, 14):
        machine.spawn(pid, reader)
    machine.run()
    machine.spawn(0, writer)
    machine.run()


#: Proxy -> most Python calls per executed event it may make.  Set to
#: the counts measured at the last change that lowered them (rounded
#: up); a change that lowers a count may lower its ceiling.
CEILINGS = {
    lockfree_c16: 10.08,
    tclosure: 10.33,
    writerun_c1: 13.45,
    limited_storm: 9.40,
}


def python_calls(fn) -> int:
    """Python calls into ``repro`` made while ``fn()`` runs.

    A call is a ``call`` profile event (a frame started, or a generator
    resumed) whose frame runs in a ``repro`` module: its globals'
    ``__name__`` is ``repro`` or starts with ``repro.``.  That takes in
    code ``repro`` generates, such as a dataclass's ``__init__``, whose
    file name is ``<string>``.  Code named ``<...>`` is left out: Python
    3.12 inlines comprehensions (PEP 709), so counting them would make
    the number depend on the version.
    """
    ours: dict = {}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            hit = ours.get(code)
            if hit is None:
                module = frame.f_globals.get("__name__", "")
                hit = ours[code] = (
                    (module == "repro" or module.startswith("repro."))
                    and not code.co_name.startswith("<"))
            calls += hit

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def python_opcodes(fn) -> int:
    """Bytecodes executed in ``repro`` frames while ``fn()`` runs.

    Stricter than :func:`python_calls`: work added inside a frame that
    runs anyway, such as a branch taken at an emission site, counts
    too.  A frame counts when its globals' ``__name__`` is ``repro`` or
    starts with ``repro.``, comprehensions included, so compare counts
    taken on one interpreter only.
    """
    ours: dict = {}
    executed = 0

    def count(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return count

    def trace(frame, event, arg):
        code = frame.f_code
        hit = ours.get(code)
        if hit is None:
            module = frame.f_globals.get("__name__", "")
            hit = ours[code] = module == "repro" or module.startswith("repro.")
        if not hit:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count

    sys.settrace(trace)
    try:
        fn()
    finally:
        sys.settrace(None)
    return executed


def python_calls_per_event(proxy) -> float:
    """Python calls into ``repro`` per event executed by ``proxy``."""
    machines = []
    calls = python_calls(lambda: proxy(machines.append))
    return calls / sum(m.sim.events_processed for m in machines)


def test_python_calls_per_event_stay_under_their_ceilings():
    over = {}
    for proxy, ceiling in CEILINGS.items():
        per_event = python_calls_per_event(proxy)
        if per_event > ceiling:
            over[proxy.__name__] = (round(per_event, 4), ceiling)
    assert not over, f"Python calls per event (measured, ceiling): {over}"


#: Most Python calls per node that building a 64-node machine may make,
#: counted as :func:`python_calls` counts them.  Components keep their
#: counters as attributes the registry reads on demand, and processors
#: build their RNGs on first use, so a build makes no per-node metric
#: objects; one ``Counter`` per node per metric would cost about three
#: calls each.
BUILD_CALLS_PER_NODE = 27.93


def test_build_calls_per_node_stay_under_ceiling():
    config = SimConfig().with_nodes(64)
    per_node = python_calls(lambda: build_machine(config)) / 64
    assert per_node <= BUILD_CALLS_PER_NODE, (
        f"Python calls per node of a 64-node build: {per_node:.4f} "
        f"(ceiling {BUILD_CALLS_PER_NODE})")


# ----------------------------------------------------------------------
# Cyclic garbage.
# ----------------------------------------------------------------------


def chaos_c16(observe):
    """A lock-free and a TTS counter under the default chaos plan, whose
    home busy-NAKs replay requests and whose network delivers some DROP
    notices twice."""
    config = dataclasses.replace(CONFIG16, faults=DEFAULT_CHAOS_PLAN)
    spec = SyntheticSpec(contention=16, turns=2)
    run_lockfree_counter(PrimitiveVariant("llsc", SyncPolicy.UPD, use_drop=True),
                         spec, config, observe=observe)
    run_tts_counter(PrimitiveVariant("fap", SyncPolicy.UPD, use_drop=True),
                    spec, config, observe=observe)


@pytest.mark.parametrize("proxy", [*CEILINGS, chaos_c16],
                         ids=lambda proxy: proxy.__name__)
def test_runs_leave_no_cyclic_garbage(proxy):
    """Everything a run drops is freed by reference counting.

    A finished transaction must not stay reachable from itself, or every
    transaction of a run waits for the cyclic collector.  The machines
    stay alive through ``observe``, so their own structure is not
    garbage.
    """
    machines = []
    gc.collect()
    gc.disable()
    try:
        proxy(machines.append)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0, (
        f"{proxy.__name__} left {garbage} objects only the cyclic "
        f"collector could free")
    if proxy is chaos_c16:
        # The faulted paths this case is here for did run.
        fired = {name: sum(m.registry.snapshot().get(name, 0)
                           for m in machines)
                 for name in ("faults.home.nak", "faults.net.dup")}
        assert all(fired.values()), fired


# ----------------------------------------------------------------------
# UPD fan-out.
# ----------------------------------------------------------------------


def test_upd_fanout_is_built_only_for_writes(monkeypatch):
    """A memory-side UPD op builds its update fan-out only when it wrote:
    at c=16 most LL/SC and CAS attempts fail and send no updates."""
    inside = [False]
    counts = {"ops": 0, "writes": 0, "targets": 0}
    sync_upd = HomeNode._sync_upd
    apply_op = HomeNode._apply_op
    targets = DirectoryEntry.targets

    def counting_sync_upd(self, msg, kind):
        inside[0] = True
        try:
            sync_upd(self, msg, kind)
        finally:
            inside[0] = False

    def counting_apply_op(self, msg, kind):
        result, wrote = apply_op(self, msg, kind)
        if inside[0]:
            counts["ops"] += 1
            counts["writes"] += wrote
        return result, wrote

    def counting_targets(self, exclude):
        if inside[0]:
            counts["targets"] += 1
        return targets(self, exclude)

    monkeypatch.setattr(HomeNode, "_sync_upd", counting_sync_upd)
    monkeypatch.setattr(HomeNode, "_apply_op", counting_apply_op)
    monkeypatch.setattr(DirectoryEntry, "targets", counting_targets)
    for family in ("llsc", "cas"):
        run_lockfree_counter(PrimitiveVariant(family, SyncPolicy.UPD),
                             SyntheticSpec(contention=16, turns=2), CONFIG16)
    assert 0 < counts["writes"] < counts["ops"], counts
    assert counts["targets"] == counts["writes"], counts
