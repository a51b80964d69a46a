"""Golden seeded-run determinism across the simulation fast path.

The kernel optimizations (heap + same-cycle event queue, inline
per-message bookkeeping, hot-path counter caches) must be *invisible*:
every seeded run stays bit-identical to the values captured before the
fast path landed, with observability on or off, at any sweep job count.
These goldens pin a contention storm per primitive family and policy;
if an optimization ever changes a cycle count or message count, this
file fails before the benchmark gate does.
"""

import pytest

from repro import SyncPolicy, build_machine, small_config
from repro.harness.table1 import TABLE1_EXPECTED, run_table1
from repro.obs.events import EventRecorder
from repro.obs.hotspot import HotspotTracker
from repro.obs.spans import SpanBuilder

#: (primitive, policy) -> (end cycle, events executed, net messages,
#: net flits, final counter value) for a 4-node, 8-turn storm on the
#: seeded small config.  Captured on the pre-fast-path kernel; any drift
#: is a semantic change, not an optimization.
GOLDEN_STORMS = {
    ("faa", "INV"): (567, 94, 26, 78, 32),
    ("faa", "UPD"): (670, 312, 204, 564, 32),
    ("faa", "UNC"): (657, 132, 48, 144, 32),
    ("llsc", "UNC"): (3537, 644, 288, 864, 32),
}


def _storm(prim: str, policy: str, observe: bool = False):
    m = build_machine(small_config(n_nodes=4))
    instruments = None
    if observe:
        instruments = (
            EventRecorder(m.events),
            SpanBuilder(m.events),
            HotspotTracker(m.events),
        )
    addr = m.alloc_sync(SyncPolicy(policy), home=1)

    if prim == "faa":
        def prog(p):
            for _ in range(8):
                yield p.fetch_add(addr, 1)
    else:
        def prog(p):
            for _ in range(8):
                while True:
                    v = yield p.ll(addr)
                    ok = yield p.sc(addr, v.value + 1, token=v.token)
                    if ok:
                        break

    m.spawn_all(prog)
    end = m.run()
    net = m.mesh.stats
    outcome = (end, m.sim.events_processed, net.messages, net.flits,
               m.read_word(addr))
    return outcome, m, instruments


@pytest.mark.parametrize("prim,policy", sorted(GOLDEN_STORMS))
def test_storm_matches_pre_fastpath_golden(prim, policy):
    outcome, _, _ = _storm(prim, policy)
    assert outcome == GOLDEN_STORMS[(prim, policy)]


@pytest.mark.parametrize("prim,policy", sorted(GOLDEN_STORMS))
def test_storm_identical_with_observability_attached(prim, policy):
    bare, bare_machine, _ = _storm(prim, policy, observe=False)
    observed, obs_machine, instruments = _storm(prim, policy, observe=True)
    assert observed == bare
    assert instruments is not None and len(instruments[0]) > 0
    # The full registry must agree too, not just the headline numbers.
    assert obs_machine.registry.snapshot() == bare_machine.registry.snapshot()


def test_table1_identical_serial_and_parallel():
    serial = run_table1(jobs=1)
    parallel = run_table1(jobs=2)
    assert serial == parallel == TABLE1_EXPECTED


def test_repeated_runs_share_every_registry_counter():
    _, first, _ = _storm("faa", "INV")
    _, second, _ = _storm("faa", "INV")
    assert first.registry.snapshot() == second.registry.snapshot()
