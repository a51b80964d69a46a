"""Property-based tests: sharer-set representations never change behavior.

The scaling claim of ``docs/scaling.md`` is that limited-pointer and
coarse-vector directories alter only the invalidation *fan-out*, never
the protocol's decisions: random operation sequences must drive every
representation through identical state transitions, and whole machines
must produce identical final values.
"""

import dataclasses

from hypothesis import example, given, settings, strategies as st

from repro.coherence.policy import SyncPolicy
from repro.config import SimConfig
from repro.machine.machine import build_machine
from repro.memory.directory import Directory, DirState
from repro.memory.sharers import make_sharer_factory

N_MAX = 64

EXACT_COARSE = {"representation": "coarse", "region": 1}

REPRESENTATIONS = (
    {"representation": "full"},
    {"representation": "limited", "pointers": 2},
    {"representation": "limited", "pointers": 8},
    {"representation": "coarse", "region": 4},
    EXACT_COARSE,
)

# One random op on a directory entry.  Transitions mirror what the home
# node does: reads add sharers, writes go exclusive, drops remove, and
# writebacks demote to a one-sharer SHARED entry.
ops = st.sampled_from(["add", "remove", "exclusive", "share_wb", "uncache"])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=N_MAX),
    seq=st.lists(st.tuples(ops, st.integers(0, N_MAX - 1)), max_size=40),
)
# A dropped copy followed by a fan-out from another node.
@example(n=16, seq=[("add", 3), ("add", 7), ("remove", 7), ("add", 3)])
def test_identical_state_transitions(n, seq):
    dirs = [
        Directory(0, make_sharer_factory(n_nodes=n, **kwargs))
        for kwargs in REPRESENTATIONS
    ]
    entries = [d.entry(7) for d in dirs]
    for op, raw_node in seq:
        node = raw_node % n
        reference = entries[0]
        for entry in entries:
            if op == "add" and entry.state is not DirState.EXCLUSIVE:
                entry.add_sharer(node)
            elif op == "remove":
                entry.remove_sharer(node)
            elif op == "exclusive":
                entry.set_exclusive(node)
            elif op == "share_wb":
                entry.set_shared([node])
            elif op == "uncache":
                entry.set_uncached()
        for kwargs, entry in zip(REPRESENTATIONS[1:], entries[1:]):
            # Identical protocol-visible state after every transition.
            assert entry.state is reference.state
            assert entry.owner == reference.owner
            assert set(entry.sharers) == set(reference.sharers)
            assert entry.is_sharer(node) == reference.is_sharer(node)
            # Fan-out is always a superset of the exact sharers, in
            # ascending order, never including the excluded node.
            targets = entry.targets(node)
            assert targets == sorted(targets)
            assert node not in targets
            assert set(reference.targets(node)) <= set(targets)
            if kwargs is EXACT_COARSE:
                # One node per region is the full bit vector exactly.
                assert targets == reference.targets(node)


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([4, 8, 16]),
    contention=st.integers(min_value=1, max_value=8),
    turns=st.integers(min_value=1, max_value=3),
    policy=st.sampled_from([SyncPolicy.INV, SyncPolicy.UPD]),
)
def test_identical_final_values_across_representations(
    n, contention, turns, policy
):
    contention = min(contention, n)
    finals = []
    for kwargs in (
        {"directory": "full"},
        {"directory": "limited", "dir_pointers": 2},
        {"directory": "coarse", "dir_region": 2},
    ):
        config = SimConfig(
            machine=dataclasses.replace(
                SimConfig().machine, n_nodes=n, **kwargs
            )
        )
        machine = build_machine(config)
        counter = machine.alloc_sync(policy, home=0)

        def program(p):
            for turn in range(turns):
                yield p.barrier(turn, n)
                if p.pid < contention:
                    yield p.load(counter)
                    yield p.fetch_add(counter, 1)

        machine.spawn_all(program)
        machine.run()
        finals.append(machine.read_word(counter))
    assert finals[0] == turns * contention
    assert finals.count(finals[0]) == len(finals), finals
