"""The coherence hot path makes no hidden Python-level calls per event.

``Enum.__hash__``, the enum ``value`` getter and a dataclass
``__init__`` are all Python code, so a dict probe on an enum key, a
``.value`` read or a throwaway dataclass on the per-message path costs
one Python frame per event.  The same lock-free counter bars run at two
lengths under ``sys.setprofile``; the counts of those calls must not
grow with the length, i.e. they are spent once per run, not per event.
"""

import enum
import sys

from repro import SimConfig, SyncPolicy
from repro.apps.synthetic import SyntheticSpec, run_lockfree_counter
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
