"""Table 1: serialized network messages for stores, by policy and state.

The paper's Table 1:

====================================  =====
store target                          msgs
====================================  =====
UNC                                   2
INV to cached exclusive               0
INV to remote exclusive               4
INV to remote shared                  3
INV to uncached                       2
UPD to cached                         3
UPD to uncached                       2
====================================  =====

These are protocol properties, so our reproduction asserts them *exactly*.
Each row is measured by staging the directory/caches into the named state
with a preparatory access from another node, then issuing the store from
the requesting node and reading the serialized-chain counter of its
transaction.

Rows are independent (each stages its own fresh machine), so
:func:`run_table1` runs them through the parallel sweep executor — one
:class:`~repro.harness.parallel.SweepPoint` per row — and ``jobs``/
``cache`` spread and memoize them.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..coherence.policy import SyncPolicy
from ..config import SimConfig, small_config
from ..errors import ConfigError
from ..machine.machine import Machine, build_machine
from ..obs.events import EventBus
from .parallel import ResultCache, make_point, run_sweep

__all__ = ["TABLE1_CONFIG", "TABLE1_EXPECTED", "run_table1", "run_table1_row"]

TABLE1_EXPECTED: dict[str, int] = {
    "UNC": 2,
    "INV to cached exclusive": 0,
    "INV to remote exclusive": 4,
    "INV to remote shared": 3,
    "INV to uncached": 2,
    "UPD to cached": 3,
    "UPD to uncached": 2,
}

#: The machine a row runs on unless given another: 4 nodes of the
#: paper's mesh with a full-map directory (a row touches nodes 0-2).
TABLE1_CONFIG = small_config(n_nodes=4)

_REQUESTER = 0
_OTHER = 2
_HOME = 1

# Preparatory accesses that stage each row's directory/cache state
# before the measured store, as (op, pid, value) triples:
#
# * UNC / "to uncached": no staging — the line is in memory only.
# * "INV to cached exclusive": the requester's own first store takes the
#   line exclusive, so the measured second store hits the owned line.
# * "INV to remote exclusive": another node owns the line; ownership is
#   transferred through the home (4 serialized messages).
# * "INV to remote shared": another node holds a read-only copy; the
#   home invalidates it and the sharer acks the requester (3 serialized).
# * "UPD to cached": another node holds a copy; the memory applies the
#   store and the sharer acknowledges the update to the requester.
_TABLE1_ROWS: dict[str, tuple[SyncPolicy, tuple[tuple[str, int, int], ...], int]] = {
    "UNC": (SyncPolicy.UNC, (), 1),
    "INV to cached exclusive": (SyncPolicy.INV, (("store", _REQUESTER, 1),), 2),
    "INV to remote exclusive": (SyncPolicy.INV, (("store", _OTHER, 1),), 2),
    "INV to remote shared": (SyncPolicy.INV, (("load", _OTHER, 0),), 2),
    "INV to uncached": (SyncPolicy.INV, (), 1),
    "UPD to cached": (SyncPolicy.UPD, (("load", _OTHER, 0),), 2),
    "UPD to uncached": (SyncPolicy.UPD, (), 1),
}


def _machine(config: SimConfig | None) -> Machine:
    return build_machine(config or TABLE1_CONFIG)


def _store_once(machine: Machine, pid: int, addr: int, value: int) -> None:
    """Run a single store by ``pid`` to completion."""

    def program(p, addr=addr, value=value):
        yield p.store(addr, value)

    machine.spawn(pid, program)
    machine.run()


def _load_once(machine: Machine, pid: int, addr: int) -> None:
    def program(p, addr=addr):
        yield p.load(addr)

    machine.spawn(pid, program)
    machine.run()


def _measured_chain(machine: Machine, pid: int) -> int:
    return machine.nodes[pid].controller.last_chain


def run_table1_row(
    row: str,
    config: SimConfig | None = None,
    observe: Optional[Callable[[Machine], None]] = None,
) -> int:
    """Measure one Table 1 row on a fresh machine; return its chain length.

    ``observe``, if given, is called with the freshly built machine before
    any program runs — attach :mod:`repro.obs` recorders there.
    """
    try:
        policy, preps, value = _TABLE1_ROWS[row]
    except KeyError:
        known = ", ".join(_TABLE1_ROWS)
        raise ConfigError(f"unknown Table 1 row {row!r}; rows: {known}") from None
    machine = _machine(config)
    if observe is not None:
        observe(machine)
    addr = machine.alloc_sync(policy, home=_HOME)
    for op, pid, prep_value in preps:
        if op == "store":
            _store_once(machine, pid, addr, prep_value)
        else:
            _load_once(machine, pid, addr)
    _store_once(machine, _REQUESTER, addr, value)
    return _measured_chain(machine, _REQUESTER)


def run_table1(
    config: SimConfig | None = None,
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: Optional[EventBus] = None,
) -> dict[str, int]:
    """Measure every Table 1 row; return {row label: serialized messages}."""
    effective = config or TABLE1_CONFIG
    points = [
        make_point(run_table1_row, config=effective,
                   label=f"table1: {row}", row=row)
        for row in TABLE1_EXPECTED
    ]
    outcomes = run_sweep(points, jobs=jobs, cache=cache, events=events)
    return {
        row: outcome.result
        for row, outcome in zip(TABLE1_EXPECTED, outcomes)
    }
