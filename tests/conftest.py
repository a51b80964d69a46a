"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import pytest

from repro import SimConfig, build_machine
from repro.config import MachineConfig


def make_machine(n_nodes: int = 4, **kwargs):
    """A small machine for protocol tests."""
    config = SimConfig(machine=MachineConfig(n_nodes=n_nodes), **kwargs)
    return build_machine(config)


def run_one(machine, pid: int, program_fn, *args):
    """Run one program on ``pid`` to completion; return its result."""
    box = {}

    def wrapper(p):
        box["result"] = yield from program_fn(p, *args)

    machine.spawn(pid, wrapper)
    machine.run()
    return box.get("result")


def run_seq(machine, steps):
    """Run ``(pid, program_fn, *args)`` steps one after another.

    Each step runs to completion before the next starts, which lets tests
    stage caches and directories into exact states.  Returns the list of
    program results.
    """
    results = []
    for pid, program_fn, *args in steps:
        results.append(run_one(machine, pid, program_fn, *args))
    return results


@pytest.fixture
def machine4():
    """A 4-node machine with default timing."""
    return make_machine(4)


@pytest.fixture
def machine16():
    """A 16-node machine with default timing."""
    return make_machine(16)
