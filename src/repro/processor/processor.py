"""The in-order processor shell.

Each node has one processor, which executes exactly one program.  Programs
are generators yielding operation objects (see
:mod:`repro.primitives.ops`); the processor interprets them:

* memory operations and atomic primitives go to the node's cache
  controller and block the processor until the result returns;
* :class:`~repro.primitives.ops.Think` models local computation;
* :class:`~repro.primitives.ops.MagicBarrier` aligns processors through
  the constant-time barrier manager;
* the contend hooks feed the contention tracker in zero simulated time.

The processor also keeps the per-processor deterministic RNG used by
backoff code, seeded from the machine seed and the pid alone and built
on first use, so processors whose programs never draw pay nothing.
"""

from __future__ import annotations

import random
from typing import Any

from ..errors import ProgramError
from ..primitives.ops import (
    CompareAndSwap,
    ContendBegin,
    ContendEnd,
    DropCopy,
    FetchAndPhi,
    Load,
    LoadExclusive,
    LoadLinked,
    MagicBarrier,
    Store,
    StoreConditional,
    Think,
)
from ..sim.process import Process

__all__ = ["Processor"]


class Processor:
    """Drives one program against one cache controller."""

    def __init__(self, pid: int, machine: Any) -> None:
        self.pid = pid
        self.machine = machine
        self.sim = machine.sim
        self.controller = machine.nodes[pid].controller
        self._rng: random.Random | None = None
        self.faults = getattr(machine, "faults", None)
        self.process: Process | None = None
        self.ops_issued = 0
        self.finish_time: int | None = None

    @property
    def rng(self) -> random.Random:
        """This processor's deterministic RNG (built on first read)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(
                (self.machine.config.seed << 20) ^ self.pid)
        return rng

    def run_program(self, generator) -> Process:
        """Attach and start a program generator."""
        if self.process is not None and not self.process.done:
            raise ProgramError(f"processor {self.pid} is already running")
        self.process = Process(
            name=f"cpu{self.pid}",
            generator=generator,
            interpreter=self._interpret,
            on_exit=self._on_exit,
        )
        self.sim.schedule(0, self.process.start)
        return self.process

    @property
    def done(self) -> bool:
        """True once the attached program has returned."""
        return self.process is not None and self.process.done

    def _on_exit(self, process: Process) -> None:
        self.finish_time = self.sim.now
        self.machine.on_processor_exit(self)

    def _interpret(self, process: Process, op: Any) -> None:
        kind = type(op)
        if kind in _MEMORY_OPS:
            # Memory operations, most of what programs yield, go to the
            # controller from this frame.
            self.ops_issued += 1
            faults = self.faults
            if faults is not None:
                stall = faults.cpu_stall(self.pid)
                if stall:
                    # Injected stall window (an interrupt hits before the
                    # op issues): the operation is late, never lost, so
                    # program semantics are untouched.
                    self.sim.schedule(stall, self.controller.execute,
                                      op, process.resume)
                    return
            self.controller.execute(op, process.resume)
            return
        # Think and barrier, the next most common, are handled here too.
        if kind is Think:
            cycles = op.cycles
            if type(cycles) is not int or cycles < 0:
                raise ProgramError(
                    f"think() needs a non-negative int cycle count, "
                    f"got {cycles!r} on processor {self.pid}")
            self.sim.schedule(cycles, process.resume, None)
            return
        if kind is MagicBarrier:
            self.machine.barriers.arrive(op.barrier_id, op.participants,
                                         process)
            return
        handler = _HANDLERS.get(kind)
        if handler is None:
            raise ProgramError(f"program yielded a non-operation: {op!r}")
        handler(self, process, op)

    def _contend_begin(self, process: Process, op: ContendBegin) -> None:
        self.machine.stats.contention.begin(op.addr, self.pid)
        self.sim.schedule(0, process.resume, None)

    def _contend_end(self, process: Process, op: ContendEnd) -> None:
        self.machine.stats.contention.end(op.addr, self.pid)
        self.sim.schedule(0, process.resume, None)


# Operation types handed to the cache controller.
_MEMORY_OPS = frozenset(
    {Load, Store, LoadExclusive, DropCopy, FetchAndPhi, CompareAndSwap,
     LoadLinked, StoreConditional})

# The contend hooks -> interpretation.
_HANDLERS = {
    ContendBegin: Processor._contend_begin,
    ContendEnd: Processor._contend_end,
}
