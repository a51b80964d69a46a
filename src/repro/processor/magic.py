"""Constant-time ("magic") barriers.

The paper's synthetic applications use barriers provided by MINT that take
constant time and generate no memory traffic, so they shape the sharing
pattern without perturbing the measurements.  This manager blocks each
arriving process and releases all of them at the moment the last one
arrives.
"""

from __future__ import annotations

from ..errors import ProgramError
from ..sim.engine import Simulator
from ..sim.process import Process

__all__ = ["BarrierManager"]


class BarrierManager:
    """Tracks arrivals at magic barriers and releases full episodes."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._waiting: dict[int, list[Process]] = {}
        self.episodes = 0

    def arrive(self, barrier_id: int, participants: int, process: Process) -> None:
        """Block ``process`` until ``participants`` processes have arrived."""
        if participants < 1:
            raise ProgramError(
                f"barrier needs at least one participant: {process.name} "
                f"arrived at barrier {barrier_id} with {participants}")
        # Probe first: a ``setdefault`` default is built on every call.
        waiting = self._waiting.get(barrier_id)
        if waiting is None:
            waiting = self._waiting[barrier_id] = []
        waiting.append(process)
        if len(waiting) > participants:
            raise ProgramError(
                f"barrier {barrier_id} overflow: {len(waiting)} arrivals "
                f"for {participants} participants"
            )
        if len(waiting) == participants:
            del self._waiting[barrier_id]
            self.episodes += 1
            for proc in waiting:
                self.sim.schedule(0, proc.resume, None)

    def idle(self) -> bool:
        """True when no process is blocked at any barrier."""
        return not self._waiting
