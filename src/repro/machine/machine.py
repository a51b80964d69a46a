"""The assembled multiprocessor.

:func:`build_machine` wires up, per node: a processor shell, a cache
controller, a memory module, a directory, and a home-node protocol engine,
all connected by one wormhole mesh.  The resulting :class:`Machine` is the
top-level object experiments use:

.. code-block:: python

    machine = build_machine(SimConfig())
    counter = machine.alloc_sync(SyncPolicy.INV, home=0)

    def program(p, counter):
        for _ in range(10):
            yield p.fetch_add(counter, 1)

    machine.spawn_all(program, counter)
    machine.run()
    assert machine.read_word(counter) == 10 * machine.n_nodes
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..coherence.controller import CacheController
from ..coherence.home import HomeNode
from ..coherence.policy import SyncPolicy
from ..config import SimConfig
from ..errors import AddressError, DeadlockError, ProgramError
from ..faults.plan import FaultInjector
from ..memory.directory import Directory, DirState
from ..memory.module import MemoryModule
from ..memory.reservations import make_reservation_table
from ..memory.sharers import make_sharer_factory
from ..network.mesh import WormholeMesh
from ..obs.events import EventBus
from ..obs.registry import MetricsRegistry
from ..processor.api import Proc
from ..processor.magic import BarrierManager
from ..processor.processor import Processor
from ..sim.engine import Simulator
from ..stats.collect import MachineStats
from .address import AddressSpace

__all__ = ["Node", "Machine", "build_machine"]


@dataclass
class Node:
    """One processing node: processor + cache + memory slice + home."""

    index: int
    processor: Processor
    controller: CacheController
    memory: MemoryModule
    home: HomeNode


class Machine:
    """A directory-based cache-coherent DSM multiprocessor."""

    def __init__(self, config: SimConfig) -> None:
        config.validate()
        self.config = config
        # Observability spine: one metrics registry and one event bus,
        # shared by every component (see docs/observability.md).
        self.registry = MetricsRegistry()
        self.events = EventBus()
        self.sim = Simulator(registry=self.registry)
        # Fault-injection plane (docs/robustness.md).  Only an *active*
        # plan builds an injector; otherwise every site keeps its
        # ``faults is None`` fast path and the machine is structurally
        # identical to a fault-free one.
        if config.faults is not None and config.faults.active:
            self.faults: Optional[FaultInjector] = FaultInjector(
                config.faults, registry=self.registry, events=self.events,
                sim=self.sim,
            )
        else:
            self.faults = None
        self.mesh = WormholeMesh(
            self.sim, config, registry=self.registry, events=self.events
        )
        self.mesh.faults = self.faults
        self.address = AddressSpace(config.machine)
        self.stats = MachineStats()
        self.barriers = BarrierManager(self.sim)
        self._policies: dict[int, SyncPolicy] = {}
        self._running_programs = 0

        n = config.machine.n_nodes
        # One sharer-set factory serves every node's directory.
        make_sharers = make_sharer_factory(
            config.machine.directory, n, config.machine.dir_pointers,
            config.machine.dir_region)
        self.nodes: list[Node] = [None] * n  # type: ignore[list-item]
        for i in range(n):
            memory = MemoryModule(self.sim, i, config, registry=self.registry,
                                  events=self.events)
            directory = Directory(i, make_sharers)
            reservations = make_reservation_table(
                config.reservation_strategy, n, config.reservation_limit
            )
            reservations.faults = self.faults
            reservations.fault_node = i
            controller = CacheController(i, self.mesh, config, self)
            home = HomeNode(i, self.mesh, memory, directory, reservations, self)
            # Processor needs nodes[i].controller; create after assigning.
            self.nodes[i] = Node(i, None, controller, memory, home)  # type: ignore[arg-type]
        for i in range(n):
            self.nodes[i].processor = Processor(i, self)

    # ------------------------------------------------------------------
    # Address/policy services used by the protocol engines.
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Number of processing nodes."""
        return self.config.machine.n_nodes

    def block_of(self, addr: int) -> int:
        """Block number containing ``addr``."""
        return self.address.block_of(addr)

    def offset_of(self, addr: int) -> int:
        """Word offset of ``addr`` within its block."""
        return self.address.offset_of(addr)

    def home_of(self, block: int) -> int:
        """Home node of ``block``."""
        return self.address.home_of(block)

    def policy_of(self, block: int) -> SyncPolicy:
        """Sync policy of ``block`` (ordinary data is INV)."""
        return self._policies.get(block, SyncPolicy.INV)

    # ------------------------------------------------------------------
    # Allocation.
    # ------------------------------------------------------------------

    def alloc_sync(self, policy: SyncPolicy, home: int | None = None) -> int:
        """Allocate a synchronization variable under ``policy``.

        The variable gets a private cache block homed at ``home`` and is
        registered for write-run tracking.  Returns the word address.
        """
        addr = self.address.alloc_block(home)
        block = self.block_of(addr)
        self._policies[block] = policy
        self.stats.writerun.register(addr)
        return addr

    def alloc_data(self, n_words: int) -> int:
        """Allocate ordinary (base-policy) shared data."""
        return self.address.alloc_array(n_words)

    def alloc_node_block(self, home: int) -> int:
        """Allocate one ordinary (base-policy) block homed at ``home``.

        Used for per-processor records that should live in local memory
        and must not false-share with anything else (MCS queue nodes,
        tree-barrier flags, ...).  Returns the block's base word address.
        """
        return self.address.alloc_block(home)

    # ------------------------------------------------------------------
    # Direct memory access (for initialization and result checking).
    # ------------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        """Read the coherent value of a word (directory-aware).

        Follows the directory: if some cache holds the block exclusive,
        the value is read from that cache, otherwise from memory.  Only
        valid between :meth:`run` calls (no transactions in flight).
        """
        block = self.block_of(addr)
        offset = self.offset_of(addr)
        home = self.nodes[self.home_of(block)]
        entry = home.home.directory.entry(block)
        if entry.state is DirState.EXCLUSIVE and entry.owner is not None:
            line = self.nodes[entry.owner].controller.cache.lookup(
                block, touch=False
            )
            if line is not None:
                return line.read_word(offset)
        return home.memory.read_word(block, offset)

    def write_word(self, addr: int, value: int) -> None:
        """Initialize a word in memory (before any caching)."""
        block = self.block_of(addr)
        home = self.nodes[self.home_of(block)]
        entry = home.home.directory.entry(block)
        if entry.state is not DirState.UNCACHED:
            raise AddressError(
                f"write_word({addr:#x}) after block became cached; "
                "initialize before running programs"
            )
        home.memory.write_word(block, self.offset_of(addr), value)

    # ------------------------------------------------------------------
    # Program management.
    # ------------------------------------------------------------------

    def proc_handle(self, pid: int) -> Proc:
        """The program-facing API object for processor ``pid``."""
        n = self.n_nodes
        if not 0 <= pid < n:
            raise ProgramError(f"processor {pid} outside machine of {n} nodes")
        return Proc(pid, n, self.nodes[pid].processor)

    def spawn(self, pid: int, program_fn: Callable[..., Any], *args: Any) -> None:
        """Start ``program_fn(proc, *args)`` on processor ``pid``.

        ``program_fn`` must be a generator function.  A refused spawn
        leaves the machine as it was: the program counts as running only
        once its processor has taken it.
        """
        proc = self.proc_handle(pid)  # rejects a pid outside the machine
        program = program_fn(proc, *args)
        if not isinstance(program, Generator):
            name = getattr(program_fn, "__qualname__", repr(program_fn))
            raise ProgramError(
                f"processor {pid}: {name} is not a generator function "
                f"(it returned {program!r})")
        self.nodes[pid].processor.run_program(program)
        self._running_programs += 1

    def spawn_all(
        self,
        program_fn: Callable[..., Any],
        *args: Any,
        pids: Optional[Iterable[int]] = None,
    ) -> None:
        """Start the same program on every processor (or on ``pids``)."""
        for pid in pids if pids is not None else range(self.n_nodes):
            self.spawn(pid, program_fn, *args)

    def on_processor_exit(self, processor: Processor) -> None:
        """Callback from the processor shell when its program returns."""
        self._running_programs -= 1

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def run(self, until: int | None = None,
            max_events: int | None = None) -> int:
        """Run until all programs finish (or ``until``); return end time."""
        end = self.sim.run(until=until, max_events=max_events)
        if until is None and self._running_programs > 0:
            blocked = [
                node.processor.process.name
                for node in self.nodes
                if node.processor.process is not None
                and not node.processor.process.done
            ]
            raise DeadlockError(
                f"event queue drained with {self._running_programs} "
                f"program(s) blocked: {blocked[:8]}"
            )
        self.stats.writerun.finalize()
        return end

    @property
    def now(self) -> int:
        """Current simulation time, in cycles."""
        return self.sim.now


def build_machine(config: SimConfig | None = None) -> Machine:
    """Construct a fully wired machine from ``config`` (or the default)."""
    return Machine(config or SimConfig())
