"""Simulation configuration.

Three layers of configuration mirror the structure of the simulated
machine:

* :class:`TimingConfig` — latency constants of the memory system and the
  2-D wormhole mesh.  The defaults model an early-1990s DSM machine of the
  DASH class (the paper's back end): single-cycle cache hits, a 20-cycle
  queued memory, 2-cycle network hops, and 64-bit flits.
* :class:`MachineConfig` — structural parameters: number of nodes, block
  size, cache geometry.
* :class:`SimConfig` — the top-level bundle, plus cross-cutting knobs such
  as the in-memory LL/SC reservation strategy.

All values are plain integers so experiment sweeps can construct variants
with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .errors import ConfigError
from .faults.plan import FaultPlan

__all__ = [
    "TimingConfig",
    "MachineConfig",
    "SimConfig",
    "DEFAULT_CONFIG",
    "small_config",
    "scale_config",
    "balanced_width",
]


def balanced_width(n_nodes: int) -> int:
    """Largest divisor of ``n_nodes`` that is at most its square root.

    This is the most factor-balanced grid shape with ``width <= height``
    and no dead positions: 64 -> 8 (8x8), 1000 -> 25 (25x40), primes
    degenerate to a 1-wide chain.  Used as the default mesh/torus width.
    """
    if n_nodes < 1:
        return 1
    for width in range(math.isqrt(n_nodes), 0, -1):
        if n_nodes % width == 0:
            return width
    return 1


@dataclass(frozen=True)
class TimingConfig:
    """Latency constants, in processor cycles.

    Attributes:
        cache_hit: Latency of a load/store that hits in the local cache.
        controller_occupancy: Time the cache controller spends on each
            protocol action (installing a line, applying an update, ...).
        memory_service: Service time of one request at a memory module.
            Memory is *queued*: concurrent requests to the same module
            serialize, each paying this service time (plus waiting time).
        hop_cycles: Per-hop latency of the wormhole mesh.
        flit_cycles: Cycles per flit at the network entry and exit ports.
            Following the paper, contention is modeled at the entry and
            exit of the network only, not at internal switches.
        header_flits: Size of a request/control message, in flits.
        local_access: Latency for a cache-to-local-memory access that does
            not cross the network (the home node is the requesting node).
        directory_service: Service time for directory-only notices (a
            shared-copy drop) that touch no DRAM data.
    """

    cache_hit: int = 1
    controller_occupancy: int = 4
    memory_service: int = 20
    hop_cycles: int = 2
    flit_cycles: int = 1
    header_flits: int = 1
    local_access: int = 2
    directory_service: int = 6

    def validate(self) -> None:
        """Raise :class:`ConfigError` if any latency is non-positive."""
        for name in (
            "cache_hit",
            "controller_occupancy",
            "memory_service",
            "hop_cycles",
            "flit_cycles",
            "header_flits",
            "local_access",
            "directory_service",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"timing parameter {name!r} must be positive")


@dataclass(frozen=True)
class MachineConfig:
    """Structural parameters of the simulated multiprocessor.

    Attributes:
        n_nodes: Number of processing nodes.  Each node has one processor,
            one cache, one memory module (a slice of the distributed
            memory), and one mesh network interface.  Must be a positive
            integer; the mesh is laid out as close to square as possible.
        block_size: Cache block (line) size in bytes.  The paper uses 32.
        word_size: Word size in bytes.  Atomic primitives operate on words.
        cache_sets: Number of sets per cache.
        cache_assoc: Associativity of each cache.
        topology: Interconnect shape: ``"mesh"`` (the paper's 2-D
            wormhole mesh) or ``"torus"`` (same grid with wraparound
            links, halving worst-case distances on large machines).
        directory: Sharer-set representation kept per directory entry:
            ``"full"`` (exact bit vector, the paper's machine),
            ``"limited"`` (Dir_i_B: up to ``dir_pointers`` precise
            pointers, broadcast on overflow), or ``"coarse"`` (one
            presence bit per ``dir_region`` nodes).  Protocol decisions
            and final values are identical across representations; the
            imprecise ones send more invalidations/updates (see
            ``docs/scaling.md``).
        dir_pointers: Pointer capacity for ``directory="limited"``.
        dir_region: Region size (nodes per bit) for ``directory="coarse"``.
    """

    n_nodes: int = 64
    block_size: int = 32
    word_size: int = 4
    cache_sets: int = 256
    cache_assoc: int = 4
    topology: str = "mesh"
    directory: str = "full"
    dir_pointers: int = 8
    dir_region: int = 8

    _TOPOLOGIES = ("mesh", "torus")
    _DIRECTORIES = ("full", "limited", "coarse")

    def validate(self) -> None:
        """Raise :class:`ConfigError` on structural inconsistencies."""
        if self.n_nodes < 1:
            raise ConfigError("n_nodes must be >= 1")
        if self.topology not in self._TOPOLOGIES:
            raise ConfigError(
                f"topology must be one of {self._TOPOLOGIES}, "
                f"got {self.topology!r}"
            )
        if self.directory not in self._DIRECTORIES:
            raise ConfigError(
                f"directory must be one of {self._DIRECTORIES}, "
                f"got {self.directory!r}"
            )
        if self.dir_pointers < 1:
            raise ConfigError("dir_pointers must be >= 1")
        if self.dir_region < 1:
            raise ConfigError("dir_region must be >= 1")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ConfigError("block_size must be a positive power of two")
        if self.word_size <= 0 or self.word_size & (self.word_size - 1):
            raise ConfigError("word_size must be a positive power of two")
        if self.block_size % self.word_size:
            raise ConfigError("block_size must be a multiple of word_size")
        if self.cache_sets <= 0 or self.cache_assoc <= 0:
            raise ConfigError("cache geometry must be positive")

    @property
    def words_per_block(self) -> int:
        """Number of words in one cache block."""
        return self.block_size // self.word_size

    @property
    def block_bits(self) -> int:
        """log2(block_size); the block offset width of an address."""
        return self.block_size.bit_length() - 1

    @property
    def mesh_width(self) -> int:
        """Width of the most factor-balanced 2-D grid (no dead spots)."""
        return balanced_width(self.n_nodes)

    @property
    def mesh_height(self) -> int:
        """Height of the 2-D grid (``ceil(n_nodes / width)``)."""
        return -(-self.n_nodes // self.mesh_width)

    @property
    def directory_label(self) -> str:
        """Compact representation tag for envelopes: ``full``,
        ``limited:<pointers>``, or ``coarse:<region>``."""
        if self.directory == "limited":
            return f"limited:{self.dir_pointers}"
        if self.directory == "coarse":
            return f"coarse:{self.dir_region}"
        return self.directory

    @property
    def envelope_params(self) -> dict[str, Any]:
        """Envelope ``params`` naming this machine's shape.

        One compact key per concern, so determinism diffs can strip
        either with a single ``--ignore params.topology`` /
        ``params.directory``.
        """
        return {"nodes": self.n_nodes, "topology": self.topology,
                "directory": self.directory_label}

    def data_flits(self, timing: TimingConfig) -> int:
        """Size of a data-carrying message, in flits.

        A data message carries a header plus one cache block.  Flits are
        sized to one word of the mesh datapath (8 bytes).
        """
        flit_bytes = 8
        return timing.header_flits + -(-self.block_size // flit_bytes)


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration.

    Attributes:
        machine: Structural parameters.
        timing: Latency constants.
        reservation_strategy: How in-memory LL/SC reservations are kept:
            ``"bitvector"`` (one bit per processor per block),
            ``"limited"`` (at most ``reservation_limit`` concurrent
            reservations; later load_linked's are told they will fail),
            ``"serial"`` (per-block write serial numbers; store_conditional
            carries the expected serial number — the paper's preferred
            option, Section 3.1), or ``"linkedlist"`` (per-block reserver
            lists drawn from a bounded free list, the paper's second
            option).
        reservation_limit: Capacity for the ``"limited"`` strategy.
        spurious_sc_rate: Probability that a store_conditional finds its
            reservation spuriously invalidated (paper §2.1: real
            processors lose reservations to context switches and TLB
            exceptions, e.g. the R4000's LLbit).  0.0 (default) models
            the idealized semantics; raise it for fault-injection tests
            of retry loops.  Deterministic given the seed.
        seed: Seed for the deterministic per-processor RNGs used by
            backoff code in simulated programs.
        faults: Optional :class:`repro.faults.plan.FaultPlan`.  ``None``
            (default) or an all-zero plan builds no injector at all, so
            the run is bit-identical to a fault-free machine; an active
            plan perturbs delivery delay, DROP duplication, home
            occupancy, reservations, and processor issue timing —
            deterministically, from the plan's own seed.
    """

    machine: MachineConfig = field(default_factory=MachineConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    reservation_strategy: str = "bitvector"
    reservation_limit: int = 4
    spurious_sc_rate: float = 0.0
    seed: int = 12345
    faults: Optional[FaultPlan] = None

    _STRATEGIES = ("bitvector", "limited", "serial", "linkedlist")

    def validate(self) -> None:
        """Validate all sub-configurations; raise :class:`ConfigError`."""
        self.machine.validate()
        self.timing.validate()
        if self.reservation_strategy not in self._STRATEGIES:
            raise ConfigError(
                f"reservation_strategy must be one of {self._STRATEGIES}, "
                f"got {self.reservation_strategy!r}"
            )
        if self.reservation_limit < 1:
            raise ConfigError("reservation_limit must be >= 1")
        if not 0.0 <= self.spurious_sc_rate < 1.0:
            raise ConfigError("spurious_sc_rate must be in [0, 1)")
        if self.faults is not None:
            self.faults.validate()

    def with_nodes(self, n_nodes: int) -> "SimConfig":
        """Return a copy of this config with a different node count."""
        return replace(self, machine=replace(self.machine, n_nodes=n_nodes))


DEFAULT_CONFIG = SimConfig()
"""The paper's machine: 64 nodes, 32-byte blocks, queued memory, 2-D mesh."""


def small_config(n_nodes: int = 4, seed: int = 12345) -> SimConfig:
    """A small machine for unit tests: identical timing, fewer nodes."""
    return SimConfig(machine=MachineConfig(n_nodes=n_nodes), seed=seed)


def scale_config(
    n_nodes: int = 1024,
    topology: str = "mesh",
    directory: str = "limited",
    dir_pointers: int = 8,
    dir_region: int = 32,
) -> SimConfig:
    """A first-class large machine (16x16, 32x32, ...) for scaling runs.

    Defaults to the sparse directory a real 1024-node machine would use
    (Dir_8_B limited pointers); pass ``directory="full"`` to keep the
    paper's exact bit vector, or ``"coarse"`` for region bits (the
    default ``dir_region=32`` marks one 32x32-torus/mesh row per bit).
    Timing constants stay the paper's so results compare across sizes.
    """
    return SimConfig(
        machine=MachineConfig(
            n_nodes=n_nodes,
            topology=topology,
            directory=directory,
            dir_pointers=dir_pointers,
            dir_region=dir_region,
        )
    )
