"""Pluggable sharer-set representations for directory entries.

The paper's machine keeps a full bit vector per directory entry — one
presence bit per node — which is exact but costs O(N) per block.  Real
large-scale directories economize with *limited-pointer* schemes (track
up to ``i`` sharer pointers, fall back to broadcast on overflow —
Dir_i_B) or *coarse-vector* schemes (one bit per region of ``r`` nodes),
trading extra invalidation/update traffic for constant-ish state.

Every representation here keeps an **exact** membership bit mask (a
Python int — compact and O(1)-ish for the small sharer counts the
workloads produce).  Protocol *decisions* — state transitions, SC
membership checks, collapse-to-UNCACHED — always consult the exact mask,
so all representations make identical decisions and produce identical
final values.  What differs is :meth:`SharerSet.targets`: the fan-out an
imprecise directory must use for invalidations and updates.  A
limited-pointer set past its capacity broadcasts to every node; a
coarse-vector set multicasts to every node of every marked region.  The
protocol tolerates the extra messages (caches ack invalidations and
updates for blocks they do not hold), and the ablation harness measures
exactly that overhead.

Multicast order is ascending node id for every representation, which is
also the simulated send order — so a full-bit-vector run is reproducible
independent of Python's set iteration order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..errors import ConfigError

__all__ = [
    "SharerSet",
    "LimitedPointerSet",
    "CoarseVectorSet",
    "make_sharer_factory",
    "REPRESENTATIONS",
]


class SharerSet:
    """Exact full-bit-vector sharer set (the paper's directory).

    Membership lives in ``mask``, an int bit vector indexed by node id.
    Subclasses layer an imprecise hardware representation on top and
    override :meth:`targets` (and the bookkeeping hooks ``_note_add`` /
    ``_note_replace`` / ``_note_clear``); the exact mask itself is shared
    machinery so protocol decisions never diverge between
    representations.
    """

    __slots__ = ("mask",)

    kind = "full"

    def __init__(self, n_nodes: int = 0) -> None:
        self.mask = 0

    # -- exact membership (drives protocol decisions) -----------------

    def add(self, node: int) -> None:
        """Record ``node`` as a sharer."""
        self.mask |= 1 << node
        self._note_add(node)

    def discard(self, node: int) -> None:
        """Forget ``node`` (no effect if absent)."""
        self.mask &= ~(1 << node)

    def clear(self) -> None:
        """Forget every sharer and reset representation state."""
        self.mask = 0
        self._note_clear()

    def replace(self, nodes: Iterable[int]) -> None:
        """Reset to exactly ``nodes``."""
        mask = 0
        for node in nodes:
            mask |= 1 << node
        self.mask = mask
        self._note_replace()

    def __contains__(self, node: object) -> bool:
        if not isinstance(node, int):
            return False
        return bool(self.mask >> node & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[int]:
        """Exact members, ascending node id."""
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SharerSet):
            return self.mask == other.mask
        if isinstance(other, (set, frozenset)):
            return set(self) == other
        return NotImplemented

    def __hash__(self):  # pragma: no cover - entries are never dict keys
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({set(self)!r})"

    # -- representation-dependent fan-out ------------------------------

    @property
    def overflowed(self) -> bool:
        """True when the representation lost per-node precision."""
        return False

    def targets(self, exclude: int) -> list[int]:
        """Nodes an invalidation/update must visit, ascending, without
        ``exclude``.  Always a superset of the exact sharers."""
        mask = self.mask & ~(1 << exclude)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def exact_targets(self, exclude: int) -> int:
        """How many *true* sharers an exact directory would visit."""
        return (self.mask & ~(1 << exclude)).bit_count()

    # -- hooks for imprecise subclasses --------------------------------

    def _note_add(self, node: int) -> None:
        pass

    def _note_replace(self) -> None:
        pass

    def _note_clear(self) -> None:
        pass


class LimitedPointerSet(SharerSet):
    """Limited-pointer directory with broadcast on overflow (Dir_i_B).

    Tracks sharers precisely while there are at most ``pointers`` of
    them.  The (``pointers`` + 1)-th concurrent sharer overflows the
    pointer array: the entry degrades to a single broadcast bit, and
    every subsequent invalidation/update goes to *all* nodes.  The
    overflow is sticky — dropping copies cannot restore precision, the
    hardware no longer knows who holds them — until the entry resets
    (exclusive transfer, writeback, or collapse to UNCACHED), exactly
    when Dir_i_B regains precision.
    """

    __slots__ = ("n_nodes", "pointers", "_overflow")

    kind = "limited"

    def __init__(self, n_nodes: int, pointers: int = 8) -> None:
        if n_nodes < 1:
            raise ConfigError("limited-pointer set needs n_nodes >= 1")
        if pointers < 1:
            raise ConfigError("limited-pointer set needs pointers >= 1")
        super().__init__(n_nodes)
        self.n_nodes = n_nodes
        self.pointers = pointers
        self._overflow = False

    @property
    def overflowed(self) -> bool:
        return self._overflow

    def targets(self, exclude: int) -> list[int]:
        if not self._overflow:
            return super().targets(exclude)
        return [n for n in range(self.n_nodes) if n != exclude]

    def _note_add(self, node: int) -> None:
        if not self._overflow and self.mask.bit_count() > self.pointers:
            self._overflow = True

    def _note_replace(self) -> None:
        self._overflow = self.mask.bit_count() > self.pointers

    def _note_clear(self) -> None:
        self._overflow = False


class CoarseVectorSet(SharerSet):
    """Coarse-vector directory: one presence bit per ``region`` nodes.

    The hardware keeps region bits only, so any sharer anywhere in a
    region marks the whole region, and invalidations/updates visit every
    node of every marked region.  Region bits are sticky within an
    entry's sharing epoch — dropping one copy cannot clear a region bit,
    another node of the region might still hold one — and reset when the
    entry resets, like the limited-pointer scheme.  ``region=1``
    degenerates to the exact full bit vector: a one-node region holds
    only the dropping node, so its bit clears with the copy.
    """

    __slots__ = ("n_nodes", "region", "_regions")

    kind = "coarse"

    def __init__(self, n_nodes: int, region: int = 8) -> None:
        if n_nodes < 1:
            raise ConfigError("coarse-vector set needs n_nodes >= 1")
        if region < 1:
            raise ConfigError("coarse-vector set needs region >= 1")
        super().__init__(n_nodes)
        self.n_nodes = n_nodes
        self.region = region
        self._regions = 0

    @property
    def overflowed(self) -> bool:
        """True when some marked region holds a non-sharer."""
        return self._region_mask() != self.mask

    def discard(self, node: int) -> None:
        self.mask &= ~(1 << node)
        if self.region == 1:
            self._regions &= ~(1 << node)

    def targets(self, exclude: int) -> list[int]:
        mask = self._region_mask() & ~(1 << exclude)
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def _region_mask(self) -> int:
        """Node mask covered by the marked regions (clipped to n_nodes)."""
        mask = 0
        regions = self._regions
        span = (1 << self.region) - 1
        while regions:
            low = regions & -regions
            index = low.bit_length() - 1
            mask |= span << (index * self.region)
            regions ^= low
        return mask & ((1 << self.n_nodes) - 1)

    def _note_add(self, node: int) -> None:
        self._regions |= 1 << (node // self.region)

    def _note_replace(self) -> None:
        regions = 0
        mask = self.mask
        while mask:
            low = mask & -mask
            regions |= 1 << ((low.bit_length() - 1) // self.region)
            mask ^= low
        self._regions = regions

    def _note_clear(self) -> None:
        self._regions = 0


REPRESENTATIONS = ("full", "limited", "coarse")
"""Valid ``MachineConfig.directory`` values."""


def make_sharer_factory(
    representation: str = "full",
    n_nodes: int = 0,
    pointers: int = 8,
    region: int = 8,
):
    """Return a zero-argument factory building one sharer set per entry."""
    if representation == "full":
        return SharerSet
    if representation == "limited":
        return lambda: LimitedPointerSet(n_nodes, pointers)
    if representation == "coarse":
        return lambda: CoarseVectorSet(n_nodes, region)
    raise ConfigError(
        f"directory representation must be one of {REPRESENTATIONS}, "
        f"got {representation!r}"
    )
