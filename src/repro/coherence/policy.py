"""Coherence policies for atomically-accessed data.

Ordinary data always uses the base write-invalidate protocol.  Blocks
holding synchronization variables are registered with one of these
policies, which select both *where* atomic primitives execute and *how*
copies are kept coherent (paper §3):

* ``INV`` — computation in the cache controller, write-invalidate.
* ``INVD`` / ``INVS`` — INV variants for compare_and_swap in which the
  comparison happens at the home or owner; on failure the requester is
  denied a copy (INVd) or granted a read-only copy (INVs), so a failing
  CAS does not invalidate other caches' copies.
* ``UPD`` — computation at the memory, write-update.
* ``UNC`` — computation at the memory, caching disabled.
"""

from __future__ import annotations

import enum

__all__ = ["SyncPolicy"]


class SyncPolicy(enum.Enum):
    """Per-block policy for synchronization variables."""

    INV = "INV"
    INVD = "INVd"
    INVS = "INVs"
    UPD = "UPD"
    UNC = "UNC"

    __hash__ = object.__hash__  # identity; see MessageType

    @property
    def cached(self) -> bool:
        """True if the policy allows the block in caches at all."""
        return self is not SyncPolicy.UNC

    @property
    def invalidate_family(self) -> bool:
        """True for INV and its CAS variants."""
        return self in (SyncPolicy.INV, SyncPolicy.INVD, SyncPolicy.INVS)

    @property
    def memory_side(self) -> bool:
        """True when atomic computation happens at the memory module."""
        return self in (SyncPolicy.UPD, SyncPolicy.UNC)
