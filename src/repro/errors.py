"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A simulation configuration is inconsistent or out of range."""


class SimulationError(ReproError):
    """The simulator reached an impossible or deadlocked state."""


class ProtocolError(SimulationError):
    """A coherence-protocol invariant was violated.

    Raised when a controller or directory receives a message that is not
    legal in its current state.  These indicate bugs in the protocol
    implementation rather than in user programs.
    """


class AddressError(ReproError):
    """An address is unmapped, misaligned, or outside the allocated space."""


class DeadlockError(SimulationError):
    """The event queue drained while processors were still blocked."""


class ProgramError(ReproError):
    """A simulated program performed an illegal operation.

    Examples: nesting ``load_linked`` pairs, issuing a ``store_conditional``
    for an address with an incompatible sync policy, or yielding an object
    that is not an operation.
    """
