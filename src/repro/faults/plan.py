"""Deterministic, seeded fault injection.

A :class:`FaultPlan` declares *how much* adversity a run should face; a
:class:`FaultInjector` turns the plan into per-site pseudo-random
decisions.  The design constraints, in order:

* **Zero overhead when absent.**  Every injection site is guarded by a
  single ``machine.faults is not None`` attribute check — the same
  pattern as :attr:`repro.obs.events.EventBus.active`.  A config without
  a plan (or with an all-zero plan) builds no injector at all, so the
  run is bit-identical to one that predates this module.
* **Deterministic, with streams per (site, node).**  Each (site, node)
  pair owns an independent ``random.Random`` stream seeded from the
  string ``"{seed}:{site}:{node}"`` (CPython seeds strings through
  SHA-512, so streams are identical across processes and
  ``PYTHONHASHSEED`` settings).  Draws happen at per-node points — a
  message's arbitration order at its destination port, a node's own
  send order, a home's delivery order — so one site's draws never
  shift another site's or another node's stream.
* **Legal faults only.**  The injected faults are ones the paper's
  protocol must already tolerate: bounded extra delivery delay at a
  network exit port (a congested link), duplicate delivery of the
  idempotent DROP notice, a transient busy-NAK at a home node (the
  module pretends to be occupied and retries the request), a spurious
  reservation kill (paper §2.1: real LL/SC loses reservations to
  context switches and TLB exceptions), and processor stall windows
  (an interrupt before a memory op issues).  None of them can lose,
  reorder same-source, or corrupt a message, so every verify checker
  must still pass under any intensity.

Injected faults are counted in the machine registry under ``faults.*``
(deterministic, so they are safe in results/metrics envelopes) and,
when someone is listening, emitted as ``fault.inject`` events.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, replace
from typing import Any, Optional

from ..errors import ConfigError
from ..obs.registry import MetricsRegistry

__all__ = ["FaultPlan", "FaultInjector", "DEFAULT_CHAOS_PLAN"]

#: Scaled rates are clamped below 1.0 so ``validate`` always passes and
#: a fault can never fire unconditionally (which could livelock a NAK
#: or stall site).
_MAX_RATE = 0.9375

_RATE_FIELDS = (
    "net_delay_rate",
    "net_dup_rate",
    "home_nak_rate",
    "res_kill_rate",
    "cpu_stall_rate",
)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative fault intensities; picklable and content-hashable.

    Attributes:
        seed: Seed of the per-(site, node) fault streams.  Independent
            of the machine seed so the same program schedule can face
            many fault schedules.
        net_delay_rate: Probability that a routed message is held extra
            cycles at its destination exit port.
        net_delay_max: Upper bound (inclusive) of the extra delay.
        net_dup_rate: Probability that a routed DROP notice is delivered
            twice (the duplicate is a fresh message one serialize slot
            behind the original, so it can never overtake a later
            request from the same source).
        home_nak_rate: Probability that a home node busy-NAKs an
            incoming request; the request is retried after
            ``home_nak_penalty`` cycles (each message is NAK'd at most
            once, so termination is preserved).
        home_nak_penalty: Retry delay of a busy-NAK, in cycles.
        res_kill_rate: Probability that a memory-side store_conditional
            finds every reservation on its block spuriously killed.
        cpu_stall_rate: Probability that a processor stalls before
            issuing a memory operation.
        cpu_stall_max: Upper bound (inclusive) of one stall, in cycles.
    """

    seed: int = 1
    net_delay_rate: float = 0.0
    net_delay_max: int = 16
    net_dup_rate: float = 0.0
    home_nak_rate: float = 0.0
    home_nak_penalty: int = 40
    res_kill_rate: float = 0.0
    cpu_stall_rate: float = 0.0
    cpu_stall_max: int = 64

    @property
    def active(self) -> bool:
        """True when any fault can actually fire.

        An inactive plan builds no injector: the run is *structurally*
        identical to a plain run, not merely statistically — the
        acceptance tests diff the two byte for byte.
        """
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on out-of-range parameters."""
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"fault rate {name!r} must be in [0, 1)")
        for name in ("net_delay_max", "home_nak_penalty", "cpu_stall_max"):
            if getattr(self, name) < 1:
                raise ConfigError(f"fault bound {name!r} must be >= 1")

    def scaled(self, intensity: float) -> "FaultPlan":
        """This plan with every rate multiplied by ``intensity``.

        Bounds and penalties are untouched; rates clamp below 1.0.
        ``scaled(0.0)`` is the canonical zero-fault plan (inactive).
        """
        if intensity < 0.0:
            raise ConfigError("fault intensity must be >= 0")
        return replace(self, **{
            name: min(getattr(self, name) * intensity, _MAX_RATE)
            for name in _RATE_FIELDS
        })

    def describe(self) -> dict[str, Any]:
        """A JSON-able view of the plan (for envelopes and reports)."""
        return dataclasses.asdict(self)


DEFAULT_CHAOS_PLAN = FaultPlan(
    net_delay_rate=0.08,
    net_dup_rate=0.05,
    home_nak_rate=0.08,
    res_kill_rate=0.05,
    cpu_stall_rate=0.03,
)
"""The ``repro chaos`` default at intensity 1.0: every site fires."""


class FaultInjector:
    """Per-site deterministic fault decisions for one machine.

    One injector serves one machine; streams are keyed by
    (site, node), so the draws at one site and node never depend on
    how often any other site or node has drawn.
    """

    def __init__(
        self,
        plan: FaultPlan,
        registry: Optional[MetricsRegistry] = None,
        events: Optional[Any] = None,
        sim: Optional[Any] = None,
    ) -> None:
        plan.validate()
        self.plan = plan
        self.events = events
        self.sim = sim
        reg = registry if registry is not None else MetricsRegistry()
        self._c_delay = reg.counter("faults.net.delay")
        self._c_delay_cycles = reg.counter("faults.net.delay_cycles")
        self._c_dup = reg.counter("faults.net.dup")
        self._c_nak = reg.counter("faults.home.nak")
        self._c_kill = reg.counter("faults.res.kill")
        self._c_stall = reg.counter("faults.cpu.stall")
        self._c_stall_cycles = reg.counter("faults.cpu.stall_cycles")
        self._streams: dict[tuple[str, int], random.Random] = {}
        # A duplicate's own (recursive) send must never re-duplicate;
        # the latch consumes no randomness, so streams stay aligned.
        self._dup_latch = False

    def _rng(self, site: str, node: int) -> random.Random:
        key = (site, node)
        rng = self._streams.get(key)
        if rng is None:
            rng = self._streams[key] = random.Random(
                f"{self.plan.seed}:{site}:{node}"
            )
        return rng

    def _emit(self, site: str, node: int, **data: Any) -> None:
        bus = self.events
        if bus is not None and bus.active:
            now = self.sim.now if self.sim is not None else 0
            bus.emit("fault.inject", now, node=node, site=site, **data)

    # -- decision points (one call per legal opportunity, drawn from
    # -- that (site, node)'s own stream) --------------------------------

    def net_delay(self, dst: int) -> int:
        """Extra exit-port hold at ``dst`` for the arriving message."""
        rng = self._rng("net.delay", dst)
        if rng.random() >= self.plan.net_delay_rate:
            return 0
        extra = rng.randrange(1, self.plan.net_delay_max + 1)
        self._c_delay.value += 1
        self._c_delay_cycles.value += extra
        self._emit("net.delay", dst, cycles=extra)
        return extra

    def net_dup(self, src: int) -> bool:
        """Should ``src``'s routed DROP notice be delivered twice?"""
        if self._dup_latch:
            self._dup_latch = False
            return False
        rng = self._rng("net.dup", src)
        if rng.random() >= self.plan.net_dup_rate:
            return False
        self._dup_latch = True
        self._c_dup.value += 1
        self._emit("net.dup", src)
        return True

    def home_nak(self, node: int) -> bool:
        """Should home ``node`` busy-NAK the request it just received?"""
        rng = self._rng("home.nak", node)
        if rng.random() >= self.plan.home_nak_rate:
            return False
        self._c_nak.value += 1
        self._emit("home.nak", node, penalty=self.plan.home_nak_penalty)
        return True

    def res_kill(self, node: int) -> bool:
        """Should the store_conditional at home ``node`` lose its
        reservations before the check?"""
        rng = self._rng("res.kill", node)
        if rng.random() >= self.plan.res_kill_rate:
            return False
        self._c_kill.value += 1
        self._emit("res.kill", node)
        return True

    def cpu_stall(self, pid: int) -> int:
        """Stall cycles before processor ``pid`` issues its memory op."""
        rng = self._rng("cpu.stall", pid)
        if rng.random() >= self.plan.cpu_stall_rate:
            return 0
        stall = rng.randrange(1, self.plan.cpu_stall_max + 1)
        self._c_stall.value += 1
        self._c_stall_cycles.value += stall
        self._emit("cpu.stall", pid, cycles=stall)
        return stall
