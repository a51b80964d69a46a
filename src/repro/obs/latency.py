"""``TxnBreakdown``, a per-transaction cycle cursor no simulator code uses.

The per-transaction latency breakdown is the critical path of the
transaction's span graph (:mod:`repro.obs.spans`, aggregated per
primitive × policy by :mod:`repro.obs.critpath`), built on
instrumented runs only.
"""

from __future__ import annotations

__all__ = ["TxnBreakdown"]


class TxnBreakdown:
    """Cycles of one transaction credited to ``network``, ``queue``,
    ``memory`` and ``controller``, with ``cursor`` the last cycle
    accounted for.

    No simulator code builds or calls this.  It is kept only because the
    benchmark's layer tracer (``BOUNDARIES`` in
    ``benchmarks/e2e/tracer.py``) imports it and looks ``credit`` up by
    name, through ``cls.__dict__``, and would fail without it.
    """

    __slots__ = ("start", "cursor", "network", "queue", "memory",
                 "controller")

    def __init__(self, start: int) -> None:
        self.start = self.cursor = start
        self.network = self.queue = self.memory = self.controller = 0

    def credit(self, category: str, end: int) -> None:
        """Attribute cycles up to ``end`` to ``category``.

        Only the span beyond the cursor is credited, so a call whose
        interval is already covered adds nothing, and an idle gap folds
        into the next credit.
        """
        cursor = self.cursor
        if end > cursor:
            setattr(self, category, getattr(self, category) + end - cursor)
            self.cursor = end
