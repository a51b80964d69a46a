"""Generic parameter sweeps with CSV export.

A thin layer over the figure drivers for users who want the raw data
rather than the paper's exact panels: cross-product sweeps of primitive
variants × sharing-pattern specs over any of the counter applications,
exported as CSV for external plotting.

.. code-block:: python

    rows = sweep_counter(
        run_lockfree_counter,
        SimConfig().with_nodes(16),
        variants=figure_variants(),
        specs=[SyntheticSpec(contention=c) for c in (1, 2, 4)],
        jobs=4,
    )
    write_csv("lockfree.csv", rows)

The cross-product runs through :mod:`repro.harness.parallel`: ``jobs``
spreads points across worker processes and ``cache`` memoizes them,
without changing the resulting rows.
"""

from __future__ import annotations

import csv
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ..apps.common import AppResult
from ..apps.synthetic import SyntheticSpec
from ..config import SimConfig
from ..obs.events import EventBus
from ..sync.variant import PrimitiveVariant
from .parallel import ResultCache, make_point, run_sweep

__all__ = ["SweepRow", "sweep_counter", "write_csv", "rows_as_dicts"]


@dataclass(frozen=True)
class SweepRow:
    """One (variant, spec) measurement."""

    variant: str
    family: str
    policy: str
    use_lx: bool
    use_drop: bool
    contention: int
    write_run: float
    turns: int
    updates: int
    cycles: int
    avg_cycles: float
    measured_write_run: float

    @classmethod
    def from_result(
        cls, variant: PrimitiveVariant, spec: SyntheticSpec, result: AppResult
    ) -> "SweepRow":
        """Flatten one application result."""
        return cls(
            variant=variant.label,
            family=variant.family,
            policy=variant.policy.value,
            use_lx=variant.use_lx,
            use_drop=variant.use_drop,
            contention=spec.contention,
            write_run=spec.write_run,
            turns=spec.turns,
            updates=result.updates,
            cycles=result.cycles,
            avg_cycles=result.avg_cycles,
            measured_write_run=result.write_run,
        )


def sweep_counter(
    runner: Callable[[PrimitiveVariant, SyntheticSpec, SimConfig], AppResult],
    config: SimConfig,
    variants: Sequence[PrimitiveVariant],
    specs: Sequence[SyntheticSpec],
    jobs: int = 1,
    cache: ResultCache | None = None,
    events: Optional[EventBus] = None,
) -> list[SweepRow]:
    """Run ``runner`` over the full variants × specs cross-product."""
    points = [
        make_point(runner, variant=variant, spec=spec, config=config)
        for spec in specs
        for variant in variants
    ]
    outcomes = iter(run_sweep(points, jobs=jobs, cache=cache, events=events))
    rows = []
    for spec in specs:
        for variant in variants:
            rows.append(
                SweepRow.from_result(variant, spec, next(outcomes).result)
            )
    return rows


def rows_as_dicts(rows: Iterable[SweepRow]) -> list[dict]:
    """Rows as plain dictionaries (stable column order)."""
    from dataclasses import asdict

    return [asdict(row) for row in rows]


def write_csv(path: str | pathlib.Path, rows: Sequence[SweepRow]) -> None:
    """Write sweep rows to ``path`` as CSV with a header.

    Parent directories are created as needed (like
    :func:`repro.obs.schema.dump_run`).
    """
    if not rows:
        raise ValueError("no rows to write")
    dicts = rows_as_dicts(rows)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(dicts[0]))
        writer.writeheader()
        writer.writerows(dicts)
