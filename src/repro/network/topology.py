"""2-D grid topologies: mesh and torus, with per-axis hop tables.

Nodes are numbered row-major on a ``width x height`` grid.  Under
dimension-ordered routing a hop count is one x-axis distance plus one
y-axis distance, so every topology holds just two small per-axis tables
(``width x width`` and ``height x height``) and per-node coordinate
lists: O(W^2 + H^2 + N) state at every machine size — 2,048 table
entries at 1024 nodes.  Mesh and torus differ only in the one-axis
metric; ``distance``, ``pair_distance`` and the mesh send path all
read the same tables.
"""

from __future__ import annotations

from ..config import MachineConfig, balanced_width
from ..errors import ConfigError

__all__ = ["Mesh2D", "Torus2D", "make_topology"]


class Mesh2D:
    """A (near-)square 2-D mesh with deterministic X-Y routing.

    Nodes are numbered row-major: node ``i`` sits at
    ``(i % width, i // width)``.  With dimension-ordered (X-Y) routing the
    path length between two nodes is their Manhattan distance, which is all
    the latency model needs — the paper models contention only at the entry
    and exit of the network, not at internal switches.

    The default width is the most factor-balanced divisor of ``n_nodes``
    (:func:`repro.config.balanced_width`), so default grids have no dead
    positions; an explicit ``width`` may still describe a partial mesh
    whose last row is incomplete.
    """

    kind = "mesh"

    def __init__(self, n_nodes: int, width: int | None = None) -> None:
        if n_nodes < 1:
            raise ConfigError("mesh needs at least one node")
        if width is None:
            width = balanced_width(n_nodes)
        if width < 1:
            raise ConfigError("mesh width must be positive")
        self.n_nodes = n_nodes
        self.width = width
        self.height = -(-n_nodes // width)
        # Per-node coordinates and per-axis hop tables:
        # hops(a, b) = _xd[_x[a]][_x[b]] + _yd[_y[a]][_y[b]].
        self._x = [node % width for node in range(n_nodes)]
        self._y = [node // width for node in range(n_nodes)]
        self._xd = self._axis_table(width)
        self._yd = self._axis_table(self.height)

    # -- distance arithmetic -------------------------------------------

    @staticmethod
    def _axis_distance(a: int, b: int, size: int) -> int:
        """Hops between coordinates ``a`` and ``b`` on one axis."""
        return abs(a - b)

    def _axis_table(self, size: int) -> list[list[int]]:
        dist = self._axis_distance
        return [[dist(a, b, size) for b in range(size)] for a in range(size)]

    def pair_distance(self, ax: int, ay: int, bx: int, by: int) -> int:
        """Hop count between two coordinate pairs."""
        return self._xd[ax][bx] + self._yd[ay][by]

    def coords(self, node: int) -> tuple[int, int]:
        """Return the ``(x, y)`` position of ``node``."""
        self._check(node)
        return self._x[node], self._y[node]

    def distance(self, a: int, b: int) -> int:
        """Routing hop count between nodes ``a`` and ``b`` (O(1))."""
        self._check(a)
        self._check(b)
        return self.pair_distance(
            self._x[a], self._y[a], self._x[b], self._y[b]
        )

    # -- routing -------------------------------------------------------

    def route(self, a: int, b: int) -> list[int]:
        """A dimension-ordered route from ``a`` to ``b``, inclusive.

        X-then-Y by default; when the machine does not fill its last mesh
        row (``n_nodes < width * height``) and the X-first path would
        pass through a position with no node, the Y-then-X route is used
        instead.  Both have minimal (Manhattan) length.
        """
        for x_first in (True, False):
            path = self._dimension_ordered(a, b, x_first)
            if all(node < self.n_nodes for node in path):
                return path
        raise ConfigError(
            f"no dimension-ordered route {a} -> {b} on this partial mesh"
        )

    def _steps(self, start: int, goal: int, size: int) -> list[int]:
        """Per-axis coordinate sequence from ``start`` to ``goal``
        (exclusive of ``start``), one unit per hop."""
        step = 1 if goal > start else -1
        return list(range(start + step, goal + step, step)) if goal != start else []

    def _dimension_ordered(self, a: int, b: int, x_first: bool) -> list[int]:
        ax, ay = self.coords(a)
        bx, by = self.coords(b)
        path = [a]
        x, y = ax, ay
        axes = ("x", "y") if x_first else ("y", "x")
        for axis in axes:
            if axis == "x":
                for x in self._steps(ax, bx, self.width):
                    path.append(y * self.width + x)
            else:
                for y in self._steps(ay, by, self.height):
                    path.append(y * self.width + x)
        return path

    def average_distance(self) -> float:
        """Mean hop count over all ordered pairs of distinct nodes."""
        if self.n_nodes == 1:
            return 0.0
        x, y = self._x, self._y
        pair = self.pair_distance
        total = 0
        for a in range(self.n_nodes):
            ax, ay = x[a], y[a]
            for b in range(a + 1, self.n_nodes):
                total += pair(ax, ay, x[b], y[b])
        return 2 * total / (self.n_nodes * (self.n_nodes - 1))

    def _check(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigError(
                f"node {node} outside {self.kind} of {self.n_nodes}"
            )


class Torus2D(Mesh2D):
    """A 2-D torus: the mesh grid plus wraparound links on both axes.

    Wraparound halves worst-case distances (a 32x32 torus has diameter
    32 instead of 62), which matters at 1024 nodes.  Requires a full
    rectangular grid — wrap links on a ragged last row are ill-defined.
    Routing stays dimension-ordered; each axis walks whichever direction
    is shorter, breaking ties toward increasing coordinates.
    """

    kind = "torus"

    def __init__(self, n_nodes: int, width: int | None = None) -> None:
        if width is None:
            width = balanced_width(n_nodes)
        if width >= 1 and n_nodes % width:
            raise ConfigError(
                f"torus needs a full grid: {n_nodes} nodes do not fill "
                f"width {width}"
            )
        super().__init__(n_nodes, width)

    @staticmethod
    def _axis_distance(a: int, b: int, size: int) -> int:
        d = abs(a - b)
        return min(d, size - d)

    def _steps(self, start: int, goal: int, size: int) -> list[int]:
        if start == goal:
            return []
        forward = (goal - start) % size
        backward = (start - goal) % size
        step = 1 if forward <= backward else -1
        hops = forward if step == 1 else backward
        return [(start + step * i) % size for i in range(1, hops + 1)]


def make_topology(machine: MachineConfig) -> Mesh2D:
    """Build the configured topology for one machine."""
    if machine.topology == "torus":
        return Torus2D(machine.n_nodes, machine.mesh_width)
    return Mesh2D(machine.n_nodes, machine.mesh_width)
