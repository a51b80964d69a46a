"""Unit tests for the 2-D mesh topology."""

import gc
import tracemalloc

import pytest

from repro.coherence.policy import SyncPolicy
from repro.config import scale_config
from repro.errors import ConfigError
from repro.machine.machine import build_machine
from repro.network.topology import Mesh2D


def test_coords_row_major():
    mesh = Mesh2D(16, width=4)
    assert mesh.coords(0) == (0, 0)
    assert mesh.coords(3) == (3, 0)
    assert mesh.coords(4) == (0, 1)
    assert mesh.coords(15) == (3, 3)


def test_distance_is_manhattan():
    mesh = Mesh2D(16, width=4)
    assert mesh.distance(0, 0) == 0
    assert mesh.distance(0, 3) == 3
    assert mesh.distance(0, 15) == 6
    assert mesh.distance(5, 10) == 2


def test_distance_symmetric():
    mesh = Mesh2D(64, width=8)
    for a, b in [(0, 63), (7, 56), (12, 34)]:
        assert mesh.distance(a, b) == mesh.distance(b, a)


def test_route_endpoints_and_length():
    mesh = Mesh2D(16, width=4)
    route = mesh.route(0, 15)
    assert route[0] == 0
    assert route[-1] == 15
    assert len(route) == mesh.distance(0, 15) + 1


def test_route_steps_are_neighbors():
    mesh = Mesh2D(64, width=8)
    route = mesh.route(3, 60)
    for a, b in zip(route, route[1:]):
        assert mesh.distance(a, b) == 1


def test_triangle_inequality():
    mesh = Mesh2D(64, width=8)
    for a, b, c in [(0, 9, 63), (5, 40, 22)]:
        assert mesh.distance(a, c) <= mesh.distance(a, b) + mesh.distance(b, c)


def test_default_width_is_near_square():
    mesh = Mesh2D(64)
    assert mesh.width == 8
    assert mesh.height == 8


def test_non_square_machine():
    mesh = Mesh2D(6, width=3)
    assert mesh.height == 2
    assert mesh.coords(5) == (2, 1)


def test_single_node():
    mesh = Mesh2D(1)
    assert mesh.distance(0, 0) == 0
    assert mesh.average_distance() == 0.0


def test_average_distance_64():
    mesh = Mesh2D(64, width=8)
    # Mean Manhattan distance on an 8x8 grid is 2*(64-1)/... known ~5.33.
    assert 5.0 < mesh.average_distance() < 5.7


def test_out_of_range_node_rejected():
    mesh = Mesh2D(4, width=2)
    with pytest.raises(ConfigError):
        mesh.coords(4)
    with pytest.raises(ConfigError):
        mesh.distance(0, -1)


def test_zero_nodes_rejected():
    with pytest.raises(ConfigError):
        Mesh2D(0)


# ---------------------------------------------------------------------------
# Scale: balanced default widths, per-axis hop tables, torus wraparound.
# ---------------------------------------------------------------------------

def test_default_width_is_factor_balanced():
    from repro.config import balanced_width

    assert Mesh2D(1000).width == 25      # 25x40, no dead positions
    assert Mesh2D(1000).height == 40
    assert Mesh2D(12).width == 3
    assert Mesh2D(7).width == 1          # primes degrade to a chain
    assert balanced_width(1024) == 32
    assert balanced_width(256) == 16


def _arithmetic_distance(topology, a, b):
    """Hop count from coordinates alone: (wraparound) Manhattan."""
    (ax, ay), (bx, by) = topology.coords(a), topology.coords(b)
    dx, dy = abs(ax - bx), abs(ay - by)
    if topology.kind == "torus":
        dx, dy = min(dx, topology.width - dx), min(dy, topology.height - dy)
    return dx + dy


@pytest.mark.parametrize("kind, n_nodes, width, sources", [
    ("mesh", 64, None, None),
    ("torus", 64, None, None),
    ("mesh", 1000, 31, None),      # partial grid: 23 dead positions
    ("torus", 1024, None, range(0, 1024, 32)),
])
def test_hop_tables_match_coordinate_arithmetic(kind, n_nodes, width, sources):
    from repro.network.topology import Torus2D

    topology = (Torus2D if kind == "torus" else Mesh2D)(n_nodes, width)
    x, y, xd, yd = topology._x, topology._y, topology._xd, topology._yd
    for a in range(n_nodes) if sources is None else sources:
        for b in range(n_nodes):
            hops = xd[x[a]][x[b]] + yd[y[a]][y[b]]  # what the mesh sends on
            assert hops == topology.distance(a, b)
            assert hops == _arithmetic_distance(topology, a, b)


#: Most KiB that building the 1024-node torus and running both storms of
#: the test below may allocate (5,368 KiB measured on Python 3.11.7).
#: A loose ceiling: it catches O(N^2) topology or directory state, and
#: a full bit-vector directory would not fit a 4096-node machine in it.
STORMS_1024_BUDGET_KIB = 32 * 1024


def test_topology_state_is_per_axis_after_1024_node_storm():
    # A 32x32 torus with the limited-pointer (Dir_8_B) directory a real
    # 1024-node machine would use.  Phase one: every processor hits one
    # uncached fetch_and_add counter.  Phase two: 16 readers overflow an
    # INV block's 8 pointers, so the writer's fetch_and_add broadcasts
    # invalidations to all 1023 other nodes.  tracemalloc starts from a
    # collected heap with the collector off, so the peak covers the
    # build and repeats run to run.
    config = scale_config(1024, topology="torus")
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        m = build_machine(config)
        unc = m.alloc_sync(SyncPolicy.UNC, home=0)

        def bump(p):
            yield p.fetch_add(unc, 1)

        m.spawn_all(bump)
        unc_end = m.run()
        inv = m.alloc_sync(SyncPolicy.INV, home=1)

        def reader(p):
            yield p.load(inv)

        def writer(p):
            yield p.fetch_add(inv, 1)

        for pid in range(2, 18):
            m.spawn(pid, reader)
        m.run()
        m.spawn(0, writer)
        end = m.run()
        peak_kib = tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak_kib <= STORMS_1024_BUDGET_KIB, (
        f"peaked at {peak_kib:,.0f} KiB, over the "
        f"{STORMS_1024_BUDGET_KIB:,} KiB budget")
    assert (m.read_word(unc), m.read_word(inv)) == (1024, 1)
    assert (unc_end, end) == (20_499, 22_950)
    assert (m.sim.events_processed, m.mesh.stats.messages) == (7_251, 4_125)
    snapshot = m.registry.snapshot()
    for suffix, total in ((".spurious_targets", 1_007),
                          (".imprecise_fanouts", 1)):
        assert sum(value for key, value in snapshot.items()
                   if key.endswith(suffix)) == total, suffix
    topology = m.mesh.topology
    width, height = topology.width, topology.height
    tables = {name: value for name, value in vars(topology).items()
              if isinstance(value, list) and value
              and isinstance(value[0], list)}
    # Only the two per-axis tables are nested; no per-source rows.
    assert set(tables) == {"_xd", "_yd"}
    assert (sum(len(row) for table in tables.values() for row in table)
            == width * width + height * height == 2048)


def test_large_machine_construction_is_cheap():
    import time

    t0 = time.perf_counter()
    Mesh2D(4096)
    assert time.perf_counter() - t0 < 0.5  # the old table took seconds


def test_partial_mesh_routing_at_scale():
    # 31x33 partial grid: 23 dead positions in the last row.
    mesh = Mesh2D(1000, width=31)
    for a, b in [(0, 999), (999, 0), (980, 30), (992, 968)]:
        route = mesh.route(a, b)
        assert route[0] == a and route[-1] == b
        assert all(n < 1000 for n in route)
        assert len(route) == mesh.distance(a, b) + 1


def test_torus_distance_wraps():
    from repro.network.topology import Torus2D

    torus = Torus2D(64)
    assert torus.width == torus.height == 8
    assert torus.distance(0, 7) == 1      # x wrap
    assert torus.distance(0, 56) == 1     # y wrap
    assert torus.distance(0, 63) == 2     # both axes wrap
    assert torus.distance(0, 36) == 8     # (4,4): no shortcut
    mesh = Mesh2D(64)
    for a, b in [(0, 63), (5, 58), (16, 47)]:
        assert torus.distance(a, b) <= mesh.distance(a, b)


def test_torus_route_uses_wraparound():
    from repro.network.topology import Torus2D

    torus = Torus2D(64)
    assert torus.route(0, 7) == [0, 7]
    assert torus.route(0, 56) == [0, 56]
    route = torus.route(0, 63)
    assert len(route) == 3
    for a, b in zip(route, route[1:]):
        assert torus.distance(a, b) == 1


def test_torus_route_tie_breaks_forward():
    from repro.network.topology import Torus2D

    torus = Torus2D(16)  # 4x4: opposite nodes are 2 hops either way
    route = torus.route(0, 2)
    assert route == [0, 1, 2]  # forward, not backward through the wrap


def test_torus_rejects_partial_grid():
    from repro.network.topology import Torus2D

    with pytest.raises(ConfigError):
        Torus2D(10, width=3)


def test_torus_metric_axioms():
    from repro.network.topology import Torus2D

    torus = Torus2D(36)
    for a in (0, 7, 35):
        assert torus.distance(a, a) == 0
        for b in (1, 17, 30):
            assert torus.distance(a, b) == torus.distance(b, a)
            for c in (3, 22):
                assert (torus.distance(a, c)
                        <= torus.distance(a, b) + torus.distance(b, c))


def test_make_topology_factory():
    from repro.config import MachineConfig
    from repro.network.topology import Torus2D, make_topology

    mesh = make_topology(MachineConfig(n_nodes=64))
    assert type(mesh) is Mesh2D and mesh.width == 8
    torus = make_topology(MachineConfig(n_nodes=256, topology="torus"))
    assert isinstance(torus, Torus2D) and torus.width == 16
