"""Unit tests for the wormhole mesh latency and contention model."""

import pytest

from repro.config import SimConfig, MachineConfig
from repro.errors import SimulationError
from repro.network.mesh import WormholeMesh
from repro.network.message import Message, MessageType, Unit
from repro.sim.engine import Simulator


def build(n_nodes=4):
    sim = Simulator()
    config = SimConfig(machine=MachineConfig(n_nodes=n_nodes))
    mesh = WormholeMesh(sim, config)
    return sim, config, mesh


def msg(src, dst, mtype=MessageType.GETS, unit=Unit.HOME, block=0):
    return Message(mtype=mtype, src=src, dst=dst, unit=unit, block=block)


def test_unregistered_handler_raises():
    sim, config, mesh = build()
    with pytest.raises(SimulationError):
        mesh.send(msg(0, 1))


def test_negative_node_ids_rejected():
    # A negative id must not index from the end of the port and handler
    # vectors (dst=-1 would reach node 3, src=-1 node 3's entry port).
    sim, config, mesh = build()
    delivered = []
    for node in range(4):
        mesh.register(node, Unit.HOME, delivered.append)
    with pytest.raises(SimulationError, match="node -1"):
        mesh.send(msg(0, -1))
    with pytest.raises(SimulationError, match="source -1"):
        mesh.send(msg(-1, 1))
    with pytest.raises(SimulationError, match="source 4"):
        mesh.send(msg(4, 1))
    sim.run()
    assert delivered == []
    assert mesh._entry_free == [0] * 4


def test_local_message_pays_bus_latency():
    sim, config, mesh = build()
    arrivals = []
    mesh.register(0, Unit.HOME, lambda m: arrivals.append(sim.now))
    mesh.send(msg(0, 0))
    sim.run()
    assert arrivals == [config.timing.local_access]
    assert mesh.stats.local_messages == 1
    assert mesh.stats.messages == 0


def test_remote_latency_scales_with_distance():
    sim, config, mesh = build(n_nodes=4)  # 2x2 mesh
    t_near = []
    t_far = []
    mesh.register(1, Unit.HOME, lambda m: t_near.append(sim.now))
    mesh.register(3, Unit.HOME, lambda m: t_far.append(sim.now))
    mesh.send(msg(0, 1))
    sim.run()
    mesh2 = WormholeMesh(sim, config)
    mesh2.register(3, Unit.HOME, lambda m: t_far.append(sim.now))
    start = sim.now
    mesh2.send(msg(0, 3))
    sim.run()
    near_latency = t_near[0]
    far_latency = t_far[0] - start
    assert far_latency > near_latency


def test_data_messages_are_larger():
    sim, config, mesh = build()
    m_ctrl = msg(0, 1, MessageType.GETS)
    m_data = msg(0, 1, MessageType.DATA_S)
    assert mesh.message_flits(m_data) > mesh.message_flits(m_ctrl)
    # 32-byte block in 8-byte flits plus a header flit.
    assert mesh.message_flits(m_data) == 5


def test_entry_port_serializes_messages():
    sim, config, mesh = build()
    arrivals = []
    mesh.register(1, Unit.HOME, lambda m: arrivals.append(sim.now))
    mesh.register(2, Unit.HOME, lambda m: arrivals.append(sim.now))
    # Two messages injected the same cycle from node 0 serialize at entry.
    mesh.send(msg(0, 1, MessageType.DATA_S))
    mesh.send(msg(0, 2, MessageType.DATA_S))
    sim.run()
    assert len(arrivals) == 2
    assert arrivals[1] > arrivals[0]


def test_exit_port_serializes_messages():
    sim, config, mesh = build()
    arrivals = []
    mesh.register(3, Unit.HOME, lambda m: arrivals.append(sim.now))
    # Equidistant sources converging on one destination queue at its exit.
    mesh.send(msg(1, 3, MessageType.DATA_S))
    mesh.send(msg(2, 3, MessageType.DATA_S))
    sim.run()
    assert len(arrivals) == 2
    assert arrivals[1] >= arrivals[0] + mesh.message_flits(
        msg(0, 0, MessageType.DATA_S)
    ) * config.timing.flit_cycles


def test_same_src_dst_pair_preserves_order():
    sim, config, mesh = build()
    arrivals = []
    mesh.register(1, Unit.HOME, lambda m: arrivals.append(m.payload["tag"]))
    big = msg(0, 1, MessageType.DATA_S)
    big.payload["tag"] = "data"
    small = msg(0, 1, MessageType.GETS)
    small.payload["tag"] = "ctrl"
    mesh.send(big)
    mesh.send(small)
    sim.run()
    assert arrivals == ["data", "ctrl"]


def test_stats_accumulate():
    sim, config, mesh = build()
    mesh.register(1, Unit.HOME, lambda m: None)
    for _ in range(3):
        mesh.send(msg(0, 1))
    sim.run()
    assert mesh.stats.messages == 3
    assert mesh.stats.flits == 3 * config.timing.header_flits
    assert mesh.stats.mean_latency > 0
    assert mesh.stats.by_type["GETS"] == 3


def test_units_are_independent_handlers():
    sim, config, mesh = build()
    seen = []
    mesh.register(1, Unit.HOME, lambda m: seen.append("home"))
    mesh.register(1, Unit.CACHE, lambda m: seen.append("cache"))
    mesh.send(msg(0, 1, unit=Unit.HOME))
    mesh.send(msg(0, 1, MessageType.INV, unit=Unit.CACHE))
    sim.run()
    assert sorted(seen) == ["cache", "home"]


def test_all_to_all_blasts_queue_at_the_ports():
    # 48 rounds, three cycles apart: node src sends one GETX to node
    # src + r + 1 (mod 16), so rounds overlap and back up at the ports.
    # Every 16th round sends each node's message to itself.
    sim, config, mesh = build(n_nodes=16)
    delivered = []
    for node in range(16):
        mesh.register(node, Unit.HOME, delivered.append)

    def blast(r):
        for src in range(16):
            mesh.send(msg(src, (src + r + 1) % 16, MessageType.GETX,
                          block=src))

    for r in range(48):
        sim.schedule(r * 3, blast, r)
    sim.run()
    assert (sim.now, sim.events_processed) == (151, 816)
    assert (mesh.stats.messages, mesh.stats.local_messages) == (720, 48)
    assert mesh.stats.flits == 720
    assert len(delivered) == 768
