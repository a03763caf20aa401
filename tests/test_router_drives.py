"""Drive-on-change contract of the Hermes router and network interface.

Every link wire has one driver, which drives it only when its value
changes.  These tests count ``CheckedWire.drive`` calls (the link wires
are all width-checked) to pin that down, and check that the width check
still fires on every drive that does happen.
"""

import pytest

from repro.analysis import hops
from repro.noc import HermesNetwork, Port
from repro.sim.wire import CheckedWire

#: upper bound on link-wire drives per flit per link crossed: ``data``
#: at most once and ``ack`` up and down once each per flit, plus ``tx``
#: rising and falling once per packet, which is at most one more per
#: flit since every packet has a header and a size flit
MAX_DRIVES_PER_FLIT_LINK = 4


@pytest.fixture
def drives(monkeypatch):
    """Counts link-wire drives by wire name while the test runs."""
    counts = {}
    original = CheckedWire.drive

    def counting_drive(wire, value):
        counts[wire.name] = counts.get(wire.name, 0) + 1
        original(wire, value)

    monkeypatch.setattr(CheckedWire, "drive", counting_drive)
    return counts


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "quiescent"])
def test_drained_mesh_drives_nothing(drives, strict):
    net = HermesNetwork(3, 3)
    sim = net.make_simulator(strict_lockstep=strict)
    net.send((0, 0), (2, 2), [1, 2, 3])
    net.send((2, 1), (0, 1), [4])
    net.run_to_drain(sim, max_cycles=10_000)
    assert len(net.collect_received()) == 2
    assert drives, "the traffic itself must have driven the links"
    drives.clear()
    sim.step(200)
    assert drives == {}


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "quiescent"])
@pytest.mark.parametrize(
    "src,dst,payload",
    [
        ((0, 0), (2, 2), []),
        ((0, 0), (2, 2), [7] * 12),
        ((2, 0), (0, 2), list(range(1, 9))),
        ((1, 1), (1, 1), [0xAA, 0x55]),
    ],
)
def test_one_packet_drives_per_flit_link(drives, strict, src, dst, payload):
    net = HermesNetwork(3, 3)
    sim = net.make_simulator(strict_lockstep=strict)
    net.send(src, dst, payload)
    net.run_to_drain(sim, max_cycles=10_000)
    assert len(net.collect_received()) == 1
    flits = len(payload) + 2
    # hops() counts the routers on the path, endpoints included; the
    # injection and ejection links make one link more than routers
    links = hops(src, dst) + 1
    acks = sum(n for name, n in drives.items() if name.endswith(".ack"))
    assert acks == 2 * flits * links
    assert sum(drives.values()) <= MAX_DRIVES_PER_FLIT_LINK * flits * links


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "quiescent"])
def test_out_of_range_flit_fails_the_link_width_check(strict):
    """A router FIFO restored with a flit wider than the 8-bit link
    raises the wire's ValueError on the drive that presents it."""
    net = HermesNetwork(2, 1)
    sim = net.make_simulator(strict_lockstep=strict)
    router = net.mesh.router((0, 0))
    state = router.snapshot_state()
    state["fifos"][Port.LOCAL] = [[0x1FF], 1]
    state["in_conn"][Port.LOCAL] = int(Port.EAST)
    state["out_owner"][Port.EAST] = int(Port.LOCAL)
    router.restore_state(state)
    with pytest.raises(ValueError, match=r"'link00>10\.data'.*8 bits"):
        sim.step(1)
