"""Golden oracle for the Hermes router and network interface.

Each case runs seeded random traffic over one fabric and buffer depth
under one kernel mode, and compares what the run left behind with a
fixture recorded from the router and NI as they stood before the
drive-on-change rewrite:

- the final cycle,
- the sha256 of the VCD of every link wire (tx, data, ack),
- the sha256 of the telemetry event stream,
- the sha256 of the ``NetworkStats`` snapshot, with its readable totals
  (stall cycles, blocked routings, flits, latencies) kept next to it so
  a mismatch says what moved.

Every case also checks packet conservation (each packet delivered
exactly once, intact, to its target) and per-flow order (packets of
one source-target flow arrive in injection order).  The generated
property at the end runs the same checks on random fabrics and
requires the strict lock-step and quiescent kernels to agree byte for
byte, without a fixture.

Re-record the fixture only for an intended change of router timing::

    PYTHONPATH=src python -m tests.test_router_golden --record
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import HermesNetwork
from repro.sim import Component, VcdWriter
from repro.telemetry import TelemetrySink

from .hypothesis_budget import scaled

FIXTURE = Path(__file__).parent / "data" / "router_golden.json"

TOPOLOGIES = ("mesh:3x3", "torus:3x3", "cmesh:2x2x2", "mesh:4x2")
DEPTHS = (1, 2, 4)
MODES = ("strict", "quiescent")

#: seeded traffic per case: packets offered inside the window, a third
#: of them to one hotspot node so routings block and buffers stall
PACKETS = 70
WINDOW = 300
MAX_PAYLOAD = 8
HOTSPOT_SHARE = 0.3


class ScheduledInjector(Component):
    """Queues pre-drawn packets at their NIs on their cycles."""

    def __init__(self, net, schedule):
        super().__init__("injector")
        self.net = net
        self.schedule = schedule
        self._next = 0

    def eval(self, cycle):
        while (
            self._next < len(self.schedule)
            and self.schedule[self._next][0] <= cycle
        ):
            _, src, dst, payload = self.schedule[self._next]
            self.net.send(src, dst, payload)
            self._next += 1

    def is_quiescent(self):
        if self._next < len(self.schedule):
            self.wake_at(self.schedule[self._next][0])
        return True

    @property
    def done(self):
        return self._next >= len(self.schedule)


def draw_schedule(nodes, seed, packets=PACKETS, window=WINDOW):
    """Seeded (cycle, src, dst, payload) list, in injection order.

    The first payload flit is the packet's index, so deliveries can be
    matched back to their injection one to one.
    """
    rng = random.Random(seed)
    hot = rng.choice(nodes)
    drawn = []
    for k in range(packets):
        src = rng.choice(nodes)
        dst = hot if rng.random() < HOTSPOT_SHARE else rng.choice(nodes)
        body = [rng.randrange(256) for _ in range(rng.randrange(MAX_PAYLOAD))]
        drawn.append((rng.randrange(window), src, dst, [k] + body))
    return sorted(drawn, key=lambda item: (item[0], item[3][0]))


def link_wires(net):
    """Every handshake wire of the fabric, in construction order."""
    return [w for comp in net.iter_components() for w in comp._wires]


def sha256_json(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(topology, depth, mode, seed, packets=PACKETS, window=WINDOW):
    """Run one case; returns (record, schedule, per-node deliveries)."""
    sink = TelemetrySink()
    net = HermesNetwork(topology=topology, buffer_depth=depth, telemetry=sink)
    schedule = draw_schedule(list(net.interfaces), seed, packets, window)
    injector = ScheduledInjector(net, schedule)
    net.add_child(injector)
    sim = net.make_simulator(strict_lockstep=(mode == "strict"))
    vcd = VcdWriter(link_wires(net))
    sim.add_watcher(vcd.sample)
    sim.run_until(
        lambda: injector.done and net.drained,
        max_cycles=200_000,
        label="golden traffic drain",
    )
    delivered = {
        addr: [(p.payload, p.delivered_cycle) for p in ni.received]
        for addr, ni in net.interfaces.items()
    }
    stats = net.stats.snapshot()
    events = [
        [e.ph, e.name, e.track, e.ts, e.dur, e.args] for e in sink.events
    ]
    record = {
        "cycle": sim.cycle,
        "vcd_sha256": hashlib.sha256(vcd.dump().encode()).hexdigest(),
        "events": len(events),
        "events_sha256": sha256_json(events),
        "stats_sha256": sha256_json(stats),
        "stall_cycles": sum(v for _, v in stats["stall_cycles"]),
        "blocked_routings": sum(v for _, v in stats["blocked_routings"]),
        "flits_sent": sum(v for _, v in stats["flits_sent"]),
        "packets_delivered": stats["packets_delivered"],
        "latency_sum": sum(stats["latencies"]),
    }
    return record, schedule, delivered


def check_delivery(schedule, delivered):
    """Conservation and per-flow order of one run's deliveries."""
    sent = {payload[0]: (src, dst, payload) for _, src, dst, payload in schedule}
    # schedule order is each source NI's injection order
    position = {payload[0]: i for i, (_, _, _, payload) in enumerate(schedule)}
    seen = set()
    for dst, packets in delivered.items():
        last_of_flow = {}
        for payload, _ in packets:
            k = payload[0]
            assert k not in seen, f"packet {k} delivered twice"
            seen.add(k)
            src, target, sent_payload = sent[k]
            assert target == dst, f"packet {k} for {target} reached {dst}"
            assert payload == sent_payload, f"packet {k} corrupted"
            prev = last_of_flow.get(src)
            assert prev is None or position[prev] < position[k], (
                f"flow {src}>{dst}: packet {k} overtook packet {prev}"
            )
            last_of_flow[src] = k
    missing = sorted(set(sent) - seen)
    assert not missing, f"packets never delivered: {missing}"


def case_ids():
    return [
        (topology, depth, mode)
        for topology in TOPOLOGIES
        for depth in DEPTHS
        for mode in MODES
    ]


def case_key(topology, depth, mode):
    return f"{topology}/depth{depth}/{mode}"


def case_seed(topology, depth):
    return TOPOLOGIES.index(topology) * 10 + depth


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize(
    "topology,depth,mode", case_ids(), ids=[case_key(*c) for c in case_ids()]
)
def test_matches_golden(golden, topology, depth, mode):
    record, schedule, delivered = run_case(
        topology, depth, mode, case_seed(topology, depth)
    )
    check_delivery(schedule, delivered)
    assert record == golden["cases"][case_key(topology, depth, mode)]


def test_fixture_exercises_contention(golden):
    """The recorded traffic must stall buffers and block routings in
    every fabric, or the oracle would not cover the contended paths."""
    for topology in TOPOLOGIES:
        cases = [
            golden["cases"][case_key(topology, d, "strict")] for d in DEPTHS
        ]
        assert all(c["packets_delivered"] == PACKETS for c in cases)
        assert all(c["blocked_routings"] > 0 for c in cases), topology
        assert cases[0]["stall_cycles"] > 0, topology


@settings(max_examples=scaled(10), deadline=None)
@given(
    topology=st.sampled_from(TOPOLOGIES + ("mesh:1x3", "torus:2x2")),
    depth=st.sampled_from(DEPTHS),
    seed=st.integers(0, 2**16),
    packets=st.integers(1, 40),
    window=st.sampled_from([1, 50, 200]),
)
def test_generated_traffic_strict_matches_quiescent(
    topology, depth, seed, packets, window
):
    strict, schedule, delivered = run_case(
        topology, depth, "strict", seed, packets, window
    )
    check_delivery(schedule, delivered)
    quiescent, _, delivered_q = run_case(
        topology, depth, "quiescent", seed, packets, window
    )
    assert quiescent == strict
    assert delivered_q == delivered


def record_fixture() -> None:
    cases = {}
    for topology, depth, mode in case_ids():
        record, schedule, delivered = run_case(
            topology, depth, mode, case_seed(topology, depth)
        )
        check_delivery(schedule, delivered)
        cases[case_key(topology, depth, mode)] = record
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({"schema": "router-golden/1", "cases": cases}, indent=1)
        + "\n"
    )
    print(f"recorded {len(cases)} cases -> {FIXTURE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_router_golden --record")
    record_fixture()
