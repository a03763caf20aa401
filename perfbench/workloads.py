"""The three MultiNoC benchmark workloads.

Each workload is a ``setup(seed)`` that builds a ready-to-run instance
(timing its build, assemble and deploy steps) and a ``run(instance)``
that executes the measured phase and checks every output it produced.
The seed drives every generated input; the program under test only
ever sees those inputs.

- ``edge-2x2``: the paper's Figure 10 on its 2x2 prototype.  Closed
  loop: the host keeps one line outstanding per processor.
- ``sea-16x16``: the "sea of processors" series reduction, 60 workers
  on a 16x16 mesh, loaded one by one over the serial link.
- ``noc-saturated``: a bare 4x4 Hermes mesh under open-loop uniform
  traffic offered above saturation, run until it drains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from repro.apps import EdgeDetectionApp, reference_sobel
from repro.apps.edge_detection import worker_program
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform
from repro.core.program import Program
from repro.noc.network import HermesNetwork

#: edge-2x2 image size: width 48 is the line buffer's maximum.
EDGE_WIDTH = 48
EDGE_HEIGHT = 10

#: sea-16x16 shape: 60 workers summing 50 numbers each.
SEA_TOPOLOGY = "mesh:16x16"
SEA_WORKERS = 60
SEA_CHUNK = 50
SEA_RESULT_ADDR = 0x80
#: the seed shifts the summed series by up to this much.
SEA_MAX_OFFSET = 20_000

#: noc-saturated traffic: each node injects 30 packets of 8-flit
#: payloads (10 flits on the wire) inside a 600-cycle window, i.e. rate
#: 0.05 or ~0.5 flits/node/cycle, well above what a 4x4 XY mesh accepts
#: under uniform traffic; the mesh then runs until it drains.  Each node
#: sends the same number of packets to every other node (uniform in
#: aggregate, seeded order and injection cycles), and a run is several
#: independent trials: the drain of a saturated mesh is set by its
#: slowest queue, so fewer, larger trials spread much wider over seeds.
NOC_MESH = (4, 4)
NOC_PAYLOAD = 8
NOC_WINDOW = 600
NOC_PACKETS_PER_NODE = 30
NOC_TRIALS = 5

MAX_CYCLES = 20_000_000


@dataclass
class Instance:
    """A built, deployed workload, ready for its measured phase."""

    sims: List[object]
    setup_times: Dict[str, float]
    state: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one measured phase did and how its checks went."""

    #: host seconds of the measured phase (checks excluded)
    run_s: float
    #: ``perf_counter()`` when the measured phase began
    started: float
    sim_cycles: int
    attempted: int
    failed: int
    #: the outputs themselves, compared between traced and untraced runs
    outputs: object
    #: (instructions_retired, cycles_active, cycles_stalled) per core,
    #: counted over the measured phase
    cores: Dict[int, Tuple[int, int, int]] = field(default_factory=dict)
    #: NoC statistics of the measured phase
    flits_moved: int = 0
    packets_delivered: int = 0
    latencies: List[int] = field(default_factory=list)


class NocProbe:
    """NoC statistics at the start of a measured phase, for deltas."""

    def __init__(self, stats):
        self.stats = stats
        self.flits = stats.flits_moved_total
        self.delivered = stats.packets_delivered
        self.n_latencies = len(stats.latencies)

    def fill(self, out: Outcome) -> Outcome:
        out.flits_moved += self.stats.flits_moved_total - self.flits
        out.packets_delivered += self.stats.packets_delivered - self.delivered
        out.latencies.extend(self.stats.latencies[self.n_latencies :])
        return out


def core_counters(system) -> Dict[int, Tuple[int, int, int]]:
    return {
        pid: (
            ip.cpu.instructions_retired,
            ip.cpu.cycles_active,
            ip.cpu.cycles_stalled,
        )
        for pid, ip in system.processors.items()
    }


def core_deltas(before, after) -> Dict[int, Tuple[int, int, int]]:
    return {
        pid: tuple(a - b for a, b in zip(after[pid], before[pid]))
        for pid in after
    }


# -- edge-2x2 ----------------------------------------------------------------


def edge_setup(seed: int) -> Instance:
    rng = random.Random(seed)
    image = [
        [rng.randrange(256) for _ in range(EDGE_WIDTH)]
        for _ in range(EDGE_HEIGHT)
    ]
    t0 = perf_counter()
    session = MultiNoCPlatform.standard().launch()
    t1 = perf_counter()
    program = worker_program()
    t2 = perf_counter()
    app = EdgeDetectionApp(session.host, program=program)
    app.deploy()
    t3 = perf_counter()
    return Instance(
        sims=[session.sim],
        setup_times={"build": t1 - t0, "assemble": t2 - t1, "deploy": t3 - t2},
        state={"session": session, "app": app, "image": image},
    )


def edge_run(inst: Instance) -> Outcome:
    session, app, image = (inst.state[k] for k in ("session", "app", "image"))
    probe = NocProbe(session.system.stats)
    cores = core_counters(session.system)
    t0 = perf_counter()
    result = app.run(image)
    run_s = perf_counter() - t0
    expected = reference_sobel(image)
    failed = sum(
        1 for got, want in zip(result.output, expected) if got != want
    )
    failed += abs(len(result.output) - len(expected))
    return probe.fill(
        Outcome(
            run_s=run_s,
            started=t0,
            sim_cycles=result.cycles,
            attempted=len(expected),
            failed=failed,
            outputs=result.output,
            cores=core_deltas(cores, core_counters(session.system)),
        )
    )


# -- sea-16x16 -----------------------------------------------------------------


def sea_worker(pid: int, first: int, last: int, successor_base) -> str:
    """The examples/sea_of_processors.py worker over [first, last]:
    a partial sum, then the wait/notify chain reduction in which each
    processor adds its successor's total, read through the NUMA window."""
    reduce_part = ""
    if successor_base is not None:
        reduce_part = f"""
        LDI  R3, {pid + 1}
        LDI  R2, 0xFFFE
        ST   R3, R2, R0      ; wait for P{pid + 1}
        LDI  R2, {successor_base + SEA_RESULT_ADDR}
        LD   R4, R2, R0      ; successor's accumulated total (NUMA read)
        ADD  R5, R5, R4
        LDI  R2, {SEA_RESULT_ADDR}
        ST   R5, R2, R0      ; re-publish the accumulated total
"""
    if pid == 1:
        finish = """
        LDI  R2, 0xFFFF
        ST   R5, R2, R0      ; P1 announces the grand total
        HALT
"""
    else:
        finish = f"""
        LDI  R3, {pid - 1}
        LDI  R2, 0xFFFD
        ST   R3, R2, R0      ; pass the baton to P{pid - 1}
        HALT
"""
    return f"""
        CLR  R0
        LDI  R1, {first}
        LDI  R6, {last}
        LDL  R7, 1
        CLR  R5
sum:    ADD  R5, R5, R1
        SUB  R8, R6, R1
        JMPZD summed
        ADD  R1, R1, R7
        JMP  sum
summed: LDI  R2, {SEA_RESULT_ADDR}
        ST   R5, R2, R0      ; publish the partial for my predecessor
{reduce_part}{finish}
"""


def sea_setup(seed: int) -> Instance:
    offset = random.Random(seed).randrange(SEA_MAX_OFFSET)
    t0 = perf_counter()
    session = MultiNoCPlatform(
        topology=SEA_TOPOLOGY, n_processors=SEA_WORKERS
    ).launch()
    t1 = perf_counter()
    programs = {}
    for pid in range(1, SEA_WORKERS + 1):
        base = None
        if pid < SEA_WORKERS:
            base = session.system.numa_base(pid, pid + 1)
            if base is None:
                raise RuntimeError(f"no NUMA window from P{pid} to P{pid + 1}")
        first = offset + (pid - 1) * SEA_CHUNK + 1
        programs[pid] = Program.from_source(
            sea_worker(pid, first, first + SEA_CHUNK - 1, base),
            name=f"sea{pid}",
        )
    t2 = perf_counter()
    session.host.sync()
    t3 = perf_counter()
    last = offset + SEA_WORKERS * SEA_CHUNK
    expected = (last * (last + 1) // 2 - offset * (offset + 1) // 2) & 0xFFFF
    return Instance(
        sims=[session.sim],
        setup_times={"build": t1 - t0, "assemble": t2 - t1, "deploy": t3 - t2},
        state={"session": session, "programs": programs, "expected": expected},
    )


def sea_run(inst: Instance) -> Outcome:
    session, programs = inst.state["session"], inst.state["programs"]
    host, sim = session.host, session.sim
    probe = NocProbe(session.system.stats)
    cores = core_counters(session.system)
    start = sim.cycle
    t0 = perf_counter()
    for pid, program in programs.items():
        addr = session.processor_address(pid)
        host.load_program(addr, program.obj)
        host.activate(addr)
    session.wait_all_halted(max_cycles=MAX_CYCLES)
    monitor = host.monitor(1)
    sim.run_until(
        lambda: len(monitor.printfs) > 0,
        max_cycles=100_000,
        label="P1 printf",
    )
    run_s = perf_counter() - t0
    printed = monitor.printf_values
    return probe.fill(
        Outcome(
            run_s=run_s,
            started=t0,
            sim_cycles=sim.cycle - start,
            attempted=1,
            failed=0 if printed == [inst.state["expected"]] else 1,
            outputs=printed,
            cores=core_deltas(cores, core_counters(session.system)),
        )
    )


# -- noc-saturated -------------------------------------------------------------


def noc_schedule(rng: random.Random, node) -> List[Tuple[int, tuple]]:
    """(cycle, target) injections: every other node equally often."""
    width, height = NOC_MESH
    targets = [
        (x, y) for y in range(height) for x in range(width) if (x, y) != node
    ]
    if NOC_PACKETS_PER_NODE % len(targets):
        raise ValueError("packets per node must split evenly over targets")
    targets *= NOC_PACKETS_PER_NODE // len(targets)
    rng.shuffle(targets)
    cycles = sorted(rng.sample(range(NOC_WINDOW), NOC_PACKETS_PER_NODE))
    return list(zip(cycles, targets))


def noc_setup(seed: int) -> Instance:
    times = {"build": 0.0, "assemble": 0.0, "deploy": 0.0}
    trials = []
    for trial in range(NOC_TRIALS):
        t0 = perf_counter()
        network = HermesNetwork(*NOC_MESH)
        sim = network.make_simulator()
        t1 = perf_counter()
        # an empty configured schedule, replaced by the seeded one
        sources = drive_traffic(
            network, TrafficConfig(payload_flits=NOC_PAYLOAD, duration=0)
        )
        for source in sources:
            rng = random.Random(f"{seed}:{trial}:{source.ni.address}")
            source.schedule = noc_schedule(rng, source.ni.address)
        t2 = perf_counter()
        sim.step(0)  # elaborate the model into the kernel's unit list
        t3 = perf_counter()
        times["build"] += t1 - t0
        times["assemble"] += t2 - t1
        times["deploy"] += t3 - t2
        trials.append((network, sim, sources))
    return Instance(
        sims=[sim for _, sim, _ in trials],
        setup_times=times,
        state={"trials": trials},
    )


def noc_run(inst: Instance) -> Outcome:
    trials = inst.state["trials"]
    probes = [NocProbe(network.stats) for network, _, _ in trials]
    starts = [sim.cycle for _, sim, _ in trials]
    t0 = perf_counter()
    for network, sim, sources in trials:
        sim.run_until(
            lambda: network.drained and all(s.done for s in sources),
            max_cycles=MAX_CYCLES,
            label="traffic drained",
        )
    run_s = perf_counter() - t0
    out = Outcome(
        run_s=run_s,
        started=t0,
        sim_cycles=sum(
            sim.cycle - start for (_, sim, _), start in zip(trials, starts)
        ),
        attempted=0,
        failed=0,
        outputs=[],
    )
    for (network, _, sources), probe in zip(trials, probes):
        stats = network.stats
        injected = sum(s.injected for s in sources)
        received = sorted(
            (p.target, tuple(p.payload)) for p in network.collect_received()
        )
        sent = sorted(
            (target, (index & 0xFF,) * NOC_PAYLOAD)
            for s in sources
            for index, (_, target) in enumerate(s.schedule)
        )
        failed = (
            max(0, len(sent) - stats.packets_delivered)
            + stats.unmatched_deliveries
            + stats.packets_dropped
        )
        if received != sent or injected != len(sent):
            failed = max(failed, 1)
        out.attempted += len(sent)
        out.failed += min(failed, len(sent))
        out.outputs.append(received)
        probe.fill(out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Instance]
    run: Callable[[Instance], Outcome]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("edge-2x2", edge_setup, edge_run),
        Workload("sea-16x16", sea_setup, sea_run),
        Workload("noc-saturated", noc_setup, noc_run),
    )
}
