"""Kernel scheduling benchmark: quiescence-aware vs strict lock-step.

The simulator's quiescence-aware scheduler (see DESIGN.md, "Simulation
kernel") only evaluates components that have work and fast-forwards the
cycle counter over fully idle spans.  This benchmark measures the three
regimes that bound its behaviour:

* **idle** — a launched platform sitting quiet: every unit is asleep,
  the kernel should fast-forward and the cycles/second rate must be at
  least 2x the strict lock-step rate (CI gate; in practice it is
  orders of magnitude higher).
* **saturated** — a mesh under heavy synthetic traffic: nothing can
  sleep, so the quiescent path must not cost materially more than
  lock-step (its overhead is keeping the active list: merging woken
  units in and dropping the ones that went to sleep).
* **mixed** — bursty traffic with idle gaps, the realistic middle.
* **one active core** — a single core spinning on a 2x2 and on a
  16x16 mesh: the kernel evaluates only awake units, so the host cost
  per cycle must not grow with the hundreds of sleeping routers
  (16x16 at most 1.5x the 2x2 cost, CI gate).  The spin loop's ADD
  changes a register every iteration, so it is not an idle loop and
  the core stays awake (asserted).
* **polling cores** — two cores polling a flag nobody writes on a 2x2
  mesh: each sleeps in its idle loop and the kernel fast-forwards, so
  the quiescent path must be at least 10x faster per cycle than
  lock-step with identical core counters (CI gate).

The traffic scenarios also double as equivalence checks: delivered
packet counts and final cycle numbers must match bit-for-bit across
modes.
"""

import time

from conftest import report
from repro.apps.workloads import TrafficConfig, drive_traffic
from repro.core import MultiNoCPlatform
from repro.noc.network import HermesNetwork

IDLE_CYCLES = 100_000
SPIN_CYCLES = 20_000
SPIN_ROUNDS = 3

#: one core adding forever; nothing else on the platform has work
SPIN_PROGRAM = """
        CLR  R0
        LDL  R1, 1
loop:   ADD  R2, R2, R1
        JMP  loop
"""

POLL_CYCLES = 50_000

#: the edge worker's poll loop on a flag word nobody writes
POLL_PROGRAM = """
        CLR  R0
poll:   LDI  R2, 0x2C0
        LD   R12, R2, R0
        OR   R12, R12, R12
        JMPZD poll
        HALT
"""


def _rate(cycles, seconds):
    return cycles / seconds if seconds > 0 else float("inf")


def _time_idle(strict):
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    sim = session.sim
    start = sim.cycle
    t0 = time.perf_counter()
    sim.step(IDLE_CYCLES)
    dt = time.perf_counter() - t0
    assert sim.cycle - start == IDLE_CYCLES
    return dt


def _time_traffic(strict, rate, duration):
    net = HermesNetwork(3, 3)
    sim = net.make_simulator(strict_lockstep=strict)
    sources = drive_traffic(
        net, TrafficConfig(pattern="uniform", rate=rate, duration=duration)
    )
    sim.reset()
    t0 = time.perf_counter()
    sim.run_until(
        lambda: all(s.done for s in sources) and net.drained,
        max_cycles=duration * 50,
        label="traffic drain",
    )
    dt = time.perf_counter() - t0
    delivered = len(net.collect_received())
    return dt, sim.cycle, delivered


def test_kernel_idle_fast_forward(benchmark):
    """Idle platform: the quiescent kernel must be >=2x faster (CI gate)."""

    def both():
        return _time_idle(strict=True), _time_idle(strict=False)

    strict_dt, quiescent_dt = benchmark(both)
    strict_rate = _rate(IDLE_CYCLES, strict_dt)
    quiescent_rate = _rate(IDLE_CYCLES, quiescent_dt)
    speedup = quiescent_rate / strict_rate
    report(
        benchmark,
        "Kernel idle throughput (fast-forward)",
        [
            ("strict lock-step (cycles/s)", "(baseline)", f"{strict_rate:,.0f}"),
            ("quiescent (cycles/s)", ">=2x strict", f"{quiescent_rate:,.0f}"),
            ("idle speedup", ">=2x (CI gate)", f"{speedup:.1f}x"),
        ],
    )
    assert speedup >= 2.0, (
        f"quiescent idle stepping must be at least 2x strict lock-step, "
        f"got {speedup:.2f}x"
    )


def test_kernel_saturated_throughput(benchmark):
    """Saturated mesh: every unit busy, quiescent overhead must be small."""

    def both():
        s = _time_traffic(strict=True, rate=0.25, duration=2000)
        q = _time_traffic(strict=False, rate=0.25, duration=2000)
        return s, q

    (s_dt, s_cyc, s_pkts), (q_dt, q_cyc, q_pkts) = benchmark(both)
    assert (s_cyc, s_pkts) == (q_cyc, q_pkts), "modes must agree bit-for-bit"
    ratio = _rate(q_cyc, q_dt) / _rate(s_cyc, s_dt)
    report(
        benchmark,
        "Kernel saturated throughput (nothing can sleep)",
        [
            ("packets delivered", "identical", f"{q_pkts} (both modes)"),
            ("drain cycles", "identical", f"{q_cyc} (both modes)"),
            ("strict (cycles/s)", "(baseline)", f"{_rate(s_cyc, s_dt):,.0f}"),
            ("quiescent (cycles/s)", "~1x strict", f"{_rate(q_cyc, q_dt):,.0f}"),
            ("quiescent/strict", ">=0.5x", f"{ratio:.2f}x"),
        ],
    )
    assert ratio >= 0.5, "quiescent bookkeeping must not halve throughput"


def test_kernel_mixed_duty_cycle(benchmark):
    """Bursty traffic with idle gaps: the realistic regime in between."""

    def both():
        s = _time_traffic(strict=True, rate=0.002, duration=20_000)
        q = _time_traffic(strict=False, rate=0.002, duration=20_000)
        return s, q

    (s_dt, s_cyc, s_pkts), (q_dt, q_cyc, q_pkts) = benchmark(both)
    assert (s_cyc, s_pkts) == (q_cyc, q_pkts), "modes must agree bit-for-bit"
    speedup = _rate(q_cyc, q_dt) / _rate(s_cyc, s_dt)
    report(
        benchmark,
        "Kernel mixed duty cycle (bursts + idle gaps)",
        [
            ("packets delivered", "identical", f"{q_pkts} (both modes)"),
            ("strict (cycles/s)", "(baseline)", f"{_rate(s_cyc, s_dt):,.0f}"),
            ("quiescent (cycles/s)", "(faster)", f"{_rate(q_cyc, q_dt):,.0f}"),
            ("mixed speedup", ">1x", f"{speedup:.2f}x"),
        ],
    )
    assert speedup > 1.0, "idle gaps must make the quiescent path faster"


def _spin_session(topology):
    """A platform whose only awake work is P1 spinning on ADD/JMP."""
    session = MultiNoCPlatform(topology=topology, n_processors=1).launch()
    session.start(1, SPIN_PROGRAM)
    sim = session.sim
    sim.run_until(lambda: session.system.idle, label="serial drain")
    sim.step(1000)  # let the host and the routers fall asleep
    return session


def _spin_cost(session):
    """Host seconds per simulated cycle of one spinning core."""
    proc = session.system.processor(1)
    retired = proc.cpu.instructions_retired
    t0 = time.perf_counter()
    session.sim.step(SPIN_CYCLES)
    dt = time.perf_counter() - t0
    assert proc.cpu.instructions_retired > retired, "P1 must be spinning"
    assert proc._awake, "the spin loop is no idle loop: P1 must stay awake"
    return dt / SPIN_CYCLES


def test_kernel_one_active_core(benchmark):
    """One busy core: the host cost per cycle must not follow the fabric
    size (CI gate: 16x16 at most 1.5x the 2x2 cost)."""
    small, large = _spin_session("mesh:2x2"), _spin_session("mesh:16x16")

    def both():
        # alternate the two so host-speed drift hits both alike; the
        # fastest round of each is its cost
        costs = {"small": [], "large": []}
        for _ in range(SPIN_ROUNDS):
            costs["small"].append(_spin_cost(small))
            costs["large"].append(_spin_cost(large))
        return min(costs["small"]), min(costs["large"])

    small_s, large_s = benchmark(both)
    ratio = large_s / small_s
    units = len(large.sim._units)
    report(
        benchmark,
        "Kernel with one active core (ADD/JMP spin)",
        [
            ("mesh:2x2 (us/cycle)", "(baseline)", f"{small_s * 1e6:.2f}"),
            (
                f"mesh:16x16, {units} units (us/cycle)",
                "<=1.5x 2x2",
                f"{large_s * 1e6:.2f}",
            ),
            ("16x16 / 2x2", "<=1.5x (CI gate)", f"{ratio:.2f}x"),
        ],
    )
    assert ratio <= 1.5, (
        f"one spinning core costs {ratio:.2f}x more per cycle on 16x16 "
        f"than on 2x2: the kernel's cost follows the sleeping units"
    )


def _poll_session(strict):
    """P1 and P2 polling a flag nobody writes; everything else idle."""
    session = MultiNoCPlatform.standard().launch(strict_lockstep=strict)
    session.start(1, POLL_PROGRAM)
    session.start(2, POLL_PROGRAM)
    sim = session.sim
    sim.run_until(lambda: session.system.idle, label="serial drain")
    sim.step(1000)  # let the loops be captured and the IPs fall asleep
    return session


def _poll_cost(session):
    """(host seconds per cycle, per-core counters after the run)."""
    t0 = time.perf_counter()
    session.sim.step(POLL_CYCLES)
    dt = time.perf_counter() - t0
    counters = [
        (ip.cpu.instructions_retired, ip.cpu.cycles_active, ip.cpu.cycles_stalled)
        for ip in session.system.processors.values()
    ]
    return dt / POLL_CYCLES, counters


def test_kernel_polling_core(benchmark):
    """Two polling cores: idle-loop sleep must make the quiescent kernel
    at least 10x faster per cycle than lock-step (CI gate), with the
    same core counters."""
    strict, quiescent = _poll_session(True), _poll_session(False)
    assert strict.sim.cycle == quiescent.sim.cycle

    def both():
        return _poll_cost(strict), _poll_cost(quiescent)

    (strict_s, strict_counters), (quiet_s, quiet_counters) = benchmark(both)
    assert quiet_counters == strict_counters, "modes must agree bit-for-bit"
    assert all(retired > 0 for retired, _, _ in quiet_counters)
    speedup = strict_s / quiet_s
    report(
        benchmark,
        "Kernel with two polling cores (idle-loop sleep)",
        [
            ("strict lock-step (us/cycle)", "(baseline)", f"{strict_s * 1e6:.2f}"),
            ("quiescent (us/cycle)", "<=0.1x strict", f"{quiet_s * 1e6:.3f}"),
            ("polling speedup", ">=10x (CI gate)", f"{speedup:.0f}x"),
        ],
    )
    assert speedup >= 10.0, (
        f"two polling cores must sleep in their idle loops: quiescent is "
        f"only {speedup:.1f}x faster per cycle than lock-step"
    )
