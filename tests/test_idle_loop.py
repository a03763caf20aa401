"""Idle-loop sleep: polling cores sleep and replay their loop exactly.

The quiescent kernel lets a Processor IP sleep while its R8 core spins
in a side-effect-free loop and restores the lock-step state when it
wakes (or when something reads it between steps).  Every scenario here
runs under both kernel modes and compares everything observable.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MultiNoCPlatform, TelemetrySink
from repro.debug import SystemDebugger
from repro.noc import services
from repro.r8 import assemble
from repro.sim import restore_checkpoint, save_checkpoint
from repro.system import MultiNoC

from .test_checkpoint import _fingerprint

#: the flag word the polling programs watch (the edge worker's layout)
FLAG = 0x2C0

#: P1 blocks in a wait for a notify from P2 that never comes
WAIT_FOREVER = """
        CLR  R0
        LDI  R5, 2
        LDI  R6, 0xFFFE
        ST   R5, R6, R0
        HALT
"""

#: the edge worker's poll loop; printf's the flag once it is set
POLL = f"""
        CLR  R0
poll:   LDI  R2, {FLAG}
        LD   R12, R2, R0
        OR   R12, R12, R12
        JMPZD poll
        LDI  R6, 0xFFFF
        ST   R12, R6, R0
        HALT
"""

#: address of the LD inside POLL's loop (CLR is one word, LDI two)
POLL_LD = 3


def _launch(strict, telemetry=False):
    return MultiNoCPlatform.standard().launch(
        telemetry=TelemetrySink() if telemetry else None,
        strict_lockstep=strict,
    )


def _core_view(session, pid):
    """Every settled read of one core a caller can make between steps."""
    proc = session.system.processor(pid)
    cpu = proc.cpu
    return {
        "counters": (
            cpu.instructions_retired,
            cpu.cycles_active,
            cpu.cycles_stalled,
        ),
        "progress": cpu.progress,
        "fsm": cpu.fsm_state,
        "regs": list(cpu.state.regs),
        "flags": cpu.state.flags.as_tuple(),
        "probe": proc.probe_state(),
    }


def _asleep_in_loop(proc):
    return not proc._awake and proc._idle_loop


class TestSettledReads:
    """Reads between steps return lock-step values while a core sleeps."""

    def _blocked(self, strict):
        session = _launch(strict, telemetry=True)
        session.start(1, WAIT_FOREVER)
        session.sim.step(5000)
        metrics = session.telemetry.metrics
        gauges = {
            stat: metrics.gauge(f"cpu_1_{stat}").read()
            for stat in ("instructions_retired", "cycles_active", "cycles_stalled")
        }
        return session.sim.cycle, _core_view(session, 1), gauges

    def test_core_blocked_in_wait(self):
        strict = self._blocked(True)
        quiescent = self._blocked(False)
        assert strict == quiescent
        _, view, _ = strict
        assert view["counters"][2] > 4000  # really stalled all along

    def _reads_one_by_one(self, strict):
        """Each read is the first one after a step, so it alone must
        settle the core."""
        session = _launch(strict, telemetry=True)
        session.start(1, POLL)
        cpu = session.system.processor(1).cpu
        reads = {
            "retired": lambda: cpu.instructions_retired,
            "active": lambda: cpu.cycles_active,
            "stalled": lambda: cpu.cycles_stalled,
            "progress": lambda: cpu.progress,
            "fsm": lambda: cpu.fsm_state,
            "pc": lambda: cpu.state.pc,
            "probe": session.system.processor(1).probe_state,
        }
        metrics = session.telemetry.metrics
        for stat in ("instructions_retired", "cycles_active"):
            reads[stat] = metrics.gauge(f"cpu_1_{stat}").read
        seen = {}
        for i, (name, read) in enumerate(sorted(reads.items())):
            session.sim.step(3001 + 7 * i)
            seen[name] = read()
        return seen

    def test_each_read_settles(self):
        assert self._reads_one_by_one(True) == self._reads_one_by_one(False)

    def test_core_polling(self):
        views = []
        for strict in (True, False):
            session = _launch(strict)
            session.start(1, POLL)
            session.sim.step(5000)
            proc = session.system.processor(1)
            if not strict:
                assert _asleep_in_loop(proc)
            views.append((session.sim.cycle, _core_view(session, 1)))
        assert views[0] == views[1]


class TestPollingWorkload:
    def _run(self, strict):
        session = _launch(strict, telemetry=True)
        session.start(1, POLL)
        session.start(2, POLL)
        session.sim.step(6000)
        asleep = [_asleep_in_loop(session.system.processor(p)) for p in (1, 2)]
        session.write(2, FLAG, [0x42])  # a NoC write ends P2's loop
        session.system.processor(1).load([0x17], FLAG)  # a direct poke, P1's
        session.wait_all_halted(max_cycles=200_000)
        session.sim.step(3000)  # drain the printfs
        session.system.flush_telemetry()
        return asleep, {
            "cycle": session.sim.cycle,
            "printfs": {
                p: list(session.host.monitor(p).printfs) for p in (1, 2)
            },
            "cores": [_core_view(session, p) for p in (1, 2)],
            "events": [
                (e.ph, e.name, e.track, e.ts, e.dur, e.args)
                for e in session.telemetry.events
            ],
        }

    def test_bit_identical_and_sleeping(self):
        strict_asleep, strict = self._run(True)
        quiescent_asleep, quiescent = self._run(False)
        assert quiescent_asleep == [True, True]
        assert strict_asleep == [False, False]
        for key in strict:
            assert strict[key] == quiescent[key], f"{key} diverged"
        assert [v for _, v in strict["printfs"][1]] == [0x17]
        assert [v for _, v in strict["printfs"][2]] == [0x42]


def _monitored_poll(strict):
    """P1 polls a flag nobody writes, under the health monitor."""
    session = _launch(strict)
    session.start(1, POLL)
    monitor = session.monitor_health(cpu_stall_cycles=3000, sample_interval=256)
    session.sim.step(20_000)  # raises HealthViolation on a false stall
    return session, monitor


class TestHealthOnPollingCores:
    @pytest.mark.parametrize("strict", [True, False])
    def test_cpu_stall_watchdog_stays_quiet(self, strict):
        """A polling core makes progress every cycle: no cpu_stall, even
        while it sleeps through long fast-forwarded spans."""
        session, monitor = _monitored_poll(strict)
        assert monitor.violations == []
        if not strict:
            assert _asleep_in_loop(session.system.processor(1))

    def test_samples_match_across_modes(self):
        series = [
            _monitored_poll(strict)[1].sampler.series["ipc.proc1"]
            for strict in (True, False)
        ]
        assert list(series[0]) == list(series[1])
        assert any(v > 0 for _, v in series[0])


class TestDebuggerOnPollingCore:
    def _hits(self, strict):
        session = _launch(strict, telemetry=True)
        session.start(1, POLL)
        session.sim.step(5000)
        if not strict:
            assert _asleep_in_loop(session.system.processor(1))
        dbg = SystemDebugger(session)
        dbg.execute(f"break 1 {POLL_LD}")
        stops = [dbg.execute("continue 500") for _ in range(4)]
        dbg.execute(f"unbreak 1 {POLL_LD}")
        stops.append(dbg.execute("step 3000"))
        return stops, _core_view(session, 1)

    def test_pc_breakpoint_in_loop_hits_at_same_cycles(self):
        strict, quiescent = self._hits(True), self._hits(False)
        assert strict == quiescent
        assert all("breakpoint proc1 pc=0003" in s for s in strict[0][:4])

    def _reads(self, strict):
        session = _launch(strict)
        session.start(1, POLL)
        session.sim.step(5000)
        dbg = SystemDebugger(session)
        dbg.execute(f"watch 1 {FLAG} r")
        return [dbg.execute("continue 500") for _ in range(3)]

    def test_read_watchpoint_on_polled_flag(self):
        """A read watchpoint keeps the polling core awake: every poll
        trips it, as in lock-step."""
        strict, quiescent = self._reads(True), self._reads(False)
        assert strict == quiescent
        assert all("read watchpoint" in s for s in strict)


class TestCheckpointMidSleep:
    def _session(self, strict):
        session = _launch(strict, telemetry=True)
        session.start(1, POLL)
        session.start(2, POLL)
        return session

    def _finish(self, session):
        """Continue from a checkpoint cycle: poke P1's flag 1000 cycles on
        (P2 polls on), run, and fingerprint."""
        session.sim.step(1000)
        session.system.processor(1).load([9], FLAG)
        session.sim.run_until(
            lambda: session.system.processor(1).cpu.halted, max_cycles=50_000
        )
        session.sim.step(4000)
        return _fingerprint(session)

    @pytest.mark.parametrize("resume_strict", [False, True])
    def test_snapshot_while_asleep_in_loop(self, resume_strict, tmp_path):
        path = tmp_path / "poll.ckpt"
        straight = self._session(False)
        straight.sim.step(6000)
        procs = [straight.system.processor(p) for p in (1, 2)]
        assert all(_asleep_in_loop(p) for p in procs)
        save_checkpoint(straight.sim, path)
        expected = self._finish(straight)

        resumed = self._session(resume_strict)
        restore_checkpoint(resumed.sim, path)
        assert self._finish(resumed) == expected
        assert expected["printfs"][1] == [9]


# ---------------------------------------------------------------------------
# Generated loops on a bare Processor IP (no host, no serial traffic)
# ---------------------------------------------------------------------------

_OPS = ("ADD", "SUB", "AND", "OR", "XOR")
_VARIANTS = ("pure", "store", "remote_load", "counting", "woken")
#: local data words the generated bodies load from (and store to)
_DATA = 0x300


@st.composite
def loop_programs(draw):
    variant = draw(st.sampled_from(_VARIANTS))
    body = []
    # every temporary is re-initialised each iteration, so the loop head
    # state repeats unless the variant says otherwise
    for r in range(4, 10):
        body.append(f"LDI  R{r}, {draw(st.integers(0, 0xFFFF))}")
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            body.append(
                f"LD   R{draw(st.integers(4, 9))}, R3, R{draw(st.integers(0, 1))}"
            )
        else:
            op = draw(st.sampled_from(_OPS))
            rt, a, b = (draw(st.integers(4, 9)) for _ in range(3))
            body.append(f"{op:4} R{rt}, R{a}, R{b}")
    if variant == "store":
        body.append(f"ST   R{draw(st.integers(4, 9))}, R3, R1")
    elif variant == "remote_load":
        body.append("LD   R4, R13, R0")  # P2's memory, over the NoC
    elif variant == "counting":
        body.append("ADD  R10, R10, R1")
    lines = "\n".join(f"        {line}" for line in body)
    source = f"""
        CLR  R0
        LDL  R1, 1
        LDI  R3, {_DATA}
        LDI  R13, {1024 + _DATA}
poll:   LDI  R2, {FLAG}
{lines}
        LD   R12, R2, R0
        OR   R12, R12, R12
        JMPZD poll
        ST   R12, R3, R0
        HALT
"""
    data = draw(st.lists(st.integers(0, 0xFFFF), min_size=2, max_size=2))
    wake_at = draw(st.integers(200, 2500)) if variant == "woken" else None
    return variant, source, data, wake_at


def _run_bare(strict, source, data=(), inject_at=None, packets=(), cycles=3000):
    """Run *source* on P1 of a bare 2x2 MultiNoC (loaded straight into
    its memory, no host), with *packets* sent from P2's NI at cycle
    *inject_at*; returns every settled read of P1 and whether it ended
    asleep in an idle loop."""
    system = MultiNoC()
    sim = system.make_simulator(strict_lockstep=strict)
    proc = system.processor(1)
    proc.cpu.enable_pc_sampling()
    for origin, words in assemble(source).segments:
        proc.load(words, origin)
    proc.load(data, _DATA)
    proc.cpu.activate()
    if inject_at is not None:
        sim.step(inject_at)
        for message in packets:
            system.processor(2).ni.send_packet(message)
    sim.step(cycles - sim.cycle)
    cpu = proc.cpu
    view = {
        "cycle": sim.cycle,
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "flags": cpu.state.flags.as_tuple(),
        "counters": (
            cpu.instructions_retired, cpu.cycles_active, cpu.cycles_stalled
        ),
        "fsm": cpu.fsm_state,
        "memory": proc.dump(),
    }
    proc.settle()  # pc_samples is a plain attribute: settle before reading
    view["pc_samples"] = dict(cpu.pc_samples)
    return view, _asleep_in_loop(proc)


#: packets from P2 that end or interrupt P1's poll loop: a block write
#: whose last word is the flag (the loop re-arms while the server is
#: still writing), and a wait packet followed by its notify
_PACKETS = {
    "block_write": [
        services.encode_write((0, 1), FLAG - 63, list(range(1, 65)))
    ],
    "wait_notify": [
        services.encode_wait((0, 1), source=2),
        services.encode_notify((0, 1), source=2),
    ],
}


@pytest.mark.parametrize("packet", sorted(_PACKETS))
def test_packets_at_every_loop_phase(packet):
    """Whatever loop phase a packet lands in, both modes agree."""
    for inject_at in range(400, 414):
        runs = [
            _run_bare(strict, POLL, (), inject_at, _PACKETS[packet], 1500)[0]
            for strict in (True, False)
        ]
        assert runs[0] == runs[1], f"diverged for packets sent at {inject_at}"


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(loop_programs())
def test_generated_loops_agree_across_modes(case):
    variant, source, data, wake_at = case
    # P2's NI writes P1's flag word: a woken loop must see it
    wake = [services.encode_write((0, 1), FLAG, [0x5A5A])]
    strict, _ = _run_bare(True, source, data, wake_at, wake)
    quiescent, slept = _run_bare(False, source, data, wake_at, wake)
    assert strict == quiescent
    if variant == "pure":
        assert slept, "a side-effect-free poll loop must sleep"
    if variant in ("store", "remote_load", "counting"):
        assert not slept
    if variant == "woken":
        assert quiescent["memory"][_DATA] == 0x5A5A  # the loop saw the write

