"""Tests for the cycle-accurate R8 core: CPI, stalls, pause, activate."""

import pytest

from repro.r8 import LocalBus, R8Cpu, assemble, isa
from repro.r8.bus import Transaction
from repro.sim import Simulator


def make_cpu(source):
    bus = LocalBus()
    bus.load(assemble(source).memory_image())
    cpu = R8Cpu("cpu", bus)
    sim = Simulator()
    sim.add(cpu)
    return sim, cpu, bus


def run_to_halt(source, max_cycles=100_000):
    sim, cpu, bus = make_cpu(source)
    cpu.activate()
    sim.run_until(lambda: cpu.halted, max_cycles=max_cycles)
    return sim, cpu, bus


class TestCpi:
    def test_alu_instruction_cpi_2(self):
        # 50 ALU ops + overheads: measure a pure-ALU stretch
        sim, cpu, _ = run_to_halt("LDL R1, 1\n" + "ADD R2, R1, R1\n" * 50 + "HALT")
        # LDL + 50 ADD + HALT = 52 instructions
        assert cpu.instructions_retired == 52
        assert cpu.cycles_active == pytest.approx(52 * 2, abs=2)

    def test_store_cpi_3(self):
        sim, cpu, _ = run_to_halt(
            "CLR R0\nLDI R6, 0x80\n" + "ST R0, R6, R0\n" * 20 + "HALT"
        )
        # setup: CLR, LDH, LDL (2 cycles each) + 20 ST + HALT
        st_cycles = cpu.cycles_active - 3 * 2 - 2
        assert st_cycles == 20 * 3

    def test_load_cpi_4(self):
        sim, cpu, _ = run_to_halt(
            "CLR R0\nLDI R6, 0x80\n" + "LD R1, R6, R0\n" * 20 + "HALT"
        )
        ld_cycles = cpu.cycles_active - 3 * 2 - 2
        assert ld_cycles == 20 * 4

    def test_overall_cpi_within_paper_bounds(self):
        sim, cpu, _ = run_to_halt(
            "CLR R0\nLDI R6, 0x80\nLDL R1, 1\n"
            + "ADD R2, R1, R1\nST R2, R6, R0\nLD R3, R6, R0\nPUSH R3\nPOP R4\n" * 10
            + "HALT"
        )
        assert 2.0 <= cpu.cpi() <= 4.0


class TestEquivalenceWithIss:
    def test_same_result_as_functional_simulator(self):
        from repro.r8 import R8Simulator

        source = """
            CLR  R0
            LDI  R1, 1000
            LDL  R2, 1
            CLR  R3
        loop:
            ADD  R3, R3, R1
            SR0  R1, R1
            OR   R4, R1, R1
            JMPZD done
            JMP  loop
        done:
            LDI  R5, 0x90
            ST   R3, R5, R0
            HALT
        """
        sim, cpu, bus = run_to_halt(source)
        iss = R8Simulator()
        iss.load(assemble(source))
        iss.activate()
        iss.run()
        assert cpu.state.regs == iss.state.regs
        assert cpu.state.pc == iss.state.pc
        assert cpu.state.sp == iss.state.sp
        assert bus.data[0x90] == iss.memory[0x90]


class TestStalling:
    def test_pending_transaction_stalls_core(self):
        class SlowBus(LocalBus):
            def __init__(self):
                super().__init__()
                self.pending = []

            def read(self, addr):
                txn = Transaction(False, addr)
                self.pending.append((txn, self.data[addr % self.size]))
                return txn

        bus = SlowBus()
        bus.load(assemble("CLR R0\nLDI R2, 0x40\nLD R1, R2, R0\nHALT").memory_image())
        bus.data[0x40] = 77
        cpu = R8Cpu("cpu", bus)
        sim = Simulator()
        sim.add(cpu)
        cpu.activate()
        sim.step(40)
        assert cpu.stalled
        assert not cpu.halted
        stalled_before = cpu.cycles_stalled
        assert stalled_before > 20
        txn, value = bus.pending[0]
        txn.complete(value)
        sim.run_until(lambda: cpu.halted, max_cycles=50)
        assert cpu.state.regs[1] == 77

    def test_pause_freezes_at_fetch(self):
        sim, cpu, _ = make_cpu("loop: NOP\nJMPD loop")
        cpu.activate()
        sim.step(10)
        retired = cpu.instructions_retired
        cpu.paused = True
        sim.step(20)
        assert cpu.instructions_retired <= retired + 1  # at most finish one
        cpu.paused = False
        sim.step(20)
        assert cpu.instructions_retired > retired + 1


class TestActivation:
    def test_powers_up_halted(self):
        sim, cpu, _ = make_cpu("HALT")
        sim.step(10)
        assert cpu.halted
        assert cpu.instructions_retired == 0

    def test_activate_starts_at_zero(self):
        sim, cpu, _ = make_cpu("LDL R1, 5\nHALT")
        cpu.activate()
        sim.run_until(lambda: cpu.halted, max_cycles=100)
        assert cpu.state.regs[1] == 5

    def test_reactivate_after_halt_restarts(self):
        sim, cpu, _ = make_cpu("LDL R1, 5\nHALT")
        cpu.activate()
        sim.run_until(lambda: cpu.halted, max_cycles=100)
        cpu.state.regs[1] = 0
        cpu.activate()
        sim.run_until(lambda: cpu.halted, max_cycles=100)
        assert cpu.state.regs[1] == 5
        assert cpu.instructions_retired == 4

    def test_reset_clears_everything(self):
        sim, cpu, _ = make_cpu("LDL R1, 5\nHALT")
        cpu.activate()
        sim.step(3)
        sim.reset()
        assert cpu.halted
        assert cpu.cycles_active == 0
        assert cpu.state.regs[1] == 0


class TestDecodeErrors:
    def test_bad_word_names_core_and_pc(self):
        bus = LocalBus()
        bus.load([isa.encode(isa.Instruction(isa.spec("NOP"))), 0xBF00])
        cpu = R8Cpu("proc7", bus)
        sim = Simulator()
        sim.add(cpu)
        cpu.activate()
        with pytest.raises(isa.DecodeError) as info:
            sim.step(10)
        assert str(info.value) == (
            "proc7 at 0x0001: bad RR sub-opcode 0xf in word 0xbf00"
        )
