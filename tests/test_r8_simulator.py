"""Semantic tests for every R8 instruction on the functional simulator."""

import pytest

from repro.r8 import R8Simulator, SimulatorError, assemble
from repro.r8.state import RESET_SP


def run(source, max_instructions=10_000, scanf=None, memory=None):
    values = list(scanf or [])
    sim = R8Simulator(on_scanf=(lambda: values.pop(0)) if values else None)
    if memory:
        for addr, value in memory.items():
            sim.memory[addr] = value
    sim.load(assemble(source))
    sim.activate()
    sim.run(max_instructions=max_instructions)
    return sim


class TestArithmetic:
    def test_add(self):
        sim = run("LDL R1, 20\nLDL R2, 22\nADD R3, R1, R2\nHALT")
        assert sim.state.regs[3] == 42

    def test_addc_uses_carry(self):
        sim = run(
            "LDI R1, 0xFFFF\nLDL R2, 1\nADD R3, R1, R2\n"  # sets carry
            "CLR R4\nLDL R5, 0\nADDC R6, R4, R5\nHALT"
        )
        # CLR (XOR) clears C? XOR only sets N/Z, so carry survives
        assert sim.state.regs[6] == 1

    def test_sub(self):
        sim = run("LDL R1, 50\nLDL R2, 8\nSUB R3, R1, R2\nHALT")
        assert sim.state.regs[3] == 42

    def test_subc_subtracts_borrow(self):
        sim = run(
            "LDL R1, 3\nLDL R2, 7\nSUB R3, R1, R2\n"  # borrow set
            "LDL R4, 10\nLDL R5, 2\nSUBC R6, R4, R5\nHALT"
        )
        assert sim.state.regs[6] == 7  # 10 - 2 - borrow

    def test_wraparound(self):
        sim = run("LDI R1, 0xFFFF\nLDL R2, 2\nADD R3, R1, R2\nHALT")
        assert sim.state.regs[3] == 1


class TestLogicAndShifts:
    def test_and_or_xor_not(self):
        sim = run(
            "LDI R1, 0xF0F0\nLDI R2, 0xFF00\n"
            "AND R3, R1, R2\nOR R4, R1, R2\nXOR R5, R1, R2\nNOT R6, R1\nHALT"
        )
        assert sim.state.regs[3] == 0xF000
        assert sim.state.regs[4] == 0xFFF0
        assert sim.state.regs[5] == 0x0FF0
        assert sim.state.regs[6] == 0x0F0F

    def test_shifts(self):
        sim = run(
            "LDI R1, 0x8001\n"
            "SL0 R2, R1\nSL1 R3, R1\nSR0 R4, R1\nSR1 R5, R1\nHALT"
        )
        assert sim.state.regs[2] == 0x0002
        assert sim.state.regs[3] == 0x0003
        assert sim.state.regs[4] == 0x4000
        assert sim.state.regs[5] == 0xC000


class TestDataMovement:
    def test_ldl_preserves_high_byte(self):
        sim = run("LDH R1, 0xAB\nLDL R1, 0xCD\nHALT")
        assert sim.state.regs[1] == 0xABCD

    def test_ldh_preserves_low_byte(self):
        sim = run("LDL R1, 0xCD\nLDH R1, 0xAB\nHALT")
        assert sim.state.regs[1] == 0xABCD

    def test_mov(self):
        sim = run("LDL R1, 99\nMOV R2, R1\nHALT")
        assert sim.state.regs[2] == 99

    def test_ld_st_indexed(self):
        sim = run(
            "LDI R1, 0x20\nLDL R2, 4\nLDL R3, 77\n"
            "ST R3, R1, R2\nLD R4, R1, R2\nHALT"
        )
        assert sim.memory[0x24] == 77
        assert sim.state.regs[4] == 77

    def test_mov_preserves_flags(self):
        sim = run(
            "CLR R1\nOR R1, R1, R1\n"  # Z set
            "LDL R2, 5\nMOV R3, R2\nJMPZD ok\nHALT\nok: LDL R4, 1\nHALT"
        )
        assert sim.state.regs[4] == 1


class TestStack:
    def test_push_pop(self):
        sim = run("LDL R1, 11\nLDL R2, 22\nPUSH R1\nPUSH R2\nPOP R3\nPOP R4\nHALT")
        assert sim.state.regs[3] == 22
        assert sim.state.regs[4] == 11
        assert sim.state.sp == RESET_SP

    def test_ldsp_rdsp(self):
        sim = run("LDI R1, 0x300\nLDSP R1\nRDSP R2\nHALT")
        assert sim.state.sp == 0x300
        assert sim.state.regs[2] == 0x300

    def test_stack_grows_down(self):
        sim = run("LDI R1, 0x100\nLDSP R1\nLDL R2, 5\nPUSH R2\nRDSP R3\nHALT")
        assert sim.memory[0x100] == 5
        assert sim.state.regs[3] == 0xFF


class TestControlFlow:
    def test_unconditional_register_jump(self):
        sim = run("LDI R1, target\nJMPR R1\nLDL R2, 1\nHALT\ntarget: HALT")
        assert sim.state.regs[2] == 0  # skipped

    def test_conditional_jumps_taken_and_not(self):
        # Z: 5-5=0 -> taken
        sim = run("LDL R1, 5\nSUB R2, R1, R1\nJMPZD t\nLDL R3, 1\nt: HALT")
        assert sim.state.regs[3] == 0
        # Z not set -> fall through
        sim = run("LDL R1, 5\nLDL R4, 3\nSUB R2, R1, R4\nJMPZD t\nLDL R3, 1\nt: HALT")
        assert sim.state.regs[3] == 1

    def test_negative_flag_jump(self):
        sim = run("LDL R1, 3\nLDL R2, 5\nSUB R3, R1, R2\nJMPND neg\nHALT\nneg: LDL R4, 1\nHALT")
        assert sim.state.regs[4] == 1

    def test_carry_flag_jump(self):
        sim = run("LDL R1, 3\nLDL R2, 5\nSUB R3, R1, R2\nJMPCD c\nHALT\nc: LDL R4, 1\nHALT")
        assert sim.state.regs[4] == 1

    def test_overflow_flag_jump(self):
        sim = run("LDI R1, 0x7FFF\nLDL R2, 1\nADD R3, R1, R2\nJMPVD v\nHALT\nv: LDL R4, 1\nHALT")
        assert sim.state.regs[4] == 1

    def test_conditional_register_jumps(self):
        sim = run(
            "LDI R5, t\nCLR R1\nOR R1, R1, R1\nJMPZR R5\nHALT\nt: LDL R4, 1\nHALT"
        )
        assert sim.state.regs[4] == 1

    def test_jsr_rts(self):
        sim = run(
            "JSRD sub\nLDL R2, 2\nHALT\n"
            "sub: LDL R1, 1\nRTS"
        )
        assert sim.state.regs[1] == 1
        assert sim.state.regs[2] == 2
        assert sim.state.sp == RESET_SP

    def test_jsrr(self):
        sim = run("LDI R5, sub\nJSRR R5\nHALT\nsub: LDL R1, 9\nRTS")
        assert sim.state.regs[1] == 9

    def test_nested_calls(self):
        sim = run(
            "JSRD a\nHALT\n"
            "a: JSRD b\nLDL R1, 1\nRTS\n"
            "b: LDL R2, 2\nRTS"
        )
        assert (sim.state.regs[1], sim.state.regs[2]) == (1, 2)


class TestIO:
    def test_printf_records_value(self):
        sim = run("CLR R0\nLDL R1, 42\nLDI R2, 0xFFFF\nST R1, R2, R0\nHALT")
        assert sim.printed == [42]

    def test_scanf_returns_hook_value(self):
        sim = run(
            "CLR R0\nLDI R2, 0xFFFF\nLD R1, R2, R0\nHALT", scanf=[123]
        )
        assert sim.state.regs[1] == 123

    def test_scanf_without_hook_raises(self):
        with pytest.raises(SimulatorError):
            run("CLR R0\nLDI R2, 0xFFFF\nLD R1, R2, R0\nHALT")

    def test_wait_notify_rejected_single_core(self):
        with pytest.raises(SimulatorError):
            run("CLR R0\nLDL R1, 2\nLDI R2, 0xFFFE\nST R1, R2, R0\nHALT")


class TestExecutionControl:
    def test_starts_halted_until_activate(self):
        sim = R8Simulator()
        assert sim.step() is None

    def test_runaway_detected(self):
        with pytest.raises(SimulatorError):
            run("loop: JMPD loop", max_instructions=100)

    def test_breakpoint_stops_run(self):
        sim = R8Simulator()
        obj = assemble("NOP\nNOP\nbp: NOP\nHALT")
        sim.load(obj)
        sim.breakpoints.add(obj.symbols["bp"])
        sim.activate()
        sim.run()
        assert sim.state.pc == obj.symbols["bp"]
        assert not sim.state.halted

    def test_watchpoint_records_accesses(self):
        sim = R8Simulator()
        sim.load(assemble("CLR R0\nLDL R1, 7\nLDI R2, 0x30\nST R1, R2, R0\nLD R3, R2, R0\nHALT"))
        sim.watchpoints.add(0x30)
        sim.activate()
        sim.run()
        kinds = [kind for kind, *_ in sim.watch_hits]
        assert kinds == ["write", "read"]

    def test_watchpoint_records_post_fetch_pc_for_calls(self):
        # The JSR write and the RTS read both record the PC that follows
        # the instruction, never the jump target or the return address.
        sim = R8Simulator()
        sim.load(assemble("LDH R1, #0\nLDL R1, #0\nJSRD sub\nHALT\nsub: RTS"))
        sim.watchpoints.add(0x3FF)
        sim.activate()
        sim.run()
        assert sim.watch_hits == [("write", 1023, 3, 3), ("read", 1023, 3, 5)]

    def test_trace_records_instructions(self):
        sim = R8Simulator()
        sim.load(assemble("NOP\nHALT"))
        sim.trace_enabled = True
        sim.activate()
        sim.run()
        assert [t.text for t in sim.trace] == ["NOP", "HALT"]

    def test_cpi_between_2_and_4(self):
        sim = run(
            "CLR R0\nLDI R6, 0x80\nLDL R2, 3\n"
            "ADD R3, R2, R2\nST R3, R6, R0\nLD R4, R6, R0\n"
            "PUSH R4\nPOP R5\nJSRD s\nHALT\ns: RTS"
        )
        assert 2.0 <= sim.cpi() <= 4.0

    def test_mnemonic_counts(self):
        sim = run("NOP\nNOP\nHALT")
        assert sim.mnemonic_counts == {"NOP": 2, "HALT": 1}

    def test_dump_helpers(self):
        sim = run("CLR R0\nLDL R1, 9\nLDI R2, 0x40\nST R1, R2, R0\nHALT")
        assert sim.dump_memory(0x40, 1) == [9]
        regs = sim.dump_registers()
        assert regs["R1"] == 9
        assert "PC" in regs and "SP" in regs

    def test_invalid_instruction_raises(self):
        sim = R8Simulator()
        sim.memory[0] = 0xBF00  # invalid RR sub-opcode
        sim.activate()
        with pytest.raises(SimulatorError):
            sim.step()

    def test_out_of_range_memory_access_raises(self):
        with pytest.raises(SimulatorError):
            run("CLR R0\nLDI R2, 0x500\nLD R1, R2, R0\nHALT")
