"""Differential testing: the cycle-accurate core versus the functional ISS.

Hypothesis generates random (but safe) programs covering every
instruction group: ALU, moves, memory, the stack, LDSP/RDSP, forward
jumps on every condition and balanced subroutine calls.  Both models
execute them and must finish in identical architectural state with the
ISS's cycle count matching the multicycle FSM.  A fixed program checks
that all 36 instructions agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.r8 import LocalBus, R8Cpu, R8Simulator, assemble, isa
from repro.sim import Simulator

_ALU = ["ADD", "ADDC", "SUB", "SUBC", "AND", "OR", "XOR"]
_RR = ["NOT", "SL0", "SL1", "SR0", "SR1", "MOV"]
_JUMP_D = [s.mnemonic for s in isa.SPECS.values() if s.fmt == isa.Fmt.JD]
_JUMP_R = [s.mnemonic for s in isa.SPECS.values() if s.fmt == isa.Fmt.JR]

reg = st.integers(0, 13)  # R12/R13 also address the jump/memory blocks
low_reg = st.integers(0, 11)  # never clobbers R12/R13 inside a block
imm = st.integers(0, 255)


def _enc(mnemonic, **fields):
    return isa.encode(isa.Instruction(isa.spec(mnemonic), **fields))


def _load16(rt, value):
    return [_enc("LDH", rt=rt, imm=value >> 8), _enc("LDL", rt=rt, imm=value & 0xFF)]


@st.composite
def _plain(draw):
    """One flag-setting or move instruction: no memory, no control flow."""
    kind = draw(st.sampled_from(["alu", "rr", "ri"]))
    if kind == "alu":
        name = draw(st.sampled_from(_ALU))
        return _enc(name, rt=draw(reg), rs1=draw(reg), rs2=draw(reg))
    if kind == "rr":
        return _enc(draw(st.sampled_from(_RR)), rt=draw(reg), rs1=draw(reg))
    return _enc(draw(st.sampled_from(["LDL", "LDH"])), rt=draw(reg), imm=draw(imm))


@st.composite
def random_program(draw):
    """A random terminating program ending in HALT.

    Every jump goes forward and every call returns, so each program
    halts; which forward jumps are taken depends on the random flags.
    """
    words = []
    for r in range(8):
        words += _load16(r, draw(st.integers(0, 0xFFFF)))
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(
            st.sampled_from(
                ["plain", "stack", "mem", "jump_d", "jump_r", "call", "sp"]
            )
        )
        if kind == "plain":
            words.append(draw(_plain()))
        elif kind == "stack":
            # balanced push/pop pair keeps SP inside memory
            words.append(_enc("PUSH", rs1=draw(reg)))
            words.append(_enc("POP", rt=draw(reg)))
        elif kind == "mem":
            # access a safe data window above the code
            words += _load16(12, draw(st.integers(0x200, 0x2F0)))
            words += _load16(13, draw(st.integers(0, 15)))
            if draw(st.booleans()):
                words.append(_enc("ST", rt=draw(reg), rs1=12, rs2=13))
            else:
                words.append(_enc("LD", rt=draw(reg), rs1=12, rs2=13))
        elif kind == "jump_d":
            skipped = draw(st.lists(_plain(), max_size=3))
            words.append(_enc(draw(st.sampled_from(_JUMP_D)), imm=len(skipped)))
            words += skipped
        elif kind == "jump_r":
            skipped = draw(st.lists(_plain(), max_size=3))
            target = len(words) + 3 + len(skipped)
            words += _load16(13, target)
            words.append(_enc(draw(st.sampled_from(_JUMP_R)), rs1=13))
            words += skipped
        elif kind == "call":
            # JSR sub / JMPD over / sub: body; RTS / over:
            body = draw(st.lists(_plain(), max_size=3))
            if draw(st.booleans()):
                words.append(_enc("JSRD", imm=1))
            else:
                words += _load16(13, len(words) + 4)
                words.append(_enc("JSRR", rs1=13))
            words.append(_enc("JMPD", imm=len(body) + 1))
            words += body
            words.append(_enc("RTS"))
        else:
            # move the stack into 0x300..0x3F0, use it, read SP, restore it
            words.append(_enc("RDSP", rt=12))
            words += _load16(13, draw(st.integers(0x300, 0x3F0)))
            words.append(_enc("LDSP", rs1=13))
            if draw(st.booleans()):
                words.append(_enc("PUSH", rs1=draw(reg)))
                words.append(_enc("POP", rt=draw(low_reg)))
            words.append(_enc("RDSP", rt=draw(low_reg)))
            words.append(_enc("LDSP", rs1=12))
    words.append(_enc("HALT"))
    return words


def run_both(words):
    iss = R8Simulator()
    iss.load(words)
    iss.activate()
    iss.run(max_instructions=10_000)

    bus = LocalBus()
    bus.load(words)
    cpu = R8Cpu("cpu", bus)
    sim = Simulator()
    sim.add(cpu)
    cpu.activate()
    sim.run_until(lambda: cpu.halted, max_cycles=100_000)
    return iss, cpu, bus


def assert_agree(iss, cpu, bus):
    assert cpu.state.regs == iss.state.regs
    assert cpu.state.pc == iss.state.pc
    assert cpu.state.sp == iss.state.sp
    assert cpu.state.flags.as_tuple() == iss.state.flags.as_tuple()
    assert bus.data == iss.memory
    assert cpu.instructions_retired == iss.instructions
    # the ISS cycle accounting mirrors the multicycle FSM exactly
    assert cpu.cycles_active == iss.cycles


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_cycle_cpu_matches_iss(words):
    assert_agree(*run_both(words))


@settings(max_examples=30, deadline=None)
@given(random_program())
def test_cpi_always_within_paper_bounds(words):
    iss = R8Simulator()
    iss.load(words)
    iss.activate()
    iss.run(max_instructions=10_000)
    assert 2.0 <= iss.cpi() <= 4.0


#: Executes each of the 36 instructions at least once; every conditional
#: jump is set up to be taken past a HALT.
ALL_INSTRUCTIONS = """
        CLR   R0                ; XOR
        LDI   R1, 0x7FFF        ; LDH + LDL
        LDL   R2, 1
        ADD   R3, R1, R2        ; 0x8000: N and V set
        JMPVD v_taken
        HALT
v_taken: JMPND n_taken
        HALT
n_taken: ADDC  R4, R3, R3       ; 0x8000 + 0x8000: carry out
        JMPCD c_taken
        HALT
c_taken: SUB   R5, R2, R2       ; zero
        JMPZD z_taken
        HALT
z_taken: SUBC  R6, R1, R2
        AND   R7, R1, R3
        OR    R8, R1, R3
        NOT   R9, R8
        SL0   R10, R1
        SL1   R10, R10
        SR0   R11, R1
        SR1   R11, R11
        MOV   R12, R11
        JMPD  d_taken
        HALT
d_taken: LDI   R13, r_taken
        JMPR  R13
        HALT
r_taken: LDI   R13, zr_taken
        SUB   R5, R2, R2        ; zero
        JMPZR R13
        HALT
zr_taken: LDI  R13, nr_taken
        SUB   R5, R0, R2        ; 0 - 1: N and borrow set
        JMPNR R13
        HALT
nr_taken: LDI  R13, cr_taken
        JMPCR R13
        HALT
cr_taken: LDI  R13, vr_taken
        ADD   R5, R1, R2        ; signed overflow
        JMPVR R13
        HALT
vr_taken: LDI  R14, 0x300
        ST    R1, R14, R0
        LD    R15, R14, R0
        PUSH  R15
        POP   R2
        RDSP  R3
        LDSP  R14
        PUSH  R1
        RDSP  R4
        POP   R5
        LDSP  R3
        JSRD  sub_d
        LDI   R13, sub_r
        JSRR  R13
        NOP
        HALT
sub_d:  LDI   R6, 0x11
        RTS
sub_r:  LDI   R7, 0x22
        RTS
"""


def test_all_36_instructions_agree():
    words = assemble(ALL_INSTRUCTIONS).memory_image()
    iss, cpu, bus = run_both(words)
    assert set(iss.mnemonic_counts) == set(isa.SPECS)
    assert iss.state.regs[6:8] == [0x11, 0x22]  # both calls returned
    assert_agree(iss, cpu, bus)
