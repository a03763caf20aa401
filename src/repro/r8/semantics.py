"""The one definition of R8 instruction behaviour.

:data:`EXECUTE` maps each of the 36 mnemonics to an entry
``entry(state, instr)`` that applies the instruction's EXEC-state
effects (registers, flags, SP, PC and halt) and returns the data-memory
access the instruction still needs:

* ``None`` -- no memory access;
* ``addr`` -- a load (LD, POP, RTS), completed by :func:`finish_load`;
* ``(addr, value)`` -- a store (ST, PUSH, JSRR, JSRD).

Both processor models dispatch through this table and add only their own
timing: the functional :class:`~repro.r8.simulator.R8Simulator` performs
the access at once, while the cycle-accurate :class:`~repro.r8.cpu.R8Cpu`
issues it as a bus transaction and waits for it in its MEM/WRITE states.

``state.pc`` must already point at the *next* instruction (the hardware
increments PC during fetch), which is what displacement jumps and JSR
return addresses are relative to.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from . import alu, isa
from .alu import MASK16
from .state import R8State

Access = Optional[Union[int, Tuple[int, int]]]
Entry = Callable[[R8State, isa.Instruction], Access]


def finish_load(state: R8State, instr: isa.Instruction, value: int) -> None:
    """Complete a load with the word read: RTS writes PC, LD/POP ``rt``."""
    if instr.spec.mnemonic == "RTS":
        state.pc = value & MASK16
    else:
        state.regs[instr.rt] = value & MASK16


def _rrr(op) -> Entry:
    """``rt <- op(rs1, rs2)``, setting flags."""

    def entry(s, i):
        s.regs[i.rt] = op(s.regs[i.rs1], s.regs[i.rs2], s.flags)

    return entry


def _rrr_carry(op) -> Entry:
    """ADDC/SUBC: like :func:`_rrr`, also consuming the carry flag."""

    def entry(s, i):
        s.regs[i.rt] = op(s.regs[i.rs1], s.regs[i.rs2], s.flags, int(s.flags.c))

    return entry


def _rr(op, *fill) -> Entry:
    """``rt <- op(rs[, fill])`` for NOT and the shifts, setting flags."""

    def entry(s, i):
        s.regs[i.rt] = op(s.regs[i.rs1], *fill, s.flags)

    return entry


def _jump(spec: isa.InstrSpec) -> Entry:
    """A register (JR) or displacement (JD) jump on its condition flag."""
    flag = isa.COND_FLAG[spec.sub]
    by_register = spec.fmt is isa.Fmt.JR

    def entry(s, i):
        if not flag or getattr(s.flags, flag):
            s.pc = s.regs[i.rs1] if by_register else (s.pc + i.disp) & MASK16

    return entry


def _ldl(s, i):
    s.regs[i.rt] = (s.regs[i.rt] & 0xFF00) | i.imm


def _ldh(s, i):
    s.regs[i.rt] = (i.imm << 8) | (s.regs[i.rt] & 0x00FF)


def _mov(s, i):
    s.regs[i.rt] = s.regs[i.rs1]


def _ldsp(s, i):
    s.sp = s.regs[i.rs1]


def _rdsp(s, i):
    s.regs[i.rt] = s.sp


def _ld(s, i):
    return (s.regs[i.rs1] + s.regs[i.rs2]) & MASK16


def _st(s, i):
    return (s.regs[i.rs1] + s.regs[i.rs2]) & MASK16, s.regs[i.rt]


def _push(s, value):
    """Store at SP, then decrement it: the stack grows downward."""
    sp = s.sp
    s.sp = (sp - 1) & MASK16
    return sp, value


def _pop(s, i):
    s.sp = (s.sp + 1) & MASK16
    return s.sp


def _jsrr(s, i):
    access = _push(s, s.pc)
    s.pc = s.regs[i.rs1]
    return access


def _jsrd(s, i):
    access = _push(s, s.pc)
    s.pc = (s.pc + i.disp) & MASK16
    return access


def _halt(s, i):
    s.halted = True


#: mnemonic -> entry.  Keyed by the mnemonic string, which hashes far
#: faster than the frozen ``InstrSpec`` dataclass.
EXECUTE: Dict[str, Entry] = {
    "ADD": _rrr(alu.add),
    "ADDC": _rrr_carry(alu.add),
    "SUB": _rrr(alu.sub),
    "SUBC": _rrr_carry(alu.sub),
    "AND": _rrr(alu.logic_and),
    "OR": _rrr(alu.logic_or),
    "XOR": _rrr(alu.logic_xor),
    "LD": _ld,
    "ST": _st,
    "LDL": _ldl,
    "LDH": _ldh,
    "NOT": _rr(alu.logic_not),
    "SL0": _rr(alu.shift_left, 0),
    "SL1": _rr(alu.shift_left, 1),
    "SR0": _rr(alu.shift_right, 0),
    "SR1": _rr(alu.shift_right, 1),
    "MOV": _mov,
    "PUSH": lambda s, i: _push(s, s.regs[i.rs1]),
    "POP": _pop,
    "LDSP": _ldsp,
    "RDSP": _rdsp,
    **{
        spec.mnemonic: _jump(spec)
        for spec in isa.SPECS.values()
        if spec.fmt in (isa.Fmt.JR, isa.Fmt.JD)
    },
    "JSRR": _jsrr,
    "JSRD": _jsrd,
    "RTS": _pop,
    "NOP": lambda s, i: None,
    "HALT": _halt,
}

assert EXECUTE.keys() == isa.SPECS.keys(), "one entry per instruction"
