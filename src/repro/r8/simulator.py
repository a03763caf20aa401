"""The stand-alone R8 Simulator.

The paper's flow starts with "Simulate the Assembly Code: The R8
Simulator environment allows writing, simulating and debugging assembly
code, generating automatically the object code".  This module is that
tool: a fast functional instruction-set simulator with cycle accounting
(using the same CPI table as the hardware model), printf/scanf hooks and
debugging facilities (breakpoints, watchpoints, single-step, tracing).

As the paper notes, the original tool "is not able to simulate a
multiprocessed application" — for that, use the full
:class:`repro.system.MultiNoC` model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from . import isa, semantics
from .alu import MASK16
from .disassembler import format_instruction
from .state import R8State

#: Memory-mapped addresses implemented by the Processor IP control logic
#: (paper Section 2.4).  The stand-alone simulator honours the I/O address
#: so single-processor programs with printf/scanf run unmodified; wait and
#: notify need the real multiprocessor system.
IO_ADDRESS = 0xFFFF
WAIT_ADDRESS = 0xFFFE
NOTIFY_ADDRESS = 0xFFFD


class SimulatorError(Exception):
    """Raised on invalid execution (bad opcode, unmapped access...)."""


@dataclass
class ExecutionTrace:
    """One retired instruction, for the debugger's trace window."""

    pc: int
    text: str
    state_after: str


class R8Simulator:
    """Functional R8 simulator with debugging support.

    Parameters
    ----------
    memory_words:
        Local memory size (1K 16-bit words on MultiNoC).
    on_printf / on_scanf:
        I/O hooks: a store to FFFF calls ``on_printf(value)``; a load from
        FFFF returns ``on_scanf()``.
    """

    def __init__(
        self,
        memory_words: int = 1024,
        on_printf: Optional[Callable[[int], None]] = None,
        on_scanf: Optional[Callable[[], int]] = None,
    ):
        self.memory: List[int] = [0] * memory_words
        self.memory_words = memory_words
        self.state = R8State()
        self.cycles = 0
        self.instructions = 0
        self.on_printf = on_printf
        self.on_scanf = on_scanf
        self.printed: List[int] = []
        self.breakpoints: Set[int] = set()
        self.watchpoints: Set[int] = set()
        self.watch_hits: List[tuple] = []
        self.trace_enabled = False
        self.trace: List[ExecutionTrace] = []
        self.mnemonic_counts: Dict[str, int] = {}

    # -- program loading -----------------------------------------------------

    def load(self, obj_or_words, base: int = 0) -> None:
        """Load an :class:`~repro.r8.assembler.ObjectCode` or word list."""
        if hasattr(obj_or_words, "word_records"):
            for addr, word in obj_or_words.word_records():
                self._check_addr(addr)
                self.memory[addr] = word & MASK16
        else:
            for i, word in enumerate(obj_or_words):
                self._check_addr(base + i)
                self.memory[base + i] = word & MASK16

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.memory_words:
            raise SimulatorError(
                f"address {addr:#06x} outside the {self.memory_words}-word memory"
            )

    # -- memory access with I/O mapping -----------------------------------------

    def _read(self, addr: int, pc: int) -> int:
        if addr == IO_ADDRESS:
            if self.on_scanf is None:
                raise SimulatorError("scanf executed but no on_scanf hook set")
            return self.on_scanf() & MASK16
        if addr in (WAIT_ADDRESS, NOTIFY_ADDRESS):
            raise SimulatorError(
                "wait/notify need the multiprocessor system "
                "(repro.system.MultiNoC); the R8 Simulator is single-core"
            )
        self._check_addr(addr)
        if addr in self.watchpoints:
            self.watch_hits.append(("read", addr, self.memory[addr], pc))
        return self.memory[addr]

    def _write(self, addr: int, value: int, pc: int) -> None:
        if addr == IO_ADDRESS:
            value &= MASK16
            self.printed.append(value)
            if self.on_printf is not None:
                self.on_printf(value)
            return
        if addr in (WAIT_ADDRESS, NOTIFY_ADDRESS):
            raise SimulatorError(
                "wait/notify need the multiprocessor system "
                "(repro.system.MultiNoC); the R8 Simulator is single-core"
            )
        self._check_addr(addr)
        if addr in self.watchpoints:
            self.watch_hits.append(("write", addr, value & MASK16, pc))
        self.memory[addr] = value & MASK16

    # -- execution ----------------------------------------------------------------

    def activate(self) -> None:
        """Start execution at address 0, like the activate-processor packet."""
        self.state.activate()

    def step(self) -> Optional[isa.Instruction]:
        """Execute one instruction; returns it (or None when halted)."""
        if self.state.halted:
            return None
        pc = self.state.pc
        self._check_addr(pc)
        word = self.memory[pc]
        try:
            instr = isa.decode(word)
        except isa.DecodeError as exc:
            raise SimulatorError(f"at {pc:#06x}: {exc}") from exc
        next_pc = (pc + 1) & MASK16
        self.state.pc = next_pc
        access = semantics.EXECUTE[instr.spec.mnemonic](self.state, instr)
        # Watch hits record the post-fetch PC, not a JSR's jump target.
        if isinstance(access, int):
            value = self._read(access, next_pc)
            semantics.finish_load(self.state, instr, value)
        elif access is not None:
            self._write(*access, next_pc)
        self.cycles += instr.spec.cycles
        self.instructions += 1
        name = instr.mnemonic
        self.mnemonic_counts[name] = self.mnemonic_counts.get(name, 0) + 1
        if self.trace_enabled:
            self.trace.append(
                ExecutionTrace(pc, format_instruction(instr), str(self.state))
            )
        return instr

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until HALT or a breakpoint; returns instructions executed.

        Raises :class:`SimulatorError` if the budget is exhausted, which
        catches runaway programs in tests.
        """
        executed = 0
        while not self.state.halted:
            if executed >= max_instructions:
                raise SimulatorError(
                    f"program did not halt within {max_instructions} instructions"
                )
            self.step()
            executed += 1
            if self.state.pc in self.breakpoints and not self.state.halted:
                break
        return executed

    def cpi(self) -> float:
        """Average clocks per instruction so far (paper: between 2 and 4)."""
        if self.instructions == 0:
            return 0.0
        return self.cycles / self.instructions

    # -- debugging views ---------------------------------------------------------

    def dump_memory(self, start: int, count: int) -> List[int]:
        self._check_addr(start)
        self._check_addr(start + count - 1)
        return self.memory[start : start + count]

    def dump_registers(self) -> Dict[str, int]:
        out = {f"R{i}": v for i, v in enumerate(self.state.regs)}
        out["PC"] = self.state.pc
        out["SP"] = self.state.sp
        return out
