"""Architectural state of the R8 processor."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from .alu import Flags

#: Number of general-purpose registers ("16x16 bit register file").
N_REGS = 16

#: Reset value of the stack pointer: top of the 1K-word local memory.
RESET_SP = 0x03FF


@dataclass
class R8State:
    """Registers, PC, SP, flags and halt status of one R8 core."""

    regs: List[int] = field(default_factory=lambda: [0] * N_REGS)
    pc: int = 0
    sp: int = RESET_SP
    flags: Flags = field(default_factory=Flags)
    halted: bool = True  # processors start inactive until "activate"

    def reset(self, sp: int = RESET_SP) -> None:
        self.regs = [0] * N_REGS
        self.pc = 0
        self.sp = sp
        self.flags = Flags()
        self.halted = True

    def activate(self) -> None:
        """Start executing from address 0 (the "activate processor" service)."""
        self.pc = 0
        self.halted = False

    def copy(self) -> "R8State":
        return R8State(
            regs=list(self.regs),
            pc=self.pc,
            sp=self.sp,
            flags=self.flags.copy(),
            halted=self.halted,
        )

    def __str__(self) -> str:  # pragma: no cover - debug aid
        regs = " ".join(f"R{i}={v:04x}" for i, v in enumerate(self.regs))
        return (
            f"PC={self.pc:04x} SP={self.sp:04x} [{self.flags}] "
            f"{'HALT' if self.halted else 'RUN '} {regs}"
        )
