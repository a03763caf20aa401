"""R8 arithmetic-logic unit with N/Z/C/V flag semantics.

Called from the instruction table in :mod:`repro.r8.semantics`, which
both processor models (the cycle-accurate :class:`~repro.r8.cpu.R8Cpu`
and the functional :class:`~repro.r8.simulator.R8Simulator`) execute.
"""

from __future__ import annotations

from dataclasses import dataclass

MASK16 = 0xFFFF
SIGN16 = 0x8000


@dataclass
class Flags:
    """The four R8 status flags."""

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False

    def copy(self) -> "Flags":
        return Flags(self.n, self.z, self.c, self.v)

    def as_tuple(self):
        return (self.n, self.z, self.c, self.v)

    def __str__(self) -> str:  # pragma: no cover - debug aid
        return "".join(
            ch if val else "-"
            for ch, val in zip("nzcv", (self.n, self.z, self.c, self.v))
        )


def _set_nz(flags: Flags, result: int) -> None:
    flags.n = bool(result & SIGN16)
    flags.z = result == 0


def add(a: int, b: int, flags: Flags, carry_in: int = 0) -> int:
    """16-bit addition; sets all four flags."""
    raw = a + b + carry_in
    result = raw & MASK16
    flags.c = raw > MASK16
    # Signed overflow: operands share a sign the result lacks.
    flags.v = bool(~(a ^ b) & (a ^ result) & SIGN16)
    _set_nz(flags, result)
    return result


def sub(a: int, b: int, flags: Flags, borrow_in: int = 0) -> int:
    """16-bit subtraction; C holds the *borrow* (1 when a < b + borrow)."""
    raw = a - b - borrow_in
    result = raw & MASK16
    flags.c = raw < 0
    flags.v = bool((a ^ b) & (a ^ result) & SIGN16)
    _set_nz(flags, result)
    return result


def logic_and(a: int, b: int, flags: Flags) -> int:
    result = a & b
    _set_nz(flags, result)
    return result


def logic_or(a: int, b: int, flags: Flags) -> int:
    result = a | b
    _set_nz(flags, result)
    return result


def logic_xor(a: int, b: int, flags: Flags) -> int:
    result = a ^ b
    _set_nz(flags, result)
    return result


def logic_not(a: int, flags: Flags) -> int:
    result = (~a) & MASK16
    _set_nz(flags, result)
    return result


def shift_left(a: int, fill: int, flags: Flags) -> int:
    """Shift left one bit, inserting *fill*; C gets the shifted-out MSB."""
    flags.c = bool(a & SIGN16)
    result = ((a << 1) | fill) & MASK16
    _set_nz(flags, result)
    return result


def shift_right(a: int, fill: int, flags: Flags) -> int:
    """Shift right one bit, inserting *fill* at the MSB; C gets the old LSB."""
    flags.c = bool(a & 1)
    result = (a >> 1) | (SIGN16 if fill else 0)
    _set_nz(flags, result)
    return result
