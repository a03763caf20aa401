"""Cycle-accurate multicycle model of the R8 soft core.

The core is a classic multicycle FSM ("CPI (Clocks Per Instruction)
between 2 and 4", paper Section 2.4):

=============  ====================================  ===
instructions   states                                CPI
=============  ====================================  ===
ALU, moves,    FETCH, EXEC                            2
jumps, NOP
ST, PUSH,      FETCH, EXEC, WRITE                     3
JSRR, JSRD
LD, POP, RTS   FETCH, EXEC, MEM, MEM(latch)           4
=============  ====================================  ===

What each instruction does comes from :data:`repro.r8.semantics.EXECUTE`,
the table the functional simulator runs too; this module adds only the
timing.  EXEC applies the instruction's entry and issues the memory
access it returns as a bus transaction, which MEM (loads) or WRITE
(stores) waits for.

A data access that the environment cannot complete immediately (remote
memory, I/O, wait/notify — anything crossing the NoC) leaves its
:class:`~repro.r8.bus.Transaction` pending, and the core simply stays in
its MEM/WRITE state: that *is* the ``waitR8`` stall of Figure 5.

Idle loops
----------
A core polling a flag (``poll: LDI / LD / OR / JMPZD poll``) repeats
one iteration exactly until something outside the core writes its
memory.  The core recognises such a loop at a taken backward branch:
when the architectural state at the loop head (registers, flags, SP,
PC) equals its value one iteration earlier, and that iteration made no
store and no load that did not complete locally at once, the next
iteration is captured cycle by cycle (:class:`IdleLoop`).  From then on
the core reports :attr:`R8Cpu.loop_ready` each time it is back at the
head, which lets its Processor IP sleep there; :meth:`R8Cpu.replay_loop`
later restores the exact lock-step state *n* cycles on and credits the
counters and PC samples those cycles would have accumulated.  The
enclosing IP forgets the loop (:meth:`R8Cpu.forget_loop`) whenever
something outside the core changes what the loop could observe.

Between kernel steps a sleeping core's state lags lock-step.  Every
public read of it -- :attr:`R8Cpu.state`, the performance counters,
:attr:`R8Cpu.progress`, :attr:`R8Cpu.fsm_state` and the PC-sample flush --
first settles the core's scheduling unit to the current cycle
(:meth:`~repro.sim.kernel.Simulator.settle`), so it returns exactly the
lock-step value.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from ..sim import Component
from . import isa
from .alu import MASK16
from .bus import MemoryBus, Transaction
from .semantics import EXECUTE, finish_load
from .state import R8State

S_HALT = 0
S_FETCH = 1
S_EXEC = 2
S_MEM = 3
S_WRITE = 4

_STATE_NAMES = {
    S_HALT: "HALT",
    S_FETCH: "FETCH",
    S_EXEC: "EXEC",
    S_MEM: "MEM",
    S_WRITE: "WRITE",
}


class IdleLoop:
    """One captured iteration of a side-effect-free loop.

    Built from one ``(micro-state, PC-sample bucket, retired)`` entry
    per cycle of the iteration.  ``phases[k]`` is the core's complete
    micro-state *k* cycles after the loop head (phase 0 is the head
    itself): FSM state, instruction, transaction, MEM settle count,
    registers, flags, PC, SP and sampled PC.  ``keys[k]`` is the
    PC-sample bucket the eval at phase *k* charges and ``retired_at[k]``
    the instructions retired since the head; ``counts`` and ``retired``
    total them over one period.
    """

    __slots__ = ("phases", "keys", "retired_at", "counts", "retired")

    def __init__(self, entries: List[tuple], retired: int):
        self.phases, self.keys, self.retired_at = map(list, zip(*entries))
        self.counts = Counter(self.keys)
        self.retired = retired


class R8Cpu(Component):
    """One R8 core attached to a :class:`~repro.r8.bus.MemoryBus`.

    The core powers up halted; :meth:`activate` (driven by the "activate
    processor" packet service) starts execution at address 0.
    """

    def __init__(self, name: str, bus: MemoryBus):
        super().__init__(name)
        self.bus = bus
        self._st = R8State()
        self._fsm = S_HALT
        self._instr: Optional[isa.Instruction] = None
        self._txn: Optional[Transaction] = None
        self._mem_settle = 0
        #: externally forced stall (the "wait" *packet* service): while
        #: True the core idles at its next fetch boundary.
        self.paused = False
        # performance counters (read through the settling properties)
        self._active = 0
        self._stalled = 0
        self._retired = 0
        #: optional TelemetrySink; one None-check per active cycle
        self.sink = None
        self._now = 0
        self._burst_start: Optional[int] = None
        self._burst_base = 0
        self._stall_start: Optional[int] = None
        #: optional PC sampling: ``(call_stack, pc) -> cycles`` when
        #: enabled, ``None`` otherwise (one None-check per active cycle).
        #: ``call_stack`` is the tuple of call-site PCs of the JSR chain
        #: currently live, so samples fold into real flame-graph stacks.
        self.pc_samples: Optional[dict] = None
        self._cur_pc = 0
        self._call_key: tuple = ()
        # idle-loop detection (see the module docstring): the state at
        # the last taken backward branch, the counters then, the
        # iteration being captured, the captured loop, the
        # ``_active`` value at the last head visit of that loop, and the
        # phase a sleeping replay has reached
        self._lregs: Optional[list] = None
        self._lkey: Optional[tuple] = None
        self._lmark = (0, 0)
        self._lcap: Optional[list] = None
        self._loop: Optional[IdleLoop] = None
        self._lready = -1
        self._lphase = 0

    # -- settled reads -------------------------------------------------------

    @property
    def state(self) -> R8State:
        """Registers, PC, SP and flags, settled to the current cycle."""
        self.settle()
        return self._st

    @property
    def cycles_active(self) -> int:
        self.settle()
        return self._active

    @property
    def cycles_stalled(self) -> int:
        self.settle()
        return self._stalled

    @property
    def instructions_retired(self) -> int:
        self.settle()
        return self._retired

    # -- control ------------------------------------------------------------

    def activate(self) -> None:
        """Start (or restart) execution from local address 0."""
        self.forget_loop()
        self._st.activate()
        self._fsm = S_FETCH
        self._instr = None
        self._txn = None
        if self.pc_samples is not None:
            self._call_key = ()
            self._cur_pc = 0
        self.wake()

    def enable_pc_sampling(self) -> None:
        """Turn on per-PC cycle sampling (the post-mortem profiler feed).

        Every active cycle is charged to ``(call_stack, pc)``; the
        accumulated counts are flushed as ``pcsample`` trace events by
        :meth:`flush_pc_samples`.  Sampling never changes architectural
        behaviour — it only reads the FSM.
        """
        if self.pc_samples is None:
            # a loop captured before sampling has stale sample buckets
            self.forget_loop()
            self.pc_samples = {}

    def flush_pc_samples(self) -> int:
        """Emit accumulated PC samples as ``pcsample`` instants and clear.

        Returns the number of distinct ``(stack, pc)`` buckets flushed.
        No-op (returning 0) when sampling is disabled or no sink is
        attached.
        """
        if self.pc_samples is None or self.sink is None:
            return 0
        self.settle()
        if not self.pc_samples:
            return 0
        buckets = sorted(self.pc_samples.items())
        for (stack, pc), cycles in buckets:
            self.sink.instant(
                self.name,
                "pcsample",
                self._now,
                stack=list(stack),
                pc=pc,
                cycles=cycles,
            )
        self.pc_samples = {}
        return len(buckets)

    @property
    def halted(self) -> bool:
        return self._fsm == S_HALT

    @property
    def stalled(self) -> bool:
        """True while a pending bus transaction is blocking the core."""
        return (
            self._txn is not None
            and not self._txn.done
            and self._fsm in (S_MEM, S_WRITE)
            and self._mem_settle == 0
        )

    @property
    def sleepable(self) -> bool:
        """True when the kernel may skip the core's evals: halted,
        paused at a fetch boundary (the "wait" service) or stalled on a
        bus transaction that only an external event can complete (the
        next eval cannot change core state; skipped cycles are
        re-credited through :meth:`credit_idle_cycles`), or at the head
        of a captured idle loop (:attr:`loop_ready`; skipped cycles are
        replayed by :meth:`replay_loop`).  Used by the enclosing IP's
        quiescence predicate."""
        if self._fsm == S_HALT:
            return True
        if self._fsm == S_FETCH:
            return self.paused or self.loop_ready
        return self.stalled

    @property
    def loop_ready(self) -> bool:
        """True right after the core reached the head of a captured idle
        loop: from here :meth:`replay_loop` can stand in for its evals."""
        return self._lready == self._active and self._loop is not None

    def credit_idle_cycles(self, n: int) -> None:
        """Account *n* kernel-skipped idle evals exactly as lock-step
        evaluation would have: a halted core counts nothing; a paused or
        stalled core accrues active+stalled cycles and PC samples."""
        if n <= 0 or self._fsm == S_HALT:
            return
        self._active += n
        self._stalled += n
        if self.sink is not None:
            self._now += n
        if self.pc_samples is not None:
            pc = self._st.pc if self._fsm == S_FETCH else self._cur_pc
            key = (self._call_key, pc)
            self.pc_samples[key] = self.pc_samples.get(key, 0) + n

    def replay_loop(self, n: int) -> None:
        """Advance a core sleeping in its idle loop by *n* cycles.

        Restores the micro-state lock-step evaluation would have reached
        (phase ``(phase + n) mod period`` of the captured iteration) and
        credits active cycles, retired instructions and PC samples.  The
        loop stays captured, so the kernel may settle the same sleep
        several times.
        """
        if n <= 0:
            return
        loop = self._loop
        phases = loop.phases
        p = self._lphase
        full, q = divmod(p + n, len(phases))
        self._active += n
        retired_at = loop.retired_at
        self._retired += full * loop.retired + retired_at[q] - retired_at[p]
        if self.sink is not None:
            self._now += n
        samples = self.pc_samples
        if samples is not None:
            keys = loop.keys
            if full:
                for key in keys[p:] + keys[:q]:
                    samples[key] = samples.get(key, 0) + 1
                for key, count in loop.counts.items():
                    samples[key] = samples.get(key, 0) + (full - 1) * count
            else:
                for key in keys[p:q]:
                    samples[key] = samples.get(key, 0) + 1
        (self._fsm, self._instr, self._txn, self._mem_settle, regs, flags,
         pc, sp, self._cur_pc) = phases[q]
        st = self._st
        st.regs[:] = regs
        st.flags.n, st.flags.z, st.flags.c, st.flags.v = flags
        st.pc = pc
        st.sp = sp
        self._lphase = q

    def forget_loop(self) -> None:
        """Drop any detected or captured idle loop: something outside
        the core changed what the loop could observe.  A core sleeping
        in its loop is settled to the current cycle and woken first."""
        self.settle()
        self.wake()
        self._lkey = None
        self._lcap = None
        self._loop = None
        self._lphase = 0

    @property
    def fsm_state(self) -> str:
        self.settle()
        return _STATE_NAMES[self._fsm]

    @property
    def progress(self) -> tuple:
        """(pc, instructions retired) — changes iff the core advances.

        The CPU stall watchdog compares successive readings: an active
        core whose progress tuple stays frozen is wedged (a never-answered
        scanf, a lost read return, a wait with no notify...).
        """
        self.settle()
        return (self._st.pc, self._retired)

    def cpi(self) -> float:
        """Measured clocks per instruction since reset."""
        retired = self.instructions_retired
        if retired == 0:
            return 0.0
        return self._active / retired

    # -- simulation -----------------------------------------------------------

    def reset(self) -> None:
        self.forget_loop()
        super().reset()
        self._st.reset()
        self._fsm = S_HALT
        self._instr = None
        self._txn = None
        self._mem_settle = 0
        self.paused = False
        self._active = 0
        self._stalled = 0
        self._retired = 0
        self._burst_start = None
        self._stall_start = None
        if self.pc_samples is not None:
            self.pc_samples = {}
        self._call_key = ()
        self._cur_pc = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        st = self._st
        txn = self._txn
        return {
            "regs": list(st.regs),
            "pc": st.pc,
            "sp": st.sp,
            "flags": list(st.flags.as_tuple()),
            "halted": st.halted,
            "fsm": self._fsm,
            "instr": None if self._instr is None else isa.encode(self._instr),
            "txn": (
                None
                if txn is None
                else [txn.is_write, txn.addr, txn.value, txn.done]
            ),
            "mem_settle": self._mem_settle,
            "paused": self.paused,
            "cycles_active": self._active,
            "cycles_stalled": self._stalled,
            "instructions_retired": self._retired,
            "now": self._now,
            "burst_start": self._burst_start,
            "burst_base": self._burst_base,
            "stall_start": self._stall_start,
            "pc_samples": (
                None
                if self.pc_samples is None
                else [
                    [list(stack), pc, n]
                    for (stack, pc), n in sorted(self.pc_samples.items())
                ]
            ),
            "cur_pc": self._cur_pc,
            "call_key": list(self._call_key),
        }

    def restore_state(self, state: dict) -> None:
        self.forget_loop()
        st = self._st
        st.regs[:] = state["regs"]
        st.pc = state["pc"]
        st.sp = state["sp"]
        n, z, c, v = state["flags"]
        st.flags.n, st.flags.z, st.flags.c, st.flags.v = n, z, c, v
        st.halted = state["halted"]
        self._fsm = state["fsm"]
        instr = state["instr"]
        self._instr = None if instr is None else isa.decode(instr)
        txn = state["txn"]
        if txn is None:
            self._txn = None
        else:
            is_write, addr, value, done = txn
            t = Transaction(is_write, addr, value)
            t.done = done
            self._txn = t
        self._mem_settle = state["mem_settle"]
        self.paused = state["paused"]
        self._active = state["cycles_active"]
        self._stalled = state["cycles_stalled"]
        self._retired = state["instructions_retired"]
        self._now = state["now"]
        self._burst_start = state["burst_start"]
        self._burst_base = state["burst_base"]
        self._stall_start = state["stall_start"]
        samples = state["pc_samples"]
        if samples is None:
            self.pc_samples = None
        else:
            self.pc_samples = {
                (tuple(stack), pc): n for stack, pc, n in samples
            }
        self._cur_pc = state["cur_pc"]
        self._call_key = tuple(state["call_key"])

    def eval(self, cycle: int) -> None:
        if self._fsm == S_HALT:
            return
        if self._lcap is not None:
            self._capture_phase()
        self._active += 1
        if self.sink is not None:
            self._telemetry_tick(cycle)
        if self.pc_samples is not None:
            # FETCH cycles (and pause-at-fetch stalls) belong to the
            # instruction about to be fetched; later FSM states to the
            # instruction fetched earlier.
            pc = self._st.pc if self._fsm == S_FETCH else self._cur_pc
            key = (self._call_key, pc)
            self.pc_samples[key] = self.pc_samples.get(key, 0) + 1
        if self._fsm == S_FETCH:
            if self.paused:
                self._stalled += 1
                return
            self._do_fetch()
        elif self._fsm == S_EXEC:
            self._do_exec()
        elif self._fsm == S_MEM:
            self._do_mem()
        elif self._fsm == S_WRITE:
            self._do_write()

    # -- FSM states --------------------------------------------------------------

    def _do_fetch(self) -> None:
        if self.pc_samples is not None:
            self._cur_pc = self._st.pc
        pc = self._st.pc
        word = self.bus.fetch(pc)
        try:
            self._instr = isa.decode(word)
        except isa.DecodeError as exc:
            raise isa.DecodeError(f"{self.name} at {pc:#06x}: {exc}") from exc
        self._st.pc = (pc + 1) & MASK16
        self._fsm = S_EXEC

    def _retire(self, next_state: int = S_FETCH) -> None:
        self._retired += 1
        self._instr = None
        self._txn = None
        self._fsm = next_state
        if next_state == S_HALT and self.sink is not None:
            self._end_burst()

    # -- telemetry (all under a single `if self.sink` in eval) ---------------

    def _telemetry_tick(self, cycle: int) -> None:
        """Track execution bursts and stall spans; runs once per active
        cycle, only while a sink is attached."""
        self._now = cycle
        if self._burst_start is None:
            self._burst_start = cycle
            self._burst_base = self._retired
            self.sink.instant(self.name, "activate", cycle)
        stalled = self.stalled or (self.paused and self._fsm == S_FETCH)
        if stalled:
            if self._stall_start is None:
                self._stall_start = cycle
        elif self._stall_start is not None:
            self.sink.complete(
                self.name,
                "stall",
                self._stall_start,
                cycle - self._stall_start,
            )
            self._stall_start = None

    def _end_burst(self) -> None:
        if self._burst_start is None:
            return
        self.sink.complete(
            self.name,
            "exec",
            self._burst_start,
            self._now + 1 - self._burst_start,
            retired=self._retired - self._burst_base,
        )
        self._burst_start = None

    def _do_exec(self) -> None:
        instr = self._instr
        assert instr is not None
        st = self._st
        next_pc = st.pc
        access = EXECUTE[instr.spec.mnemonic](st, instr)
        if access is None:
            self._retire(S_HALT if st.halted else S_FETCH)
            if st.pc < next_pc:
                self._loop_head()
        elif isinstance(access, int):
            txn = self._txn = self.bus.read(access)
            if not txn.done:
                self._lkey = None  # a load crossing the NoC: not idle
            self._mem_settle = 1
            self._fsm = S_MEM
        else:
            if self.pc_samples is not None and instr.spec.fmt is isa.Fmt.SUBR:
                # JSRR/JSRD: the call site joins the sampled call stack
                self._call_key = self._call_key + (self._cur_pc,)
            self._lkey = None  # a store: not idle
            self._txn = self.bus.write(*access)
            self._fsm = S_WRITE

    # -- idle-loop detection ---------------------------------------------------

    def _loop_head(self) -> None:
        """A taken backward branch just put the core at a loop head.

        A visit records the head state: the registers first (while they
        change, as in a loop doing work, nothing else is compared), then
        PC, SP, flags and the sampled call stack.  A visit that finds the
        same state after a clean iteration (no store and no load that did
        not complete at once: those clear ``_lkey``; a stall needs one of
        them, or a wait packet, which makes the IP forget the loop)
        starts capturing the next iteration, and the visit that ends the
        capture arms the loop.  Any other visit starts over from this
        head.
        """
        st = self._st
        if st.regs != self._lregs:
            # the common case in a loop doing work: nothing to compare
            self._lregs = st.regs[:]
            self._lkey = self._lcap = self._loop = None
            return
        key = (st.pc, st.sp, st.flags.as_tuple(), self._call_key)
        mark = (self._active, self._retired)
        last = self._lmark
        self._lmark = mark
        if key != self._lkey:
            self._lkey = key
            self._lcap = self._loop = None
            return
        period = mark[0] - last[0]
        loop = self._loop
        if loop is not None:
            if len(loop.phases) == period:
                self._lready = mark[0]
                self._lphase = 0
                return
        elif self._lcap is None:
            self._lcap = []
            return
        elif len(self._lcap) == period:
            self._loop = IdleLoop(self._lcap, mark[1] - last[1])
            self._lcap = None
            self._lready = mark[0]
            self._lphase = 0
            return
        # the iteration did not repeat the captured one: start over
        self._lcap = None
        self._loop = None

    def _capture_phase(self) -> None:
        """Record the micro-state this eval starts from (one phase of the
        iteration being captured), the PC-sample bucket it charges and
        the instructions retired since the head (see :class:`IdleLoop`)."""
        st = self._st
        fsm = self._fsm
        flags = st.flags
        self._lcap.append((
            (
                fsm, self._instr, self._txn, self._mem_settle,
                tuple(st.regs), (flags.n, flags.z, flags.c, flags.v),
                st.pc, st.sp, self._cur_pc,
            ),
            (self._call_key, st.pc if fsm == S_FETCH else self._cur_pc),
            self._retired - self._lmark[1],
        ))

    def _do_mem(self) -> None:
        if self._mem_settle > 0:
            self._mem_settle -= 1
            return
        txn = self._txn
        assert txn is not None
        if not txn.done:
            self._stalled += 1
            return
        instr = self._instr
        assert instr is not None
        finish_load(self._st, instr, txn.value)
        if (
            self.pc_samples is not None
            and self._call_key
            and instr.spec.fmt is isa.Fmt.SUBR
        ):
            # RTS: the call site leaves the sampled call stack
            self._call_key = self._call_key[:-1]
        self._retire()

    def _do_write(self) -> None:
        txn = self._txn
        assert txn is not None
        if not txn.done:
            self._stalled += 1
            return
        self._retire()
