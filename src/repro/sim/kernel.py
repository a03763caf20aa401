"""Cycle-based simulation kernel.

The kernel owns a set of top-level :class:`~repro.sim.component.Component`
instances and advances them with two-phase (evaluate, then commit)
semantics, exactly like synchronous RTL.

Historically every component was evaluated every cycle.  The kernel is
now *quiescence-aware*: at elaboration it flattens the component tree
into schedulable units (components overriding ``eval``), wires input
declarations into per-wire sink lists, and installs a driven-wire queue
so commit touches only wires actually driven that cycle.  A unit that
reports :meth:`~repro.sim.component.Component.is_quiescent` after its
eval is put to sleep until an input wire changes, an external call wakes
it, or a scheduled ``wake_at`` fires.  When *every* unit sleeps, the
kernel fast-forwards ``self.cycle`` straight to the earliest scheduled
wake (or the step/run budget) instead of spinning.

The eval phase walks an *active list*: the awake units, kept in unit
order, so a cycle costs in proportion to the awake units rather than to
the fabric size.  Units woken by a wire commit, the wake heap or
:meth:`Simulator.wake_unit` between eval phases are merged in (by unit
position) before the next one; units that went to sleep are dropped
when it ends.  A wake *during* the eval phase follows the rule of a
scan over every unit in order: a unit after the one being evaluated
runs in the same cycle, one before it runs next cycle, and a unit that
slept earlier in the cycle and is woken again stays listed once.

The results are cycle-exact with respect to the legacy schedule: a
quiescent component's eval is by contract either a no-op or one step of
a replayable periodic loop (an R8 core polling a flag in local memory),
and skipped evals are credited through ``on_wake``, which restores such
a loop's exact state, so per-cycle counters (CPU stall accounting, PC
samples) match bit for bit.  Code that reads a sleeping unit's state
between steps first calls :meth:`Simulator.settle`, which applies the
same credit up to the current cycle without waking the unit; a
snapshot wakes every unit that way first, so it records lock-step
state.  ``Simulator(
strict_lockstep=True)`` keeps the original evaluate-everything loop for
A/B comparison; :meth:`Simulator.step` and
:meth:`Simulator._step_lockstep` are the only two loops.  Host time is
attributed by the sampling
:class:`~repro.telemetry.hostperf.HostPerfProfiler`, which observes this
thread from the side and never alters which loop runs.

Watcher semantics across a fast-forwarded span: plain watchers run once
at the landing cycle (no wire changes during the span, so change-based
tracers/VCD observe nothing, same as lock-step).  The kernel never
fast-forwards past a stride point of a :meth:`Simulator.add_stride_watcher`
observer (health watchdogs, samplers, live frames): it lands there, so
every strided observation happens at a real cycle boundary and reads
settled state.  Skip listeners (:meth:`Simulator.add_skip_listener`)
are told about each span as ``(start, end)``.
"""

from __future__ import annotations

from bisect import insort
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Set, Tuple

from .component import Component, SnapshotError

#: sort key of the active list: a unit's index in the flattened unit list
_POS = attrgetter("_unit_pos")


def _reject_cycles(name: str, value) -> None:
    """Raise for a cycle count that is not a non-negative ``int``."""
    if type(value) is not int:
        raise TypeError(
            f"{name} must be an int, not {type(value).__name__} {value!r}"
        )
    raise ValueError(f"{name} must not be negative, got {value}")


class SimulationTimeout(Exception):
    """Raised when :meth:`Simulator.run_until` exceeds its cycle budget.

    When a :class:`~repro.telemetry.health.HealthMonitor` is attached to
    the simulator, :attr:`diagnostics` carries its full diagnostic dump
    (wait-for graph, FIFO snapshots, last-movement cycle per router) so
    the failure localises itself instead of just naming a cycle count.
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics


class Simulator:
    """Clock driver for a set of components.

    Parameters
    ----------
    clock_hz:
        Nominal clock frequency; only used to convert cycle counts into
        wall-clock figures for reports (the paper's board runs at 25 MHz
        after the clkdll division of the 50 MHz oscillator).
    strict_lockstep:
        When True, keep the legacy evaluate-everything-every-cycle loop
        (recursive eval and commit, no idle skipping).  Architectural
        results are identical either way; the flag exists for A/B
        equivalence tests and as an escape hatch (CLI ``--no-idle-skip``).
    """

    def __init__(
        self, clock_hz: float = 25_000_000.0, strict_lockstep: bool = False
    ):
        self.clock_hz = clock_hz
        self.cycle = 0
        self.strict_lockstep = strict_lockstep
        self._components: List[Component] = []
        self._component_set: Set[Component] = set()
        self._watchers: List[Callable[[int], None]] = []
        self._watcher_set: set = set()
        #: listeners called as fn(start, end) when the kernel
        #: fast-forwards over an idle span (cycles start..end, where the
        #: landing cycle `end` additionally gets a normal watcher call).
        self._skip_listeners: List[Callable[[int, int], None]] = []
        #: fn -> (watcher, stride) installed by add_stride_watcher
        self._stride_watchers: Dict[
            Callable[[int], None], Tuple[Callable, int]
        ] = {}
        #: the strides of those watchers: fast-forward lands on each
        self._strides: List[int] = []
        #: optional HostPerfProfiler (see repro.telemetry.hostperf); set
        #: by HostPerfProfiler.attach().  Purely observational — a side
        #: thread samples this thread's stack, so the kernel never
        #: consults it and keeps whichever execution path it was on.
        self.hostperf = None
        #: optional HealthMonitor (see repro.telemetry.health); set by
        #: HealthMonitor.attach().  Only consulted on the cold timeout
        #: path, so an unmonitored run pays nothing per cycle.
        self.health = None
        #: optional LiveStream (see repro.telemetry.live); set by
        #: LiveStream.attach().  Frame production rides the stride
        #: watchers, so an unobserved run pays nothing per cycle.
        self.live = None
        #: optional CheckpointRing advertised by whoever owns one (the
        #: system debugger); the live plane reads it for frame marks.
        self.checkpoint_ring = None
        # -- quiescence machinery (built lazily by _elaborate) ------------
        self._units: List[Component] = []
        self._unit_set: Set[Component] = set()
        self._n_awake = 0
        #: the awake units in ``_units`` order: the eval phase's work list
        self._active: List[Component] = []
        #: units woken by ``wake_unit`` since the last merge into
        #: ``_active`` (wire commits and the wake heap list theirs
        #: directly: neither runs during the eval phase)
        self._wakeq: List[Component] = []
        #: units whose listing the current eval phase changed behind its
        #: loop: ones that went to sleep, and ones woken before the unit
        #: being evaluated
        self._unsettled: List[Component] = []
        self._wake_heap: list = []  # (cycle, seq, unit)
        self._wake_seq = 0
        self._driven: list = []  # wires driven since the last commit
        self._tracked_wires: list = []
        self._needs_elab = True

    # -- construction ----------------------------------------------------

    def add(self, component: Component) -> Component:
        """Register a top-level component and return it.

        Adding the same component twice is a no-op: double registration
        would evaluate it twice per cycle and corrupt its state.
        """
        if component not in self._component_set:
            self._component_set.add(component)
            self._components.append(component)
            self._needs_elab = True
        return component

    def add_watcher(self, fn: Callable[[int], None]) -> None:
        """Call *fn(cycle)* after every committed cycle (tracing hooks).

        Adding the same function twice is a no-op, like :meth:`add`:
        double registration would run the hook twice per cycle.

        Across a fast-forwarded idle span watchers fire once, at the
        landing cycle; observers that must see particular cycles use
        :meth:`add_stride_watcher`.
        """
        if fn not in self._watcher_set:
            self._watcher_set.add(fn)
            self._watchers.append(fn)

    def remove_watcher(self, fn: Callable[[int], None]) -> None:
        """Detach a watcher added with :meth:`add_watcher`.

        Removing a function that is not registered is a no-op, so
        monitors and exporters can detach unconditionally.
        """
        if fn in self._watcher_set:
            self._watcher_set.discard(fn)
            self._watchers.remove(fn)

    def add_skip_listener(self, fn: Callable[[int, int], None]) -> None:
        """Call *fn(start, end)* whenever the kernel fast-forwards.

        The span covers skipped cycles ``(start, end)`` exclusive of
        *end*: the landing cycle still gets the regular watcher pass, so
        a listener replaying strided work must stop short of *end*.
        """
        if fn not in self._skip_listeners:
            self._skip_listeners.append(fn)

    def remove_skip_listener(self, fn: Callable[[int, int], None]) -> None:
        try:
            self._skip_listeners.remove(fn)
        except ValueError:
            pass

    def add_stride_watcher(
        self, fn: Callable[[int], None], stride: int
    ) -> None:
        """Call *fn(cycle)* at every multiple of *stride* cycles.

        Unlike a plain watcher, the stride cadence survives idle
        fast-forward: the kernel lands on every stride boundary instead
        of skipping it, so the call observes exactly what lock-step
        evaluation would have shown.  Strided observers — samplers, live
        telemetry frames, per-cycle break conditions (stride 1) — use
        this.  Re-adding an already-registered function is a no-op.
        """
        if stride < 1:
            raise ValueError("stride must be at least 1 cycle")
        if fn in self._stride_watchers:
            return

        def on_cycle(cycle: int) -> None:
            if cycle % stride == 0:
                fn(cycle)

        self._stride_watchers[fn] = (on_cycle, stride)
        self._strides.append(stride)
        self.add_watcher(on_cycle)

    def remove_stride_watcher(self, fn: Callable[[int], None]) -> None:
        """Detach an :meth:`add_stride_watcher` hook."""
        pair = self._stride_watchers.pop(fn, None)
        if pair is not None:
            self.remove_watcher(pair[0])
            self._strides.remove(pair[1])

    def invalidate_elaboration(self) -> None:
        """Re-elaborate before the next step (wiring/topology changed)."""
        self._needs_elab = True

    # -- elaboration -----------------------------------------------------

    def _elaborate(self) -> None:
        """Flatten the tree into schedulable units and index the wires.

        A component whose class overrides ``eval`` is a unit (its whole
        subtree evaluates inside that call); default-eval composites are
        descended through, so the flattened unit order exactly matches
        the legacy recursive evaluation order.  Re-elaboration preserves
        units' sleep state (new units start awake).
        """
        self._needs_elab = False
        for w in self._tracked_wires:
            w._queue = None
            w._sinks = ()
        tracked: list = []
        tracked_set: set = set()
        units: List[Component] = []
        self._tracked_wires = tracked
        self._units = units
        if self.strict_lockstep:
            self._unit_set = set()
            self._n_awake = 0
            return
        pending = self._driven
        default_eval = Component.eval
        default_quiescent = Component.is_quiescent

        def walk(comp: Component, unit: Optional[Component]) -> None:
            if unit is None and type(comp).eval is not default_eval:
                unit = comp
                comp._unit_pos = len(units)
                units.append(comp)
                comp._can_sleep = (
                    type(comp).is_quiescent is not default_quiescent
                )
            comp._kernel = self
            comp._sched = unit
            for w in comp._wires:
                if w not in tracked_set:
                    tracked_set.add(w)
                    tracked.append(w)
                    w._queue = pending
            for child in comp._children:
                walk(child, unit)

        for top in self._components:
            walk(top, None)
        self._unit_set = set(units)

        def wire_sinks(comp: Component) -> None:
            unit = comp._sched
            if unit is not None:
                for w in comp._inputs:
                    sinks = w._sinks
                    if sinks == ():
                        w._sinks = [unit]
                        if w not in tracked_set:
                            tracked_set.add(w)
                            tracked.append(w)
                    elif unit not in sinks:
                        sinks.append(unit)
            for child in comp._children:
                wire_sinks(child)

        for top in self._components:
            wire_sinks(top)
        self._n_awake = sum(1 for u in units if u._awake)
        self._relist()

    # -- wake management -------------------------------------------------

    def _relist(self) -> None:
        """Rebuild the active list from the units' awake flags (in
        place: a running :meth:`step` holds a reference to it)."""
        self._active[:] = [u for u in self._units if u._awake]
        self._wakeq.clear()
        self._unsettled.clear()

    def wake_unit(self, unit: Component) -> None:
        """Mark a sleeping unit runnable (external mutation arrived)."""
        if not unit._awake and unit in self._unit_set:
            unit._awake = True
            self._n_awake += 1
            self._wakeq.append(unit)

    def _wake_during_eval(self, current: Component) -> None:
        """Place the units woken while *current* was evaluated.

        Same rule as a scan of every unit in order: a unit after
        *current* is listed now and runs in this cycle (the eval loop
        has not reached it yet, and a list iterator visits items
        inserted after its position); one before it is listed when the
        eval phase ends and runs next cycle.
        """
        active = self._active
        pos = current._unit_pos
        for u in self._wakeq:
            if u._unit_pos > pos:
                insort(active, u, key=_POS)
            else:
                self._unsettled.append(u)
        self._wakeq.clear()

    def settle(self, unit: Component) -> None:
        """Credit *unit*'s skipped evals up to the current cycle, leaving
        it asleep.

        Between steps a sleeping unit's state lags lock-step by the evals
        the kernel skipped; ``on_wake`` applies them (counters, or the
        replayed state of an idle loop) exactly as the next real wake
        would, and the unit's sleep then counts from this cycle.
        Anything that reads unit state between steps calls this first.
        """
        s = unit._slept_since
        if s is not None and self.cycle > s:
            unit._slept_since = self.cycle
            unit.on_wake(self.cycle - s)

    def schedule_wake(self, unit: Component, cycle: int) -> None:
        """Wake *unit* at *cycle* (processed before that cycle's evals)."""
        self._wake_seq += 1
        heappush(self._wake_heap, (cycle, self._wake_seq, unit))

    def _flush_sleep_credits(self) -> None:
        """Wake everything, crediting skipped idle evals (used by
        :meth:`snapshot`, so a checkpoint records lock-step state)."""
        for u in self._units:
            if not u._awake:
                u._awake = True
                self._n_awake += 1
            s = u._slept_since
            if s is not None:
                u._slept_since = None
                if self.cycle > s:
                    u.on_wake(self.cycle - s)
        self._relist()

    # -- execution ---------------------------------------------------------

    def reset(self) -> None:
        """Assert the global reset: all wires/components to initial state."""
        self.cycle = 0
        for c in self._components:
            c.reset()
            for cc in c.iter_components():
                cc._last_wake_req = None
        for w in self._driven:
            w._queued = False
        self._driven.clear()
        self._wake_heap.clear()
        for u in self._units:
            u._awake = True
            u._slept_since = None
        self._n_awake = len(self._units)
        self._relist()

    # -- checkpointing ---------------------------------------------------

    def _flat_units(self) -> List[Component]:
        """The schedulable-unit list in flattened evaluation order,
        computed without touching elaboration state (usable even in
        strict mode, where :meth:`_elaborate` builds no unit list)."""
        default_eval = Component.eval
        out: List[Component] = []

        def walk(comp: Component, inside: bool) -> None:
            if not inside and type(comp).eval is not default_eval:
                out.append(comp)
                inside = True
            for child in comp._children:
                walk(child, inside)

        for top in self._components:
            walk(top, False)
        return out

    def _flat_components(self) -> List[Component]:
        return [
            cc for c in self._components for cc in c.iter_components()
        ]

    def snapshot(self) -> dict:
        """Capture the full simulation state (components + scheduler).

        Only valid at a cycle boundary — inside a watcher or between
        :meth:`step` calls — when no drive is pending commit.  The
        returned dict is JSON-serialisable and kernel-mode portable:
        a snapshot taken under either scheduling mode restores into
        either mode with bit-identical continuation.  Sleeping units are
        woken with their skipped evals credited first, so the component
        state is the lock-step state (a unit's sleep may rest on state a
        snapshot does not carry, such as a captured idle loop).
        """
        if not self.strict_lockstep:
            if self._needs_elab:
                self._elaborate()
            self._flush_sleep_credits()
        doc: dict = {
            "cycle": self.cycle,
            "components": [c.snapshot() for c in self._components],
        }
        units = self._units if not self.strict_lockstep else []
        if units:
            index = {u: i for i, u in enumerate(units)}
            heap = sorted(
                [cyc, seq, index[u]]
                for (cyc, seq, u) in self._wake_heap
                if u in index
            )
            doc["scheduler"] = {
                "awake": [bool(u._awake) for u in units],
                "slept_since": [u._slept_since for u in units],
                "wake_heap": heap,
                "wake_seq": self._wake_seq,
                "wake_reqs": [
                    (
                        cc._last_wake_req[1]
                        if cc._last_wake_req is not None
                        else None
                    )
                    for cc in self._flat_components()
                ],
            }
        return doc

    def restore(self, doc: dict) -> None:
        """Restore a :meth:`snapshot`; continuation is bit-identical.

        The component tree must have the same topology as the one the
        snapshot was taken from (same construction order, wires and
        children) — a mismatch raises
        :class:`~repro.sim.component.SnapshotError`.
        """
        if not self.strict_lockstep and self._needs_elab:
            self._elaborate()
        components = doc.get("components", [])
        if len(components) != len(self._components):
            raise SnapshotError(
                f"snapshot has {len(components)} top-level components, "
                f"simulator has {len(self._components)}"
            )
        for comp, state in zip(self._components, components):
            comp.restore(state)
        for w in self._driven:
            w._queued = False
        self._driven.clear()
        self.cycle = doc["cycle"]
        self._restore_scheduler(doc.get("scheduler"))
        self._relist()

    def _restore_scheduler(self, sched: Optional[dict]) -> None:
        if self.strict_lockstep:
            # Lock-step evaluates everything anyway; the only snapshot
            # state that matters is pending idle credit from a quiescent
            # source — materialise it so per-cycle counters stay exact.
            if sched is not None:
                units = self._flat_units()
                slept = sched.get("slept_since", [])
                if len(slept) == len(units):
                    for u, s in zip(units, slept):
                        if s is not None and self.cycle > s:
                            u.on_wake(self.cycle - s)
            for cc in self._flat_components():
                cc._last_wake_req = None
                cc._awake = True
                cc._slept_since = None
            return
        units = self._units
        comps = self._flat_components()
        usable = (
            sched is not None
            and len(sched.get("awake", [])) == len(units)
            and len(sched.get("slept_since", [])) == len(units)
        )
        if usable:
            for u, awake, slept in zip(
                units, sched["awake"], sched["slept_since"]
            ):
                u._awake = awake
                u._slept_since = slept
            self._n_awake = sum(1 for u in units if u._awake)
            self._wake_heap = [
                (cyc, seq, units[i])
                for cyc, seq, i in sched.get("wake_heap", [])
            ]
            heapify(self._wake_heap)
            self._wake_seq = sched.get("wake_seq", 0)
            reqs = sched.get("wake_reqs")
            if reqs is not None and len(reqs) == len(comps):
                for cc, req in zip(comps, reqs):
                    cc._last_wake_req = None if req is None else (self, req)
                return
        else:
            # Cross-mode (or legacy) snapshot: waking every unit is
            # always safe — a quiescent unit's eval is a no-op and it
            # goes straight back to sleep, re-booking its own wakes.
            self._wake_heap.clear()
            for u in units:
                u._awake = True
                u._slept_since = None
            self._n_awake = len(units)
        for cc in comps:
            cc._last_wake_req = None

    def step(self, cycles: int = 1) -> int:
        """Advance the simulation by *cycles* clock cycles.

        Raises :class:`TypeError` unless *cycles* is an ``int`` (a
        ``bool`` is not) and :class:`ValueError` if it is negative, in
        either kernel mode.
        """
        if type(cycles) is not int or cycles < 0:
            _reject_cycles("cycles", cycles)
        if self.strict_lockstep:
            return self._step_lockstep(cycles)
        if self._needs_elab:
            self._elaborate()
        units = self._units
        active = self._active
        wakeq = self._wakeq
        unsettled = self._unsettled
        watchers = self._watchers
        heap = self._wake_heap
        driven = self._driven
        unit_set = self._unit_set
        target = self.cycle + cycles
        try:
            while self.cycle < target:
                cyc = self.cycle
                # hostperf: wake_heap
                while heap and heap[0][0] <= cyc:
                    unit = heappop(heap)[2]
                    if not unit._awake and unit in unit_set:
                        unit._awake = True
                        self._n_awake += 1
                        insort(active, unit, key=_POS)
                if self._n_awake == 0 and units:
                    self._fast_forward(cyc, self._landing(cyc, target))
                    continue
                # hostperf: eval
                if wakeq:
                    for u in wakeq:
                        insort(active, u, key=_POS)
                    wakeq.clear()
                for u in active:
                    s = u._slept_since
                    if s is not None:
                        u._slept_since = None
                        if cyc > s:
                            u.on_wake(cyc - s)
                    u.eval(cyc)
                    if u._can_sleep and u.is_quiescent():
                        u._awake = False
                        u._slept_since = cyc + 1
                        self._n_awake -= 1
                        unsettled.append(u)
                    if wakeq:
                        self._wake_during_eval(u)
                if unsettled:
                    # drop the units that went to sleep; list the ones
                    # woken behind the loop (they run next cycle); one
                    # that slept and was woken again is still listed
                    for u in unsettled:
                        if not u._awake:
                            active.remove(u)
                        elif u not in active:
                            insort(active, u, key=_POS)
                    unsettled.clear()
                # hostperf: commit
                if driven:
                    n_awake = self._n_awake
                    for w in driven:
                        w._queued = False
                        nxt = w._next
                        if w.value != nxt:
                            w.value = nxt
                            for su in w._sinks:
                                if not su._awake:
                                    su._awake = True
                                    n_awake += 1
                                    insort(active, su, key=_POS)
                    self._n_awake = n_awake
                    driven.clear()
                self.cycle = cyc + 1
                # hostperf: watchers
                for fn in watchers:
                    fn(self.cycle)
        except BaseException:
            # an exception can leave this cycle's sleepers listed
            self._relist()
            raise
        return self.cycle

    def _step_lockstep(self, cycles: int) -> int:
        """The legacy loop: evaluate and commit everything, every cycle."""
        components = self._components
        watchers = self._watchers
        for _ in range(cycles):
            cyc = self.cycle
            # hostperf: eval
            for c in components:
                c.eval(cyc)
            # hostperf: commit
            for c in components:
                c.commit()
            self.cycle = cyc + 1
            # hostperf: watchers
            for fn in watchers:
                fn(self.cycle)
        return self.cycle

    def _landing(self, cyc: int, limit: int) -> int:
        """Where a fast-forward from *cyc* stops: the first scheduled
        wake, the next stride point of a stride watcher, or *limit*."""
        heap = self._wake_heap
        land = heap[0][0] if heap and heap[0][0] < limit else limit
        for stride in self._strides:
            point = cyc - cyc % stride + stride
            if point < land:
                land = point
        return land

    def _fast_forward(self, from_cycle: int, to_cycle: int) -> None:
        """Jump over an idle span: every unit is asleep and no wake is
        scheduled before *to_cycle*, so no architectural state can change
        in between — advancing the cycle counter is exact."""
        self.cycle = to_cycle
        for fn in self._skip_listeners:
            fn(from_cycle, to_cycle)
        for fn in self._watchers:
            fn(to_cycle)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_cycles: int = 1_000_000,
        label: Optional[str] = None,
    ) -> int:
        """Step until *predicate()* is true; return cycles consumed.

        Raises :class:`SimulationTimeout` after *max_cycles* additional
        cycles so a deadlocked model fails loudly instead of spinning,
        and rejects a *max_cycles* that is not a non-negative ``int``
        with the same exceptions as :meth:`step`.

        On the quiescent path the predicate is evaluated at every cycle
        with activity plus the budget boundary; while every unit sleeps
        the state it could observe is frozen, so skipping the idle span
        between activity points is exact for state-based predicates.
        """
        if type(max_cycles) is not int or max_cycles < 0:
            _reject_cycles("max_cycles", max_cycles)
        start = self.cycle
        budget = start + max_cycles
        fast = not self.strict_lockstep
        while not predicate():
            if self.cycle >= budget:
                what = label or getattr(predicate, "__name__", "condition")
                message = (
                    f"{what} not reached within {max_cycles} cycles "
                    f"(at cycle {self.cycle})"
                )
                diagnostics = None
                if self.health is not None:
                    diagnostics = self.health.diagnostics()
                    message += "\n" + self.health.describe(diagnostics)
                raise SimulationTimeout(message, diagnostics=diagnostics)
            if fast:
                if self._needs_elab:
                    self._elaborate()
                heap = self._wake_heap
                if (
                    self._n_awake == 0
                    and self._units
                    and not (heap and heap[0][0] <= self.cycle)
                ):
                    land = self._landing(self.cycle, budget)
                    if land > self.cycle:
                        self._fast_forward(self.cycle, land)
                        continue
            self.step()
        return self.cycle - start

    # -- reporting ---------------------------------------------------------

    def elapsed_seconds(self) -> float:
        """Simulated wall-clock time at the nominal clock frequency."""
        return self.cycle / self.clock_hz
