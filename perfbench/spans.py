"""Per-layer spans recorded from outside the simulator.

A :class:`SpanRecorder` temporarily replaces public methods that a
simulator class defines itself (``HermesRouter.eval``,
``Simulator.run_until``, the host API, ...) with timing wrappers and
restores the originals on :meth:`SpanRecorder.remove`.  Spans are
aggregated in memory per wrapped method: call count and *self* time,
i.e. the span's duration minus the spans opened inside it.

Two rules keep the model undisturbed:

- only methods present in the class's own ``__dict__`` are wrapped.
  The kernel treats a component as a schedulable unit when
  ``type(comp).eval is not Component.eval``, so giving ``eval`` to a
  class that lacks one would change the schedule;
- a wrapper calls the original with the same arguments and returns its
  result, and records only host clock readings.

The wrapper's own cost is calibrated (:func:`calibrate`) and charged to
no layer: the part inside a span is subtracted from that span's self
time and the part around it from its parent's.
"""

from __future__ import annotations

import statistics
import types
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Tuple

from repro.apps.workloads import TrafficSource
from repro.host.serial_software import SerialSoftware
from repro.memory.memory_ip import MemoryIp
from repro.noc.ni import NetworkInterface
from repro.noc.router import HermesRouter
from repro.r8.cpu import R8Cpu
from repro.serial.serial_ip import SerialIp
from repro.serial.uart import AutoBaudUartRx, UartRx, UartTx
from repro.sim import Simulator
from repro.system.processor_ip import ProcessorIp

HOST_OPS = ("sync", "write_memory", "read_memory", "load_program", "activate")

#: (layer, class, method) for every span the recorder opens; layers are
#: named after the module that holds the class.
SPANS: Tuple[Tuple[str, type, str], ...] = (
    ("sim.kernel", Simulator, "step"),
    ("sim.kernel", Simulator, "run_until"),
    ("r8.cpu", R8Cpu, "eval"),
    ("system.processor_ip", ProcessorIp, "eval"),
    ("noc.router", HermesRouter, "eval"),
    ("noc.ni", NetworkInterface, "eval"),
    ("serial.uart", UartTx, "eval"),
    ("serial.uart", UartRx, "eval"),
    ("serial.uart", AutoBaudUartRx, "eval"),
    ("serial.serial_ip", SerialIp, "eval"),
    ("memory.memory_ip", MemoryIp, "eval"),
    ("host.serial_software", SerialSoftware, "eval"),
    *(("host.serial_software", SerialSoftware, op) for op in HOST_OPS),
    ("apps.traffic", TrafficSource, "eval"),
)

#: run_until predicates: the waiting caller's condition, evaluated by
#: the kernel once per stepped cycle.
PREDICATE_LAYER = "sim.predicate"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([layer for layer, _, _ in SPANS] + [PREDICATE_LAYER])
)


@dataclass(frozen=True)
class WrapperCost:
    """Host seconds one span adds: ``inner`` falls inside the span's
    own interval, ``outer`` in its parent's."""

    inner: float = 0.0
    outer: float = 0.0

    @property
    def total(self) -> float:
        return self.inner + self.outer


class SpanRecorder:
    """Installs span wrappers and accumulates self time per method."""

    def __init__(self, cost: WrapperCost = WrapperCost()):
        self.cost = cost
        self.keys: List[Tuple[str, type, str]] = list(SPANS) + [
            (PREDICATE_LAYER, object, "predicate")
        ]
        self.self_s = [0.0] * len(self.keys)
        self.calls = [0] * len(self.keys)
        #: child time (plus child wrapper cost) of the innermost open span
        self._child = [0.0]
        #: (inclusive seconds, spans opened inside) per host API call
        self.host_ops: List[Tuple[float, int]] = []
        self._saved: List[Tuple[type, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _fast_wrapper(self, fn, slot):
        """The per-cycle span: ``eval(cycle)`` and ``step(cycles=1)``."""
        acc, calls, child = self.self_s, self.calls, self._child
        inner, outer = self.cost.inner, self.cost.outer

        def span(obj, arg=1):
            t0 = perf_counter()
            saved = child[0]
            child[0] = 0.0
            result = fn(obj, arg)
            dt = perf_counter() - t0
            acc[slot] += dt - child[0] - inner
            calls[slot] += 1
            child[0] = saved + dt + outer
            return result

        return _own_code(span)

    def _call_wrapper(self, fn, slot, host_op=False):
        acc, calls, child = self.self_s, self.calls, self._child
        inner, outer = self.cost.inner, self.cost.outer
        ops = self.host_ops

        def call(*args, **kwargs):
            t0 = perf_counter()
            saved = child[0]
            child[0] = 0.0
            n0 = sum(calls) if host_op else 0
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                acc[slot] += dt - child[0] - inner
                calls[slot] += 1
                child[0] = saved + dt + outer
                if host_op:
                    ops.append((dt, sum(calls) - n0 - 1))

        return call

    def _run_until_wrapper(self, fn, slot):
        """run_until, with its predicate timed as a span of its own."""
        acc, calls, child = self.self_s, self.calls, self._child
        inner, outer = self.cost.inner, self.cost.outer
        pslot = len(self.keys) - 1
        timed_run_until = self._call_wrapper(fn, slot)

        def run_until(sim, predicate, *args, **kwargs):
            # the span body is repeated inline, as in _fast_wrapper: one
            # extra call per cycle would be wrapper cost calibrate()
            # does not see
            def timed_predicate():
                t0 = perf_counter()
                saved = child[0]
                child[0] = 0.0
                result = predicate()
                dt = perf_counter() - t0
                acc[pslot] += dt - child[0] - inner
                calls[pslot] += 1
                child[0] = saved + dt + outer
                return result

            return timed_run_until(sim, timed_predicate, *args, **kwargs)

        return run_until

    # -- install / remove ----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("spans already installed")
        for slot, (_, cls, name) in enumerate(SPANS):
            original = cls.__dict__.get(name)
            if original is None:
                raise RuntimeError(f"{cls.__name__} defines no {name}")
            if name in ("eval", "step"):
                wrapper = self._fast_wrapper(original, slot)
            elif name == "run_until":
                wrapper = self._run_until_wrapper(original, slot)
            else:
                wrapper = self._call_wrapper(
                    original, slot, host_op=cls is SerialSoftware
                )
            self._saved.append((cls, name, original))
            setattr(cls, name, wrapper)

    def remove(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    # -- results -------------------------------------------------------------

    @property
    def spans(self) -> int:
        return sum(self.calls)

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _, _), s in zip(self.keys, self.self_s):
            out[layer] += s
        return out

    def calls_of(self, cls: type, name: str = "eval") -> int:
        return sum(
            n
            for (_, c, m), n in zip(self.keys, self.calls)
            if c is cls and m == name
        )

    def table(self) -> List[dict]:
        """Every recorded (layer, method) with its calls and self time."""
        return [
            {
                "layer": layer,
                "span": f"{cls.__name__}.{name}",
                "calls": n,
                "self_s": s,
            }
            for (layer, cls, name), n, s in zip(
                self.keys, self.calls, self.self_s
            )
            if n
        ]


def _own_code(fn):
    """A copy of *fn* with its own code object.  The interpreter
    specialises each call site per code object, so a wrapper shared by
    every wrapped class would see many callees at one site and run
    slower than the monomorphic wrapper :func:`calibrate` measures."""
    return types.FunctionType(
        fn.__code__.replace(),
        fn.__globals__,
        fn.__name__,
        fn.__defaults__,
        fn.__closure__,
    )


def calibrate(n: int = 200_000, repeats: int = 5) -> WrapperCost:
    """Measure what one per-cycle span adds, on a method doing nothing.

    ``total`` is the extra host time per call against calling the
    method directly; ``inner`` is the part the span itself measures
    beyond the plain call.  Medians over *repeats* rounds.
    """

    class Probe:
        def eval(self, cycle):
            pass

    probe = Probe()
    direct_eval = Probe.eval
    totals, inners = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(n):
            pass
        t_loop = perf_counter() - t0

        t0 = perf_counter()
        for i in range(n):
            probe.eval(i)
        t_direct = perf_counter() - t0

        recorder = SpanRecorder()
        Probe.eval = recorder._fast_wrapper(direct_eval, 0)
        try:
            t0 = perf_counter()
            for i in range(n):
                probe.eval(i)
            t_wrapped = perf_counter() - t0
        finally:
            Probe.eval = direct_eval
        plain_call = (t_direct - t_loop) / n
        totals.append((t_wrapped - t_direct) / n)
        inners.append(recorder.self_s[0] / n - plain_call)
    total = statistics.median(totals)
    inner = min(max(statistics.median(inners), 0.0), total)
    return WrapperCost(inner=inner, outer=total - inner)
