"""Host performance observatory: sampling self-profiler + flight recorder.

The simulator's one profiler.  It observes the simulator from a side
thread while it runs at full speed, on whichever kernel path (quiescent
or strict lock-step) it would have taken anyway, so the idle skipping
that makes large fabrics simulable stays in the measurement.

Three pieces:

* :class:`HostPerfProfiler` — a daemon thread samples the simulation
  thread's Python stack every ``interval`` seconds
  (:func:`sys._current_frames`) and attributes the wall-clock time
  since the previous sample to a *(kernel region, subsystem, unit)*
  bucket.  Kernel regions (wake-heap drain, eval, wire commit,
  watchers, idle fast-forward) are recovered from ``# hostperf:``
  marker comments in :mod:`repro.sim.kernel` via line numbers — zero
  runtime cost in the kernel itself — and subsystems (Router, NI,
  ProcessorIP, Uart, Memory, ...) from the innermost sampled frame's
  module.  The *unit* names the component instance the kernel was
  running (``router10``, ``proc1``, ``serial``), so a hot router or a
  spinning core shows up by name.  Every sample is tagged with the
  simulated cycle, so the headline metric is
  **host-seconds per simulated kilocycle per subsystem**.  Cheap
  counters ride the kernel's skip-listener hook to count fast-forward
  spans exactly.  Because every tick's elapsed time lands in *some*
  bucket (``host``/``other`` catch everything unrecognised), the
  attributed total approximates measured wall time — the coverage
  contract ``multinoc profile`` reports and CI gates.

* memory telemetry — RSS (``/proc/self/status``, with a
  :mod:`resource` fallback), GC pause counts/durations via
  :data:`gc.callbacks`, and optional :mod:`tracemalloc` attribution of
  allocations by subsystem (off by default: tracing allocations is
  itself expensive).

* :class:`FlightRecorder` — keeps the last N live frames in a ring and,
  when the run dies (:class:`~repro.sim.kernel.SimulationTimeout`,
  :class:`~repro.telemetry.health.HealthViolation`, any unhandled
  exception), writes a schema'd crash bundle directory
  (``multinoc-crash/1``): manifest, traceback, the frame ring, the
  hostperf snapshot and the health diagnostics.

The profiler only *reads* simulator state: a profiled run is
architecturally bit-identical to an unprofiled one, in both kernel
modes (guarded by ``tests/test_hostperf.py`` exactly like the live
plane's equivalence test).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import threading
import time
import traceback
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..sim.component import Component

HOSTPERF_SCHEMA = "multinoc-hostperf/1"
CRASH_SCHEMA = "multinoc-crash/1"

#: kernel regions a sample can land in (plus the ``host`` catch-all)
REGIONS = (
    "wake_heap",
    "eval",
    "commit",
    "watchers",
    "fast_forward",
    "run_until",
    "kernel",
    "host",
)

#: module-path fragment -> subsystem, most specific first (first match
#: wins, so ``noc/router`` must precede ``noc/``)
_SUBSYSTEM_RULES: Tuple[Tuple[str, str], ...] = (
    ("noc/router", "Router"),
    ("noc/ni", "NI"),
    ("noc/", "NoC"),
    ("system/processor_ip", "ProcessorIP"),
    ("r8/assembler", "Toolchain"),
    ("r8/debugger", "Toolchain"),
    ("r8/disassembler", "Toolchain"),
    ("r8/", "ProcessorIP"),
    ("serial/", "Uart"),
    ("memory/", "Memory"),
    ("system/", "System"),
    ("telemetry/", "Telemetry"),
    ("host/", "Host"),
    ("apps/", "Host"),
    ("cc/", "Toolchain"),
    ("core/", "Host"),
    ("sim/", "Kernel"),
)

#: the unit of a sample in which the kernel ran no component: its own
#: bookkeeping, or host code outside the step loops
NO_UNIT = "-"

#: component-ish subsystems: the innermost frame in one of these wins
#: the sample even when outer frames sit in telemetry or host code
_COMPONENT_SUBSYSTEMS = frozenset(
    {"Router", "NI", "NoC", "ProcessorIP", "Uart", "Memory", "System"}
)


def _subsystem_for_filename(filename: str) -> Optional[str]:
    """Map a source path to a subsystem, or None outside ``repro``."""
    normalized = filename.replace("\\", "/")
    marker = "repro/"
    idx = normalized.rfind(marker)
    if idx < 0:
        return None
    tail = normalized[idx + len(marker):]
    for fragment, subsystem in _SUBSYSTEM_RULES:
        if tail.startswith(fragment):
            return subsystem
    return "Host"


def _kernel_region_table() -> Dict[str, Tuple[List[int], List[str]]]:
    """Per-function ``(line numbers, regions)`` parsed from the
    ``# hostperf:`` marker comments in :mod:`repro.sim.kernel`.

    A marker at line L names the region for every line from L until the
    next marker; lines before the first marker fall back to ``kernel``.
    Parsing happens once per process (:func:`inspect.getsourcelines`),
    so the kernel's hot loop carries only comments.
    """
    import inspect

    from ..sim.kernel import Simulator

    table: Dict[str, Tuple[List[int], List[str]]] = {}
    for fn in (Simulator.step, Simulator._step_lockstep):
        lines, start = inspect.getsourcelines(fn)
        marks: List[Tuple[int, str]] = []
        for offset, line in enumerate(lines):
            text = line.strip()
            pos = text.find("# hostperf:")
            if pos >= 0:
                region = text[pos + len("# hostperf:"):].strip()
                marks.append((start + offset, region))
        linenos = [m[0] for m in marks]
        regions = [m[1] for m in marks]
        table[fn.__name__] = (linenos, regions)
    return table


_REGION_TABLE: Optional[Dict[str, Tuple[List[int], List[str]]]] = None


def _region_for_kernel_frame(co_name: str, lineno) -> str:
    """Region of a sampled frame inside ``Simulator`` by line number."""
    global _REGION_TABLE
    if _REGION_TABLE is None:
        _REGION_TABLE = _kernel_region_table()
    if co_name == "_fast_forward":
        return "fast_forward"
    if co_name == "run_until":
        return "run_until"
    entry = _REGION_TABLE.get(co_name)
    # f_lineno can be None when the sampled thread sits mid-bytecode
    if entry is None or lineno is None:
        return "kernel"
    linenos, regions = entry
    idx = bisect_right(linenos, lineno) - 1
    return regions[idx] if idx >= 0 else "kernel"


def _unit_for_callee(frame) -> str:
    """Name of what the kernel called in *frame*: the component's
    ``name`` for a method of a :class:`~repro.sim.component.Component`
    (the schedulable unit), else the function's qualified name (a
    watcher or a ``run_until`` predicate)."""
    code = frame.f_code
    if code.co_argcount and code.co_varnames[0] == "self":
        owner = frame.f_locals.get("self")
        if isinstance(owner, Component):
            return owner.name
    return getattr(code, "co_qualname", code.co_name)


def _frame_label(frame) -> str:
    """Compact ``package.module:function`` label for folded stacks."""
    filename = frame.f_code.co_filename.replace("\\", "/")
    parts = filename.rsplit("/", 2)
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    prefix = parts[-2] + "." if len(parts) > 1 else ""
    return f"{prefix}{stem}:{frame.f_code.co_name}"


def read_rss_bytes() -> int:
    """Resident set size of this process, in bytes (0 if unknowable)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # linux reports KiB, macOS bytes
        return usage * 1024 if sys.platform != "darwin" else usage
    except Exception:
        return 0


class HostPerfProfiler:
    """Low-overhead sampling profiler for the simulation host process.

    Parameters
    ----------
    interval:
        Seconds between stack samples (default 5 ms; ~200 samples/s).
    history:
        Recent samples kept for the flight recorder's black box, each a
        ``(wall, cycle, region, subsystem, unit)`` tuple.
    trace_memory:
        Start :mod:`tracemalloc` and attribute allocations by subsystem
        in the snapshot.  Off by default — allocation tracing costs far
        more than the ``<=5%`` sampling budget.
    max_stack_depth:
        Frames kept per folded stack for the flamegraph output.

    Attaching this profiler does **not** change the kernel's execution
    mode: the quiescent fast path, idle fast-forward and watcher cadence
    all run exactly as in an unobserved simulation.
    """

    def __init__(
        self,
        *,
        interval: float = 0.005,
        history: int = 512,
        trace_memory: bool = False,
        max_stack_depth: int = 40,
    ):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.interval = interval
        self.trace_memory = trace_memory
        self.max_stack_depth = max_stack_depth

        #: (region, subsystem, unit) -> attributed host seconds
        self.seconds: Dict[Tuple[str, str, str], float] = {}
        #: folded stack -> sample count (flamegraph input)
        self.stack_counts: Dict[str, int] = {}
        #: black box: recent (wall, cycle, region, subsystem, unit) samples
        self.recent: deque = deque(maxlen=history)
        self.samples = 0

        self.sim = None
        self._ident: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._last_tick = 0.0  # wall time the latest interval ended

        self._start_wall: Optional[float] = None
        self._start_cycle = 0
        self._wall_s = 0.0
        self._end_cycle = 0

        # fast-forward counters (exact, via the kernel's skip listener)
        self.ff_spans = 0
        self.ff_cycles = 0

        # memory telemetry
        self.rss_bytes = 0
        self.rss_peak_bytes = 0
        self.gc_pauses = 0
        self.gc_pause_s = 0.0
        self._gc_t0: Optional[float] = None
        self._gc_hooked = False
        self._tracemalloc_started = False

    # -- wiring ------------------------------------------------------------

    def attach(self, sim) -> "HostPerfProfiler":
        """Advertise on *sim* and hook the fast-forward counters.

        Attachment is observational only: the kernel never consults the
        profiler, so it stays on whichever path it was on.
        """
        self.sim = sim
        sim.hostperf = self
        sim.add_skip_listener(self._on_skip)
        return self

    def detach(self) -> None:
        """Stop sampling and unhook from the simulator."""
        self.stop()
        if self.sim is not None:
            self.sim.remove_skip_listener(self._on_skip)
            if getattr(self.sim, "hostperf", None) is self:
                self.sim.hostperf = None

    def _on_skip(self, start: int, end: int) -> None:
        self.ff_spans += 1
        self.ff_cycles += end - start

    # -- sampling ----------------------------------------------------------

    def start(self) -> "HostPerfProfiler":
        """Begin sampling the *calling* thread (the one driving the sim)."""
        if self._thread is not None:
            return self
        self._ident = threading.get_ident()
        self._start_wall = self._last_tick = perf_counter()
        self._start_cycle = self.sim.cycle if self.sim is not None else 0
        self._stop.clear()
        if not self._gc_hooked:
            gc.callbacks.append(self._on_gc)
            self._gc_hooked = True
        if self.trace_memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._tracemalloc_started = True
        self.rss_bytes = read_rss_bytes()
        self.rss_peak_bytes = max(self.rss_peak_bytes, self.rss_bytes)
        self._thread = threading.Thread(
            target=self._run, name="hostperf-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "HostPerfProfiler":
        """Stop the sampler thread; safe to call more than once.

        Call it from the sampled thread (the one that called
        :meth:`start`): the final partial interval is billed to the
        caller's stack, outside this module (:meth:`detach` included).
        """
        thread = self._thread
        if thread is None:
            return self
        # The measured window ends here.  Attribute its final partial
        # interval now, to the caller's stack, so the per-bucket total
        # tracks measured wall time (the >=90% coverage contract); the
        # sampler would see this thread inside stop() itself.
        end = perf_counter()
        caller = sys._getframe(1)
        while caller.f_code.co_filename == __file__:
            caller = caller.f_back
        self._tick(caller, end)
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        if self._start_wall is not None:
            self._wall_s += end - self._start_wall
            self._start_wall = None
        self._end_cycle = self.sim.cycle if self.sim is not None else 0
        if self._gc_hooked:
            try:
                gc.callbacks.remove(self._on_gc)
            except ValueError:
                pass
            self._gc_hooked = False
        self.rss_bytes = read_rss_bytes()
        self.rss_peak_bytes = max(self.rss_peak_bytes, self.rss_bytes)
        return self

    def _run(self) -> None:
        ticks = 0
        while not self._stop.wait(self.interval):
            # read the clock before the stack: a tick that ends after
            # stop() was entered then sees stop() and is dropped
            now = perf_counter()
            frame = sys._current_frames().get(self._ident)
            if frame is not None:
                self._tick(frame, now)
            ticks += 1
            if ticks % 16 == 0:
                rss = read_rss_bytes()
                self.rss_bytes = rss
                if rss > self.rss_peak_bytes:
                    self.rss_peak_bytes = rss

    def _tick(self, frame, now: float) -> None:
        """Bill the time since the previous tick to *frame*'s stack."""
        classified = self._classify(frame)
        if classified is None:
            return  # inside stop(), which bills the tail itself
        key, folded = classified
        cycle = self.sim.cycle if self.sim is not None else 0
        with self._lock:
            dt = now - self._last_tick
            if dt <= 0:
                return  # stop() billed the tail while this tick waited
            self._last_tick = now
            self.seconds[key] = self.seconds.get(key, 0.0) + dt
            self.stack_counts[folded] = self.stack_counts.get(folded, 0) + 1
            self.samples += 1
            self.recent.append((now, cycle) + key)

    def _classify(
        self, frame
    ) -> Optional[Tuple[Tuple[str, str, str], str]]:
        """One sampled stack -> ((region, subsystem, unit), folded stack),
        or ``None`` for a stack inside :meth:`stop`."""
        region: Optional[str] = None
        subsystem: Optional[str] = None
        fallback: Optional[str] = None
        unit = NO_UNIT
        chain = []
        f = frame
        while f is not None:
            if f.f_code is _STOP_CODE:
                return None
            chain.append(f)
            f = f.f_back
        # innermost first: the leaf component wins the subsystem, the
        # innermost Simulator frame wins the region, and the first frame
        # it called outside the kernel package names the unit
        for i, f in enumerate(chain):
            filename = f.f_code.co_filename
            mapped = _subsystem_for_filename(filename)
            if mapped is None:
                continue
            if mapped == "Kernel":
                if region is None and filename.replace("\\", "/").endswith(
                    "sim/kernel.py"
                ):
                    region = _region_for_kernel_frame(
                        f.f_code.co_name, f.f_lineno
                    )
                    for callee in reversed(chain[:i]):
                        if _subsystem_for_filename(
                            callee.f_code.co_filename
                        ) != "Kernel":
                            unit = _unit_for_callee(callee)
                            break
                if fallback is None:
                    fallback = "Kernel"
            elif subsystem is None and mapped in _COMPONENT_SUBSYSTEMS:
                subsystem = mapped
            elif fallback is None:
                fallback = mapped
            if region is not None and subsystem is not None:
                break
        if region is None:
            region = "host"
        if subsystem is None:
            subsystem = fallback or "other"
        folded = ";".join(
            _frame_label(f)
            for f in reversed(chain[: self.max_stack_depth])
        )
        return (region, subsystem, unit), folded

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter()
        elif phase == "stop":
            if self._gc_t0 is not None:
                self.gc_pause_s += perf_counter() - self._gc_t0
                self._gc_t0 = None
            self.gc_pauses += 1

    # -- reporting ---------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        """Wall time under observation (running total while sampling)."""
        live = (
            perf_counter() - self._start_wall
            if self._start_wall is not None
            else 0.0
        )
        return self._wall_s + live

    @property
    def attributed_seconds(self) -> float:
        with self._lock:
            return sum(self.seconds.values())

    @property
    def sim_cycles(self) -> int:
        end = (
            self.sim.cycle
            if self._start_wall is not None and self.sim is not None
            else self._end_cycle
        )
        return max(end - self._start_cycle, 0)

    def _totals(self, field: int) -> Dict[str, float]:
        """Host seconds summed over one field of the bucket key,
        descending."""
        with self._lock:
            totals: Dict[str, float] = {}
            for key, s in self.seconds.items():
                totals[key[field]] = totals.get(key[field], 0.0) + s
        return dict(
            sorted(totals.items(), key=lambda kv: kv[1], reverse=True)
        )

    def by_region(self) -> Dict[str, float]:
        """Host seconds per kernel region, descending."""
        return self._totals(0)

    def by_subsystem(self) -> Dict[str, float]:
        """Host seconds per subsystem, descending."""
        return self._totals(1)

    def by_unit(self) -> Dict[str, float]:
        """Host seconds per unit (component instance, watcher, or
        :data:`NO_UNIT`), descending."""
        return self._totals(2)

    def snapshot(self) -> Dict[str, Any]:
        """The full observation as a ``multinoc-hostperf/1`` document."""
        wall = self.wall_seconds
        cycles = self.sim_cycles
        kcycles = cycles / 1000.0

        def table(totals: Dict[str, float]) -> Dict[str, Any]:
            return {
                name: {
                    "seconds": round(s, 6),
                    "share": round(s / wall, 4) if wall > 0 else 0.0,
                    "host_s_per_kcycle": (
                        round(s / kcycles, 6) if kcycles > 0 else None
                    ),
                }
                for name, s in totals.items()
            }

        doc: Dict[str, Any] = {
            "schema": HOSTPERF_SCHEMA,
            "interval_s": self.interval,
            "samples": self.samples,
            "wall_s": round(wall, 6),
            "attributed_s": round(self.attributed_seconds, 6),
            "cycles": cycles,
            "sim_rate_hz": round(cycles / wall, 1) if wall > 0 else 0.0,
            "host_s_per_kcycle": (
                round(wall / kcycles, 6) if kcycles > 0 else None
            ),
            "regions": {
                name: round(s, 6) for name, s in self.by_region().items()
            },
            "subsystems": table(self.by_subsystem()),
            "units": table(self.by_unit()),
            "fast_forward": {
                "spans": self.ff_spans,
                "cycles": self.ff_cycles,
            },
            "memory": {
                "rss_bytes": self.rss_bytes,
                "rss_peak_bytes": self.rss_peak_bytes,
                "gc_pauses": self.gc_pauses,
                "gc_pause_s": round(self.gc_pause_s, 6),
            },
        }
        allocs = self._tracemalloc_by_subsystem()
        if allocs is not None:
            doc["memory"]["tracemalloc_kb"] = allocs
        return doc

    def _tracemalloc_by_subsystem(self) -> Optional[Dict[str, float]]:
        if not self.trace_memory:
            return None
        import tracemalloc

        if not tracemalloc.is_tracing():
            return None
        totals: Dict[str, float] = {}
        for stat in tracemalloc.take_snapshot().statistics("filename"):
            subsystem = (
                _subsystem_for_filename(stat.traceback[0].filename)
                or "other"
            )
            totals[subsystem] = totals.get(subsystem, 0.0) + stat.size
        return {
            name: round(size / 1024, 1)
            for name, size in sorted(
                totals.items(), key=lambda kv: kv[1], reverse=True
            )
        }

    def report(self, top: int = 12) -> str:
        """Formatted host-profile table (the CLI's stdout report)."""
        wall = self.wall_seconds
        cycles = self.sim_cycles
        kcycles = cycles / 1000.0
        if not self.samples:
            return "host profile (no samples collected)"
        rate = cycles / wall if wall > 0 else 0.0
        lines = [
            f"host profile: {self.samples} samples over {wall:.2f} s, "
            f"{cycles:,} cycles ({rate:,.0f} cycles/s)",
        ]
        for heading, totals in (
            ("subsystem", self.by_subsystem()),
            ("unit", self.by_unit()),
        ):
            rows = list(totals.items())[:top]
            width = max([14] + [len(name) for name, _ in rows])
            lines.append(
                f"{heading:<{width}} {'time':>10} {'share':>7} "
                f"{'host-s/kcyc':>12}"
            )
            for name, s in rows:
                per_kcyc = (
                    f"{s / kcycles:>12.6f}" if kcycles > 0 else f"{'-':>12}"
                )
                lines.append(
                    f"{name:<{width}} {s * 1e3:>8.1f}ms "
                    f"{s / wall if wall > 0 else 0:>6.1%} {per_kcyc}"
                )
        region_text = "  ".join(
            f"{name} {s / wall if wall > 0 else 0:.0%}"
            for name, s in list(self.by_region().items())[:6]
        )
        lines.append(f"regions: {region_text}")
        if self.ff_spans:
            lines.append(
                f"fast-forward: {self.ff_spans} spans, "
                f"{self.ff_cycles:,} cycles skipped"
            )
        lines.append(
            f"memory: rss {self.rss_bytes / 1e6:.1f} MB "
            f"(peak {self.rss_peak_bytes / 1e6:.1f}), "
            f"gc {self.gc_pauses} pause(s) / {self.gc_pause_s * 1e3:.1f} ms"
        )
        return "\n".join(lines)

    def folded_stacks(self) -> List[str]:
        """``frame;frame;leaf count`` lines for flamegraph.pl/speedscope
        (the same folded format ``multinoc analyze --flamegraph`` emits).
        """
        with self._lock:
            items = sorted(
                self.stack_counts.items(), key=lambda kv: kv[1], reverse=True
            )
        return [f"{stack} {count}" for stack, count in items if stack]

    # -- surfacing ---------------------------------------------------------

    def frame_fields(self) -> Dict[str, Any]:
        """Compact host panel for ``multinoc-live/1`` frames."""
        wall = self.wall_seconds
        regions = {
            name: round(s / wall, 4) if wall > 0 else 0.0
            for name, s in list(self.by_region().items())[:6]
        }
        kcycles = self.sim_cycles / 1000.0
        return {
            "attached": True,
            "samples": self.samples,
            "rss_mb": round(self.rss_bytes / 1e6, 1),
            "gc_pauses": self.gc_pauses,
            "gc_pause_ms": round(self.gc_pause_s * 1e3, 2),
            "regions": regions,
            "host_s_per_kcycle": (
                round(wall / kcycles, 6) if kcycles > 0 else 0.0
            ),
        }

    def bind_metrics(self, registry) -> None:
        """Expose the observatory through a metrics registry (and thus
        ``/metrics``): RSS, sample count, GC pauses, attributed wall."""
        registry.gauge(
            "host_rss_bytes", "resident set size of the simulator process"
        ).set_function(lambda: self.rss_bytes)
        registry.gauge(
            "host_profile_samples", "stack samples collected by hostperf"
        ).set_function(lambda: self.samples)
        registry.gauge(
            "host_gc_pauses", "garbage-collector pauses observed"
        ).set_function(lambda: self.gc_pauses)
        registry.gauge(
            "host_attributed_seconds",
            "wall seconds attributed to (region, subsystem, unit) buckets",
        ).set_function(lambda: self.attributed_seconds)

    def run_metrics(self) -> Dict[str, float]:
        """Flat numeric summary for the cross-run registry, so
        ``multinoc runs trend`` can gate host-performance regressions."""
        wall = self.wall_seconds
        kcycles = self.sim_cycles / 1000.0
        metrics: Dict[str, float] = {
            "host_wall_s": round(wall, 4),
            "host_rss_peak_mb": round(self.rss_peak_bytes / 1e6, 1),
            "host_gc_pause_ms": round(self.gc_pause_s * 1e3, 2),
        }
        if kcycles > 0:
            metrics["host_s_per_kcycle"] = round(wall / kcycles, 6)
        if wall > 0:
            metrics["host_sample_coverage"] = round(
                self.attributed_seconds / wall, 4
            )
        return metrics


#: a sampled stack through this code object is the profiler stopping
_STOP_CODE = HostPerfProfiler.stop.__code__


class FlightRecorder:
    """Crash black box: last N live frames + state bundles on failure.

    Subscribe to a :class:`~repro.telemetry.live.LiveStream` with
    :meth:`watch` (purely observational — frames are copied into a
    bounded ring), then either wrap the run in :meth:`armed` or call
    :meth:`record` from an exception handler.  Each crash writes one
    ``multinoc-crash/1`` bundle directory under *root*::

        crash-<utc stamp>-<pid>/
            manifest.json    # schema, exception, cycle, file map
            traceback.txt    # formatted exception + stack
            frames.jsonl     # the last N multinoc-live/1 frames
            hostperf.json    # sampling-profiler snapshot (when attached)
            health.json      # health diagnostics (monitor or timeout)
    """

    def __init__(self, root, *, keep_frames: int = 32):
        if keep_frames < 1:
            raise ValueError("keep_frames must keep at least 1 frame")
        self.root = Path(root)
        self.frames: deque = deque(maxlen=keep_frames)
        self._live = None

    # -- observation -------------------------------------------------------

    def watch(self, live) -> "FlightRecorder":
        """Mirror *live*'s frames into the ring; returns self."""
        self._live = live
        live.subscribe(self._on_frame)
        return self

    def unwatch(self) -> None:
        if self._live is not None:
            self._live.unsubscribe(self._on_frame)
            self._live = None

    def _on_frame(self, frame: Dict[str, Any]) -> None:
        self.frames.append(frame)

    # -- recording ---------------------------------------------------------

    @contextmanager
    def armed(self, *, sim=None, hostperf=None, health=None):
        """Run a block under the recorder: any exception writes a bundle
        (path stored as :attr:`last_bundle`) and is re-raised."""
        try:
            yield self
        except Exception as exc:
            self.record(exc, sim=sim, hostperf=hostperf, health=health)
            raise

    def record(
        self,
        exc: BaseException,
        *,
        sim=None,
        hostperf=None,
        health=None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Write one crash bundle for *exc*; returns the bundle path."""
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        base = self.root / f"crash-{stamp}-{os.getpid()}"
        bundle = base
        attempt = 1
        while bundle.exists():
            attempt += 1
            bundle = Path(f"{base}-{attempt}")
        bundle.mkdir(parents=True)

        files: Dict[str, str] = {"traceback": "traceback.txt"}
        (bundle / "traceback.txt").write_text(
            "".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            )
        )

        files["frames"] = "frames.jsonl"
        (bundle / "frames.jsonl").write_text(
            "".join(json.dumps(frame) + "\n" for frame in self.frames)
        )

        if hostperf is not None:
            files["hostperf"] = "hostperf.json"
            (bundle / "hostperf.json").write_text(
                json.dumps(hostperf.snapshot(), indent=2)
            )

        diagnostics = self._health_document(exc, health)
        if diagnostics is not None:
            files["health"] = "health.json"
            (bundle / "health.json").write_text(
                json.dumps(diagnostics, indent=2)
            )

        manifest = {
            "schema": CRASH_SCHEMA,
            "created_unix": time.time(),
            "exception": {
                "type": type(exc).__name__,
                "message": str(exc),
            },
            "cycle": sim.cycle if sim is not None else None,
            "frames": len(self.frames),
            "files": files,
            "meta": dict(meta or {}),
        }
        (bundle / "manifest.json").write_text(json.dumps(manifest, indent=2))
        self.last_bundle = bundle
        return bundle

    #: path of the most recent bundle written by :meth:`record`
    last_bundle: Optional[Path] = None

    def _health_document(
        self, exc: BaseException, health
    ) -> Optional[Dict[str, Any]]:
        """Best diagnostics available: the monitor's full report, a
        timeout's embedded dump, or a violation's own details."""
        if health is not None:
            try:
                return health.report()
            except Exception:
                pass
        diagnostics = getattr(exc, "diagnostics", None)
        if diagnostics is not None:
            return {"diagnostics": diagnostics}
        as_dict = getattr(exc, "as_dict", None)
        if callable(as_dict):
            return {"violation": as_dict()}
        return None
