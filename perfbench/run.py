#!/usr/bin/env python3
"""MultiNoC benchmark: simulator speed on three workloads, per layer.

Run from the repository root::

    python3 perfbench/run.py --workload edge-2x2 --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload (set-up, then the measured phase)
until ``--seconds`` of measured time have passed and reports the
end-to-end metrics as medians over those repetitions, every time
corrected for the host's speed while it was taken (``speed.py``).
``--trace 1`` alternates untraced and traced repetitions of the same inputs, checks
that tracing left the model undisturbed, and reports the per-layer
metrics.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Every output a repetition produces is checked (see ``workloads.py``);
``correct`` is false if any check fails.  The aggregated span table of
a traced run is written to ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: end-to-end metric -> unit (reported with --trace 0)
END_TO_END = {
    "run_s": "s",
    "sim_cycles_per_s": "1/s",
    "sim_cycles": "cyc",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

#: per-layer metric -> unit (reported with --trace 1)
PER_LAYER = {
    "sim.kernel.self_s_per_kcyc": "s/kcyc",
    "sim.kernel.unit_evals_per_cyc": "1/cyc",
    "sim.kernel.awake_share": "ratio",
    "sim.kernel.ff_share": "ratio",
    "sim.predicate.s_per_kcyc": "s/kcyc",
    "r8.cpu.s_per_kcyc": "s/kcyc",
    "r8.cpu.ns_per_instr": "ns/instr",
    "r8.cpu.instr_per_cyc": "instr/cyc",
    "r8.cpu.stall_share": "ratio",
    "system.processor_ip.s_per_kcyc": "s/kcyc",
    "system.processor_ip.evals_per_cyc": "1/cyc",
    "noc.router.s_per_kcyc": "s/kcyc",
    "noc.router.evals_per_cyc": "1/cyc",
    "noc.router.flits_per_eval": "flits/eval",
    "noc.ni.s_per_kcyc": "s/kcyc",
    "noc.ni.evals_per_cyc": "1/cyc",
    "noc.latency_cyc_p50": "cyc",
    "noc.latency_cyc_p99": "cyc",
    "noc.packets_delivered": "count",
    "serial.uart.s_per_kcyc": "s/kcyc",
    "serial.serial_ip.s_per_kcyc": "s/kcyc",
    "host.serial_software.s_per_kcyc": "s/kcyc",
    "host.op_ms_p50": "ms/op",
    "host.op_ms_p90": "ms/op",
    "host.ops": "count",
    "memory.memory_ip.s_per_kcyc": "s/kcyc",
    "apps.traffic.s_per_kcyc": "s/kcyc",
    "setup.build_s": "s",
    "setup.assemble_s": "s",
    "setup.deploy_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.wrapper_share": "ratio",
    "trace.unexplained_ratio": "ratio",
    "speed.wall_run_s": "s",
    "speed.wall_setup_s": "s",
    "speed.kernel_us": "us",
}

#: at least this many repetitions per run, whatever --seconds says
MIN_REPS = 2
#: stop starting repetitions after this much wall time (the run must
#: end within 180 s)
WALL_LIMIT_S = 120.0


def percentile(values, q):
    """Percentile with linear interpolation, as the simulator's own
    ``Histogram.percentile`` computes it (0 for no values)."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num, den):
    return num / den if den else 0.0


def probed(workload, seed):
    """Set up once and run the measured phase once, untraced, under a
    SpeedProbe; returns (outcome, set-up window, run window, probe), a
    window being the (start, end) ``perf_counter`` times of a phase."""
    gc.collect()
    with SpeedProbe() as probe:
        t0 = perf_counter()
        inst = workload.setup(seed)
        t1 = perf_counter()
        out = workload.run(inst)
    return out, (t0, t1), (out.started, out.started + out.run_s), probe


def traced_repetition(workload, seed, recorder):
    """Set up once and run the measured phase once with spans recorded;
    returns (set-up seconds by step, outcome, span context)."""
    gc.collect()
    inst = workload.setup(seed)
    context = SpanContext(inst.sims)
    recorder.install()
    try:
        out = workload.run(inst)
    finally:
        recorder.remove()
        context.close()
    return inst.setup_times, out, context


def repeat(budget_s, body):
    """Call *body()* (returning measured seconds) until *budget_s* of
    measured time and MIN_REPS calls have passed."""
    wall0 = perf_counter()
    measured, reps = 0.0, 0
    while reps < MIN_REPS or measured < budget_s:
        if reps and perf_counter() - wall0 > WALL_LIMIT_S:
            break
        measured += body()
        reps += 1


def same_model(a, b) -> bool:
    """Everything the model computed, compared between two runs of the
    same inputs (host timings excluded)."""
    fields = (
        "sim_cycles", "attempted", "failed", "outputs", "cores",
        "flits_moved", "packets_delivered", "latencies",
    )
    return all(getattr(a, f) == getattr(b, f) for f in fields)


def untraced(workload, seed, seconds):
    first = None
    run_s, rates, setups = [], [], []
    attempted = failed = 0
    deterministic = True

    def body():
        nonlocal first, attempted, failed, deterministic
        out, setup_window, run_window, probe = probed(workload, seed)
        setups.append(probe.program_s(*setup_window))
        run_s.append(probe.program_s(*run_window))
        rates.append(out.sim_cycles / run_s[-1])
        attempted += out.attempted
        failed += out.failed
        # the same seed gives the same inputs, so every repetition must
        # simulate exactly the same thing; only the first one's outputs
        # are kept, so memory does not grow with the repetition count
        if first is None:
            first = out
        else:
            deterministic = deterministic and same_model(out, first)
        return probe.program_s(*run_window, corrected=False)

    repeat(seconds, body)
    metrics = {
        "run_s": statistics.median(run_s),
        "sim_cycles_per_s": statistics.median(rates),
        "sim_cycles": first.sim_cycles,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_ratio": 1.0 - ratio(failed, attempted),
    }
    return deterministic and failed == 0, attempted, failed, metrics


class SpanContext:
    """Kernel-side facts of one traced measured phase: fast-forwarded
    cycles (counted by a skip listener), stepped cycles, and the units
    the kernel schedules."""

    def __init__(self, sims):
        self.sims = sims
        self.ff = [0] * len(sims)
        self.listeners = []
        for i, sim in enumerate(sims):
            sim.step(0)  # make sure the unit list is elaborated
            listener = self._skip_counter(i)
            sim.add_skip_listener(listener)
            self.listeners.append(listener)
        self.start = [sim.cycle for sim in sims]
        # the kernel's own unit list (read only)
        self.units = [list(sim._units) for sim in sims]
        self.unit_classes = {type(u) for units in self.units for u in units}
        unit_ids = {id(u) for units in self.units for u in units}
        for sim in sims:
            for top in sim._components:
                for comp in top.iter_components():
                    if type(comp) in self.unit_classes and id(comp) not in unit_ids:
                        raise RuntimeError(
                            f"{comp.name} is not a unit but its class "
                            f"{type(comp).__name__} is: unit evals would "
                            "be miscounted"
                        )

    def _skip_counter(self, i):
        def on_skip(start, end):
            self.ff[i] += end - start

        return on_skip

    def close(self):
        for sim, listener in zip(self.sims, self.listeners):
            sim.remove_skip_listener(listener)
        #: unit x stepped-cycle slots: the evals a lock-step kernel makes
        self.unit_slots = sum(
            len(units) * (sim.cycle - start - ff)
            for sim, units, start, ff in zip(
                self.sims, self.units, self.start, self.ff
            )
        )


def traced(workload, seed, seconds):
    from spans import LAYERS, SpanRecorder, calibrate

    cost = calibrate()
    recorder = SpanRecorder(cost)
    plain_run, plain_setup, kernel_s, traced_run, setups = [], [], [], [], {}
    attempted = failed = 0
    undisturbed = True
    ff = unit_slots = 0
    unit_classes = set()
    totals = {"cycles": 0, "instr": 0, "active": 0, "stalled": 0,
              "flits": 0, "delivered": 0}
    latencies = []

    def body():
        nonlocal attempted, failed, undisturbed, ff, unit_slots
        plain, setup_window, run_window, probe = probed(workload, seed)
        run_wall = probe.program_s(*run_window, corrected=False)
        times, out, ctx = traced_repetition(workload, seed, recorder)
        for step, t in times.items():
            setups.setdefault(step, []).append(t)
        undisturbed = undisturbed and same_model(plain, out)
        attempted += plain.attempted + out.attempted
        failed += plain.failed + out.failed
        plain_run.append(run_wall)
        plain_setup.append(probe.program_s(*setup_window, corrected=False))
        kernel_s.append(probe.kernel_s())
        traced_run.append(out.run_s)
        ff += sum(ctx.ff)
        unit_slots += ctx.unit_slots
        unit_classes.update(ctx.unit_classes)
        totals["cycles"] += out.sim_cycles
        for instr, active, stalled in out.cores.values():
            totals["instr"] += instr
            totals["active"] += active
            totals["stalled"] += stalled
        totals["flits"] += out.flits_moved
        totals["delivered"] += out.packets_delivered
        latencies.extend(out.latencies)
        return run_wall + out.run_s

    repeat(seconds, body)

    from repro.noc.ni import NetworkInterface
    from repro.noc.router import HermesRouter
    from repro.system.processor_ip import ProcessorIp

    cycles = totals["cycles"]
    kcyc = cycles / 1000.0
    self_s = recorder.layer_self_s()
    traced_s = sum(traced_run)
    wrapper_s = recorder.spans * cost.total
    unit_evals = sum(recorder.calls_of(cls) for cls in unit_classes)
    router_evals = recorder.calls_of(HermesRouter)
    ops_ms = [
        (dt - inside * cost.total - cost.inner) * 1000.0
        for dt, inside in recorder.host_ops
    ]
    metrics = {f"{layer}.s_per_kcyc": ratio(self_s[layer], kcyc) for layer in LAYERS}
    metrics["sim.kernel.self_s_per_kcyc"] = metrics.pop("sim.kernel.s_per_kcyc")
    metrics.update({
        "sim.kernel.unit_evals_per_cyc": ratio(unit_evals, cycles),
        "sim.kernel.awake_share": ratio(unit_evals, unit_slots),
        "sim.kernel.ff_share": ratio(ff, cycles),
        "r8.cpu.ns_per_instr": ratio(self_s["r8.cpu"] * 1e9, totals["instr"]),
        "r8.cpu.instr_per_cyc": ratio(totals["instr"], cycles),
        "r8.cpu.stall_share": ratio(totals["stalled"], totals["active"]),
        "system.processor_ip.evals_per_cyc":
            ratio(recorder.calls_of(ProcessorIp), cycles),
        "noc.router.evals_per_cyc": ratio(router_evals, cycles),
        "noc.router.flits_per_eval": ratio(totals["flits"], router_evals),
        "noc.ni.evals_per_cyc": ratio(recorder.calls_of(NetworkInterface), cycles),
        "noc.latency_cyc_p50": percentile(latencies, 50),
        "noc.latency_cyc_p99": percentile(latencies, 99),
        "noc.packets_delivered": totals["delivered"],
        "host.op_ms_p50": percentile(ops_ms, 50),
        "host.op_ms_p90": percentile(ops_ms, 90),
        "host.ops": len(ops_ms),
        "setup.build_s": statistics.median(setups["build"]),
        "setup.assemble_s": statistics.median(setups["assemble"]),
        "setup.deploy_s": statistics.median(setups["deploy"]),
        "trace.overhead_ratio":
            statistics.median(traced_run) / statistics.median(plain_run) - 1,
        "trace.coverage": ratio(sum(self_s.values()), traced_s - wrapper_s),
        "trace.wrapper_share": ratio(wrapper_s, traced_s),
        "trace.unexplained_ratio":
            ratio(traced_s - wrapper_s, sum(plain_run)) - 1,
        "speed.wall_run_s": statistics.median(plain_run),
        "speed.wall_setup_s": statistics.median(plain_setup),
        "speed.kernel_us": statistics.median(kernel_s) * 1e6,
    })
    write_trace(workload.name, seed, recorder, cost, metrics)
    ok = undisturbed and failed == 0
    return ok, attempted, failed, metrics


def write_trace(name, seed, recorder, cost, metrics):
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    doc = {
        "workload": name,
        "seed": seed,
        "wrapper_cost_s": {"inner": cost.inner, "outer": cost.outer},
        "spans": recorder.table(),
        "host_ops": [list(op) for op in recorder.host_ops],
        "metrics": metrics,
    }
    (out_dir / f"trace-{name}-{seed}.json").write_text(
        json.dumps(doc, indent=1) + "\n"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(workload, args.seed, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
