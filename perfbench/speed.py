"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts with the load of
their neighbours, by tens of percent over minutes.  A median over the
repetitions of one run filters short stalls but not that drift, so runs
of the same code minutes apart would differ by more than a regression
bound.  ``SpeedProbe`` measures the drift where it happens: a SIGALRM
timer interrupts the process every ``INTERVAL_S`` seconds, between two
bytecodes of whatever the simulator is doing, and times a fixed
pure-Python reference kernel (object allocation and method calls, the
kind of work the simulator does).  Each timing is the host's speed at
that moment, and every stretch of program time between two timings is
scaled to a host on which the kernel takes ``NOMINAL_S``
(``program_s``).

The probe's own time is taken off every interval it interrupted, so an
uncorrected time is the program's alone.  The kernel is benchmark code:
a change to the simulator changes the corrected times exactly as it
changes the wall times on a steady host.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

#: seconds between two reference timings
INTERVAL_S = 0.02
#: reference kernel time the corrected timings are scaled to
NOMINAL_S = 600e-6


class _Cell:
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, k):
        return _Cell(self.b, (self.a + k) & 0xFF)


def reference_kernel():
    """A fixed amount of interpreter work: about 0.3 ms on an idle
    2.1 GHz Xeon, 0.5-0.7 ms when timed between simulator bytecodes."""
    cell, acc = _Cell(1, 2), []
    for i in range(1000):
        cell = cell.step(i)
        acc.append((cell.a, cell.b))
        if len(acc) > 64:
            acc = []
    return cell.a


class SpeedProbe:
    """Times the reference kernel every ``INTERVAL_S`` while active::

        with SpeedProbe() as probe:
            start = perf_counter()
            ...                       # the work to time
            end = perf_counter()
        seconds = probe.program_s(start, end)
    """

    def __init__(self):
        #: (start, duration) of every reference timing
        self.samples = []
        self._busy = False
        self._previous = None

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a timing is dropped
            return
        self._busy = True
        t0 = perf_counter()
        reference_kernel()
        self.samples.append((t0, perf_counter() - t0))
        self._busy = False

    def program_s(self, start, end, corrected=True):
        """Seconds the program ran inside [start, end) of
        ``perf_counter`` time, the probe's own time taken off.

        Corrected, each stretch between two reference timings is scaled
        to a host on which the kernel takes ``NOMINAL_S``, by the mean of
        the two timings at its ends: the host's speed changes within a
        second, so a median over a whole repetition would miss much of
        it."""
        s = self.samples
        if not s:
            raise RuntimeError("no reference timing: the repetition was "
                               f"shorter than {INTERVAL_S} s")
        stretches = [(-math.inf, s[0][0], s[0][1])]
        stretches += [
            (t0 + d0, t1, (d0 + d1) / 2)
            for (t0, d0), (t1, d1) in zip(s, s[1:])
        ]
        stretches.append((s[-1][0] + s[-1][1], math.inf, s[-1][1]))
        total = 0.0
        for lo, hi, kernel_s in stretches:
            overlap = min(hi, end) - max(lo, start)
            if overlap > 0:
                total += overlap * (NOMINAL_S / kernel_s if corrected else 1)
        return total

    def kernel_s(self):
        """Median reference kernel time while the probe was active."""
        return statistics.median(d for _, d in self.samples)
