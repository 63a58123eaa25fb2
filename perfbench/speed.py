"""Host speed probe: calibrates the benchmark's times against the CPU's
speed at the moment they were taken.

On a shared host the same interpreter runs the same code up to 1.6x
slower for stretches of seconds to minutes, as other tenants load the
machine.  The probe samples that speed while the program runs: a
real-time interval timer raises SIGALRM every INTERVAL_S, and the
handler times one UNIT of fixed pure-Python big-integer rational
arithmetic (the kind of work the program spends its time on, but none
of the program's code).  The handler's own time is subtracted from the
program's times, and

    speed = REFERENCE_UNIT_S / (mean time of one UNIT in this repetition)

so ``raw seconds * speed`` reads as seconds on a host that runs one
UNIT in REFERENCE_UNIT_S.  The unit allocates no object the garbage
collector tracks, so the program's heap size cannot change its time.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
DEGREE = 20
# Median time of one unit on the baseline machine (see README.md).
REFERENCE_UNIT_S = 0.002


def unit() -> int:
    """A fixed amount of rational arithmetic: the product of two fixed
    polynomials with Fraction coefficients, by schoolbook convolution.
    The caller holds the garbage collector off; every object made here
    is freed on return."""
    a = [Fraction(j * j - 7, 2 * j + 3) for j in range(DEGREE + 1)]
    b = [Fraction(5 - 3 * j, j + 11) for j in range(DEGREE + 1)]
    out = [Fraction(0)] * (2 * DEGREE + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return sum(c.numerator.bit_length() + c.denominator.bit_length() for c in out)


class SpeedProbe:
    """Times one unit on every SIGALRM between start() and stop().
    clock_ns() is perf_counter_ns() less the handler's time so far, so
    a span timed on it excludes the probe."""

    def __init__(self):
        self.spent_ns = 0
        self.units = 0
        self.unit_ns = 0

    def _sample(self, signum, frame) -> None:
        entered = time.perf_counter_ns()
        collecting = gc.isenabled()
        gc.disable()
        t = time.perf_counter_ns()
        unit()
        self.unit_ns += time.perf_counter_ns() - t
        self.units += 1
        if collecting:
            gc.enable()
        self.spent_ns += time.perf_counter_ns() - entered

    def clock_ns(self) -> int:
        return time.perf_counter_ns() - self.spent_ns

    def clock(self) -> float:
        return self.clock_ns() / 1e9

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        if not self.units:
            raise RuntimeError("the speed probe took no sample")
        return REFERENCE_UNIT_S / (self.unit_ns / self.units / 1e9)
