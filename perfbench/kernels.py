"""Kernel micro-timings, one per layer, in microseconds per call.

Run in a fresh interpreter, untraced, after the traced repetitions:

    python3 perfbench/kernels.py

prints one JSON object {metric: microseconds}.  Inputs are fixed, not
seeded, so the figures compare across workloads and runs.  Each figure
is the median over several batches of the per-call time, timed with the
speed probe running and calibrated by its speed factor (speed.py).
"""

import json
import os
import statistics
import sys
import time
from fractions import Fraction

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from relhermite.algebra import Poly, TruncSeries  # noqa: E402
from relhermite.families import Family, rhp_explicit  # noqa: E402
from relhermite.numeric import GammaRatio, gamma_ratio_normalize  # noqa: E402
from relhermite.turan import hankel, poly_determinant  # noqa: E402

SEVEN_HALVES = Fraction(7, 2)
BATCH_S = 0.05
BATCHES = 7


def per_call_us(fn, clock) -> float:
    loops = 1
    while True:
        t = clock()
        for _ in range(loops):
            fn()
        if clock() - t >= BATCH_S:
            break
        loops *= 2
    samples = []
    for _ in range(BATCHES):
        t = clock()
        for _ in range(loops):
            fn()
        samples.append((clock() - t) / loops * 1e6)
    return statistics.median(samples)


def kernels() -> dict:
    dense = Poly([Fraction(j * j - 7, 2 * j + 3) for j in range(33)])
    other = Poly([Fraction(5 - 3 * j, j + 11) for j in range(33)])
    x = Fraction(1, 2)
    N = SEVEN_HALVES
    genfunc_base = TruncSeries.from_poly(Poly((1, -2 * x / N, x * x / (N * N) + 1 / N)), 64)
    geg_hankel = hankel(Family.GEGENBAUER, 6, N)
    n, k = 8, 2
    half_n = Fraction(n, 2)
    ratio = (
        GammaRatio.rising(0, n, slope=2)
        * GammaRatio.rising(0, half_n).reciprocal()
        * GammaRatio.rising(Fraction(n + 1, 2), k - half_n)
    )
    kernels = {
        "kernel.poly_mul_d32_us": lambda: dense * other,
        "kernel.pow_fraction_o64_us": lambda: genfunc_base.pow_fraction(-N),
        "kernel.rhp_explicit_40_7h_us": lambda: rhp_explicit(40, N),
        "kernel.bareiss_geg_n6_us": lambda: poly_determinant(geg_hankel),
        "kernel.gamma_ratio_normalize_us": lambda: gamma_ratio_normalize(ratio, N),
    }
    probe = SpeedProbe()
    probe.start()
    raw = {name: per_call_us(fn, probe.clock) for name, fn in kernels.items()}
    probe.stop()
    return {name: us * probe.speed() for name, us in raw.items()}


if __name__ == "__main__":
    json.dump(kernels(), sys.stdout)
