"""Reference kernel that puts timings on a machine-independent scale.

The benchmark runs on shared machines whose speed halves and recovers within
seconds, for the toolkit and for any other pure-Python code alike.
Before every timed item the benchmark times :func:`kernel`, a fixed piece
of pure-Python work of the toolkit's kind (exact rationals in tuple-keyed
dicts, complex floats, text).  A timing is then reported in *normalised*
units: measured seconds divided by the median kernel time around it, times
:data:`KERNEL_NOMINAL_S`.  One kernel run is defined to take 1 ms, so a
normalised millisecond is "as long as one kernel run on the same machine at
the same moment".  The kernel never calls the toolkit, so a change to the
toolkit moves normalised times by the same factor as raw ones.
"""

from __future__ import annotations

import cmath
import gc
import statistics
import time
from fractions import Fraction

KERNEL_NOMINAL_S = 1.0e-3   # a kernel run counts as this long
WINDOW = 4                  # kernel timings on each side of an item


def kernel() -> int:
    poly: dict = {}
    for i in range(1, 41):
        key = (i % 5, i % 3)
        poly[key] = poly.get(key, Fraction(0)) + Fraction(i, i + 3)
    prod: dict = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            k = (a + d, b + e)
            prod[k] = prod.get(k, Fraction(0)) + c * f
    z, h = 0.3 + 0.1j, 0.01
    for _ in range(200):
        z = z + h * (z * z - cmath.exp(1j * abs(z)))
    return len(",".join(f"{k}:{v}" for k, v in sorted(prod.items()))) + int(abs(z))


def time_kernel() -> float:
    """Seconds for one kernel run, with the garbage collector off: the kernel
    makes no cycles, and a collection would time the process's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def kernel_median(runs: int) -> float:
    return statistics.median(time_kernel() for _ in range(runs))


def normalise(seconds: list[float], kernel_s: list[float]) -> list[float]:
    """Each timing over the median of the kernel timings within ``WINDOW``
    of it (``kernel_s[i]`` was taken just before ``seconds[i]``)."""
    return [s * KERNEL_NOMINAL_S / statistics.median(kernel_s[max(0, i - WINDOW):i + WINDOW + 1])
            for i, s in enumerate(seconds)]
