"""A fixed pure-Python kernel timed next to every op, as a yardstick.

On a shared two-vCPU cloud host the speed of Python code was seen to drift
by up to a fifth over minutes, slowing all Python code alike. An op's time
divided by the kernel's time, measured just before and after the op in the
same process, cancels that drift while a change to the program still moves
it: the kernel does not call the program, and its instruction mix (float
and complex arithmetic, math calls, small tuples) is the program's.
"""

from __future__ import annotations

import math
import time

ITERATIONS = 120_000
# Seconds one pass takes at the speed the benchmark's bounds were set at; set-up
# time is reported in seconds at this speed.
NOMINAL_S = 0.1


def _kernel() -> complex:
    acc = 0j
    pairs = []
    for k in range(ITERATIONS):
        th = k * 1e-3
        z = complex(math.cos(th), math.sin(th)) * (0.3 + 0.1j)
        acc += z / (abs(z) + 1.0)
        pairs.append((z.real, z.imag))
        if len(pairs) > 64:
            pairs.clear()
    return acc


def seconds() -> float:
    """Wall seconds of one pass of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
