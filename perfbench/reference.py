"""A fixed reference kernel that tracks the speed of the machine during a run.

On a shared 2-vCPU virtual machine (Intel Xeon) the same code was measured
running up to about 50% slower for stretches of tens of seconds to minutes,
with the load of other tenants; CPU time drifted with wall time, so this is
not descheduling.  The kernel below does the kind of work grusskit does
(pure-Python Horner evaluation and bisection on coefficient tuples, small
numpy ``polyval`` calls) but is frozen here and shares no code with the
package, so a change to grusskit cannot change its time.  Timing it between
ops gives the machine's current speed factor ``kernel time / NOMINAL_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time on that machine in its faster, usual state.
NOMINAL_S = 0.014

_COEFFS = tuple(np.linspace(-1.0, 1.0, 6))
_NODES = np.linspace(0.0, 1.0, 24)


def _horner(c, x: float) -> float:
    v = 0.0
    for a in reversed(c):
        v = v * x + a
    return v


def _kernel() -> float:
    s = 0.0
    for i in range(2000):
        s += _horner(_COEFFS, -1.0 + i / 1000.0)
        lo, hi = 0.0, 1.0
        for _ in range(6):
            mid = 0.5 * (lo + hi)
            if _horner(_COEFFS, mid) > 0.0:
                hi = mid
            else:
                lo = mid
    for _ in range(150):
        s += float(np.polynomial.polynomial.polyval(_NODES, _COEFFS).sum())
    return s


def measure() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0
