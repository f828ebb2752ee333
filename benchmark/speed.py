"""A fixed computation that shows how fast the machine runs at the moment.

The benchmark runs on a few cores of a shared host.  There the same code
runs up to twice as fast in one second as in the next, with the load of the
other tenants, and CPU time swings with it as much as wall time does.  So
the benchmark runs `probe()` before the first row and after every row, and
scales each row's CPU time by REFERENCE_S over the mean of the two probes
around it: a scaled time is what the row would take on a machine where the
probe takes REFERENCE_S.  The probe is the benchmark's own code and calls no
systolab function, so a change to the package moves a scaled time exactly
as it moves the CPU time.

The probe mixes the kinds of work a row does: interpreter loops, small
numpy calls, numpy over a few thousand points, a small matrix product and
scipy's BFGS, which `sup_norm` runs.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import minimize

#: A round figure for the probe's CPU time on the machine of the reference
#: figures, where it takes 15 to 28 ms.
REFERENCE_S = 0.02

_rng = np.random.default_rng(20060130)
_MATRIX = _rng.normal(size=(96, 96))
_GRID = np.linspace(0.0, 1.0, 48)
_POINTS = _rng.normal(size=(3000, 3))
_FREQUENCIES = _rng.normal(size=(3, 16))


def _objective(v):
    a, b = v
    return 0.01 * (a * a + b * b) - np.cos(3 * a) * np.sin(2 * b) - 0.3 * np.sin(a + b) ** 2


def probe():
    """CPU seconds of one run of the fixed computation."""
    start = time.process_time()
    total = 0
    for i in range(40000):
        total += i * i % 7
    for i in range(800):
        total += float(np.sin(_GRID * i) @ _GRID)
    for _ in range(6):
        y = np.cos(_POINTS @ _FREQUENCIES)
        total += float(np.sum(np.sqrt(np.sum(y * y, axis=1) + 1.0)))
    for _ in range(3):
        total += float(np.trace(_MATRIX @ _MATRIX))
    for k in range(4):
        total += minimize(_objective, [0.1 * k, 0.2], method="BFGS").fun
    return time.process_time() - start
