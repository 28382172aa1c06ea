"""Machine-speed calibration for the benchmark's time metrics.

The benchmark shares its CPUs with other tenants, whose load slows every
process by up to about 2x for seconds to minutes at a time.  A fixed kernel
that does not touch maghardy (numpy array arithmetic, one `leggauss` rule,
which is a LAPACK eigensolve, and plain Python dispatch: the three kinds of
work a maghardy pass is made of) is timed right before and after each
measured interval.  A time measured in the interval is scaled by

    REFERENCE_S / (mean kernel time around the interval)

so it reads as the time the interval would take on the machine when the
kernel takes REFERENCE_S.  The kernel's work is fixed and independent of
the code under test, so a change to maghardy moves the scaled times by
exactly the factor it moves the raw ones; only the machine's momentary
speed is taken out.

Set-up time (spawning an interpreter and importing) slows with process
creation and file access, which the kernel does not track.  Its yardstick
is a fresh interpreter that imports numpy and nothing of maghardy, timed
before and after each `import maghardy` probe and read against
IMPORT_REFERENCE_S.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from numpy.polynomial.legendre import leggauss

# Kernel time on a quiet 2-vCPU Intel Xeon (Sapphire Rapids) VM.
REFERENCE_S = 0.0045
# Median spawn-to-`import numpy` time on the same VM.
IMPORT_REFERENCE_S = 0.15
REPEATS = 3

_X = np.linspace(0.05, 3.0, 4096)


def _kernel():
    x = _X
    acc = 0.0
    for j in range(12):
        y = np.exp(-x * x) * np.cos((j + 1) * x) + np.sqrt(x) * np.log1p(x)
        acc += float(np.dot(y, y))
    nodes, weights = leggauss(150)
    acc += float(weights @ nodes ** 2)
    table = {}
    for i in range(4000):
        table[i & 63] = table.get(i & 63, 0) + i
    return acc + len(table)


def sample():
    """Kernel seconds: the median of REPEATS timed runs."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before, after, reference=REFERENCE_S):
    """Scale for an interval with yardstick samples `before` and `after` around it."""
    return reference / (0.5 * (before + after))
