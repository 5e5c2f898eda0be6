"""Wall-clock timing scaled to a reference machine speed.

The machines this benchmark runs on are shared, and their speed drifts by up
to a fifth over seconds to minutes, so a raw trials-per-second figure moved
by as much between runs of the same code.  Each timed call is therefore
bracketed by a fixed calibration kernel, and its wall time is scaled by
``REFERENCE_S`` over the kernel's time measured around it: a call reads as
long as it would have taken on a machine where the kernel takes exactly
``REFERENCE_S``.  The kernel is the benchmark's own fixed code -- Python
dict and float work, ``math.fsum`` over 4096 floats, and numpy indexing and
cumulative sums on 4096-element arrays, the mix a duodenoise trial spends
its time in -- so no change to the library moves it.  Changing the kernel or
``REFERENCE_S`` changes the unit of every time the benchmark reports.

Code that is a Python loop and nothing else tracks the machine's speed
differently: when the machine slows, numpy work slows more than the
interpreter does.  ``PYTHON`` is a kernel of the dict and float work alone,
for workloads of that kind.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's median time on the 2-core machine the benchmark was defined
# on (Python 3.11, numpy 2.4), so reference seconds read close to its wall
# seconds there.
REFERENCE_S = 0.0065

_VALUES = np.random.default_rng(0).random(4096)
_INDEX = np.random.default_rng(1).integers(0, 2, 4096)
_FLOATS = _VALUES.tolist()


def calibration_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    for _ in range(4):
        table: dict = {}
        for i in range(3000):
            table[i % 61] = table.get(i % 53, 0.5) * 1.0001 + i
        math.fsum(_FLOATS)
        for _ in range(40):
            (_VALUES[_INDEX] * 2.0).sum()
            np.cumsum(_INDEX)
    return time.perf_counter() - start


def python_calibration_seconds() -> float:
    """Wall time of one run of the kernel's Python dict and float work."""
    start = time.perf_counter()
    for _ in range(12):
        table: dict = {}
        for i in range(3000):
            table[i % 61] = table.get(i % 53, 0.5) * 1.0001 + i
        math.fsum(_FLOATS)
    return time.perf_counter() - start


# (kernel, its time in reference seconds).  PYTHON's time is its median on
# the same machine, scaled to the moments when the mixed kernel takes
# REFERENCE_S.
MIXED = (calibration_seconds, REFERENCE_S)
PYTHON = (python_calibration_seconds, 0.0067)


class Clock:
    """Accumulates the wall and reference seconds of the calls it times."""

    def __init__(self, kernel=MIXED):
        self.kernel, self.reference_s = kernel
        self.seconds = 0.0
        self.ref_seconds = 0.0

    def call(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, timed; the kernel runs before and after,
        untimed."""
        before = self.kernel()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        after = self.kernel()
        self.seconds += elapsed
        self.ref_seconds += elapsed * self.reference_s / ((before + after) / 2)
        return result
