"""A fixed loop whose time tracks the host's speed.

On a shared host the same analysis can take 40 percent longer in one
run than in the next, because load from outside the machine slows the
cores down for minutes at a time; a longer run does not average that
out.  The benchmark times this loop between analyses all through a run
and reports the analysis times at the speed at which the loop takes
``REFERENCE_S``.  The loop does the kind of work the package does,
interpreter steps and small numpy row operations: Gauss-Jordan
elimination of a fixed, diagonally dominant 24 x 48 matrix, row by row
in Python, then an integer loop.  It imports nothing from the package,
so a change to the package cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds the loop takes at the reference speed: about its median on an
#: idle 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).
REFERENCE_S = 0.005

_ROWS = 24
_MATRIX = np.random.default_rng(20251004).uniform(-1.0, 1.0, (_ROWS, 2 * _ROWS))
_MATRIX[np.arange(_ROWS), np.arange(_ROWS)] += 3.0 * _ROWS


def _eliminate() -> None:
    table = _MATRIX.copy()
    for r in range(_ROWS):
        table[r] /= table[r, r]
        row = table[r]
        for i in range(_ROWS):
            if i != r:
                table[i] -= table[i, r] * row


def _count() -> int:
    total = 0
    for i in range(40000):
        total += i * i % 7
    return total


def loop() -> float:
    """Run the loop once; return its wall time in seconds."""
    started = time.perf_counter()
    _eliminate()
    _count()
    return time.perf_counter() - started


def slowdown(times: list[float]) -> float:
    """How many times longer than at the reference speed the loop took,
    on average, over ``times``."""
    return statistics.fmean(times) / REFERENCE_S
