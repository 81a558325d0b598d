"""A fixed reference job that measures how fast the machine runs at a given moment.

The benchmark runs on shared virtual machines whose speed drifts with their
neighbours' load: a fixed job's rate varies by up to 2x from one second to
the next, and by 10-30% between one minute and the next.  The same drift is
in every time the benchmark takes, and across runs it is larger than the
differences the benchmark is meant to show.

So the run times this job right before and right after every problem and
every interpreter start, and every time it reports is scaled to a machine on which the job takes
``REFERENCE_S``:  ``scaled = measured * REFERENCE_S / reference``, where
``reference`` is the mean of the two bracketing runs of the job.  The job
is the kind of work maxcirc spends its time on (max-times products of
exact fractions) but calls nothing in maxcirc, so a change to the program
changes the measured times and leaves the reference as it was.  The
garbage collector is off while the job runs, so that the size of the
program's heap (a memo table, say) does not slow the job and so inflate
the program's scaled speed.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Seconds the job takes on the machine the scaled times refer to.  This is
# about its median on the 2-vCPU x86-64 virtual machine of bench/baseline.json
# (15 to 22 ms there), so scaled times read close to that machine's wall times.
REFERENCE_S = 0.02
_N = 8
_PRODUCTS = 10
_VALUES = tuple(Fraction(v) for v in ("0", "1/4", "1/3", "1/2", "2/3", "3/4", "1"))
_MATRIX = tuple(tuple(_VALUES[(3 * i + 5 * j + i * j) % 7] for j in range(_N)) for i in range(_N))


def _product(a, b):
    columns = tuple(tuple(b[j][k] for j in range(_N)) for k in range(_N))
    return tuple(tuple(max(row[j] * col[j] for j in range(_N)) for col in columns) for row in a)


def reference_s() -> float:
    """Wall time of one run of the fixed job: ``_PRODUCTS`` products of an 8x8 fraction matrix."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(_PRODUCTS):
            _product(_MATRIX, _MATRIX)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(measured: float, before: float, after: float) -> float:
    """``measured`` scaled to the reference machine, by the job's runs before and after it."""
    return measured * REFERENCE_S * 2 / (before + after)
