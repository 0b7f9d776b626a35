"""The reference kernel: the unit in which the benchmark reports time.

Every timed operation is bracketed by one run of `reference_kernel()` before
and one after; the operation's time in *ref* is its seconds divided by the
mean of those two kernel times. Host speed drifts in phases of a few seconds
that move raw times by a quarter or more; the kernel drifts with it, so the
ratio stays put.

The kernel mixes the two kinds of work the library does: exact `Fraction`
arithmetic with dict churn (the exact checks and constructions) and numpy
passes over a ~2 MB float array (the sweep engines). Its inputs are fixed,
not seeded. This module must never import `periloc`: a change to the library
must not change the unit. Changing this file changes the unit, so figures
taken before and after such a change cannot be compared.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

_N = 1 << 18  # 262144 float64 values: 2 MiB
_RNG = np.random.Generator(np.random.Philox(20160307))
_X = _RNG.random(_N)
_U = np.sort(_X)
_XP = np.sort(_RNG.random(4096))
_FP = np.cumsum(_RNG.random(4096))


def _exact_part() -> int:
    acc = Fraction(0)
    table: dict[int, Fraction] = {}
    for i in range(1, 641):
        acc += Fraction(i % 13 + 1, i % 17 + 2)
        acc *= Fraction(7, 8)
        table[i % 257] = acc
        if i % 3 == 0:
            table.pop((i * 7) % 257, None)
    return len(table) + acc.denominator % 7


def _numpy_part() -> float:
    y = np.interp(_U, _XP, _FP)
    idx = np.searchsorted(_XP, _U)
    s = np.sort(_X)
    return float(y[-1] + idx[_N // 2] + s[_N // 2])


def reference_kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    t0 = time.perf_counter()
    _exact_part()
    _numpy_part()
    return time.perf_counter() - t0


if __name__ == "__main__":
    times = sorted(reference_kernel() for _ in range(25))
    print(f"median {times[12] * 1e3:.2f} ms, min {times[0] * 1e3:.2f} ms, max {times[-1] * 1e3:.2f} ms")
