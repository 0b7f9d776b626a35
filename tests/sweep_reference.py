"""Per-shift reference copies of the vectorized sweep engines and of compare.

Every engine classifies every shift with the exact locator at its exact
value, (2i+1)/(2n) on the grid and Fraction(u) for a Monte Carlo shift, and
takes the interior value in floats, node or hit time less shift. The one
exception is the last-hit engine's known fault: a last hit exactly at the
window start is an interior sample 0, not an atom at 0. compare gathers
per-sample cell data.
The library must reproduce them byte for byte (tests/test_simulate.py).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from periloc.paths import INFINITY, first_hit, last_hit, sup_location, truncated_sup_location
from periloc.simulate import ComparisonReport, EmpiricalLaw, _interior_cdf_table

_CODE_INTERIOR = 0
_CODE_ZERO = 1
_CODE_T = 2
_CODE_INF = 3


def sweep_sup(g, u, shifts, T, truncated):
    # node times over two periods, exact and as the floats of the interior values
    times = [t for t, _ in g.nodes[:-1]]
    t = np.array([float(x) for x in times])
    tt = np.concatenate([t, t + 1.0])
    times += [x + 1 for x in times]
    locate = truncated_sup_location if truncated else sup_location
    n = len(u)
    codes = np.full(n, _CODE_INTERIOR, dtype=np.int8)
    values = np.zeros(n)
    for i, x in enumerate(shifts):
        pos = locate(g, x, x + T)
        if pos == INFINITY:
            codes[i] = _CODE_INF
        elif pos == x:
            codes[i] = _CODE_ZERO
        elif pos == x + T:
            codes[i] = _CODE_T
        else:
            values[i] = tt[times.index(pos)] - u[i]
    return codes, values


def sweep_first_hit(g, u, shifts, T, level):
    n = len(u)
    codes = np.full(n, _CODE_INTERIOR, dtype=np.int8)
    values = np.zeros(n)
    for i, x in enumerate(shifts):
        pos = first_hit(g, level, x, x + T)
        if pos == INFINITY:
            codes[i] = _CODE_INF
        elif pos == x:
            codes[i] = _CODE_ZERO
        elif pos == x + T:
            codes[i] = _CODE_T
        else:
            values[i] = float(pos) - u[i]
    return codes, values


def sweep_last_hit(g, u, shifts, T, level):
    n = len(u)
    codes = np.full(n, _CODE_INTERIOR, dtype=np.int8)
    values = np.zeros(n)
    for i, x in enumerate(shifts):
        pos = last_hit(g, level, x, x + T)
        if pos == INFINITY:
            codes[i] = _CODE_INF
        elif pos == x + T:
            codes[i] = _CODE_T
        else:  # a last hit at the window start, pos == x, stays an interior 0
            values[i] = float(pos) - u[i]
    return codes, values


def run_engine(g, name: str, u, shifts, T: Fraction):
    if name == "composite":
        lo, hi = g.min_value(), g.max_value()
        if lo >= 0:
            name = "sup"
        elif lo <= -1 <= hi:
            name = "first-hit:-1"
        else:
            name = "last-hit:-2"
    if name == "sup":
        return sweep_sup(g, u, shifts, T, truncated=False)
    if name == "truncated-sup":
        return sweep_sup(g, u, shifts, T, truncated=True)
    kind, level = name.split(":")
    hit = sweep_first_hit if kind == "first-hit" else sweep_last_hit
    return hit(g, u, shifts, T, Fraction(level))


def collect(T_rat, codes, values):
    interior = np.sort(values[codes == _CODE_INTERIOR])
    return EmpiricalLaw(
        T=float(T_rat),
        n=len(codes),
        count0=int(np.sum(codes == _CODE_ZERO)),
        countT=int(np.sum(codes == _CODE_T)),
        countInf=int(np.sum(codes == _CODE_INF)),
        interior=interior,
    )


def sweep_law(g, name: str, T: Fraction, grid_n: int) -> EmpiricalLaw:
    u = (np.arange(grid_n) + 0.5) / grid_n
    shifts = [Fraction(2 * i + 1, 2 * grid_n) for i in range(grid_n)]
    return collect(T, *run_engine(g, name, u, shifts, T))


def mc_law(g, name: str, T: Fraction, n: int, seed: int) -> EmpiricalLaw:
    u = np.sort(np.random.Generator(np.random.Philox(seed)).random(n))
    return collect(T, *run_engine(g, name, u, [Fraction(x) for x in u], T))


def interior_cdf(law, x):
    bp, cum, segs = _interior_cdf_table(law)
    x = np.clip(x, bp[0], bp[-1])
    j = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(segs) - 1)
    p = np.array([s[0] for s in segs])[j]
    q = np.array([s[1] for s in segs])[j]
    a = bp[j]
    return cum[j] + p * (x - a) + q * (x * x - a * a) / 2


def compare(target, emp, tol_ks=1e-3, tol_atom=2e-5) -> ComparisonReport:
    if abs(float(target.T) - emp.T) > 1e-12:
        raise ValueError("laws have different T")
    atom_errors = {
        "zero": abs(emp.freq0 - float(target.atom0)),
        "T": abs(emp.freqT - float(target.atomT)),
        "inf": abs(emp.freqInf - float(target.atomInf)),
    }
    mass = float(target.interior_mass())
    m = len(emp.interior)
    if m == 0 or mass == 0.0:
        ks = 0.0 if (m == 0) == (mass == 0.0) else 1.0
    else:
        G = interior_cdf(target, emp.interior) / mass
        i = np.arange(1, m + 1)
        ks = float(np.max(np.maximum(i / m - G, G - (i - 1) / m)))
    return ComparisonReport(ks=ks, atom_errors=atom_errors, tol_ks=tol_ks, tol_atom=tol_atom)
