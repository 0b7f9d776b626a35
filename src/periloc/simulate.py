"""Sweep and Monte Carlo estimation of location laws, plus law comparison.

The sweep evaluates a locator at shifts u_i and classifies each result as an
atom (0, T, infinity) or an interior sample. For a paths.Locator, or a
locator name, the evaluation is vectorized over numpy float arrays by the
engine of the kind the locator routes to on the path. The engines take the
shifts sorted ascending and cut them into index runs at the few shifts where
a node or a hit interval enters or leaves the window; each run is then
classified by slices against one node or one interval. The classification into atoms is
decided by the window logic (which endpoint or hit wins), not by
floating-point equality against 0 or T, with two known exceptions. A first
hit exactly at the window end, or a last hit exactly at the window start, is
counted as an interior sample (at T or at 0) instead of an atom. And the sup
engines compare path values in floats, so rounding can break an exact tie
(between the window ends, or of a window end with a node value or with 1/2)
the other way. Any other callable, the bare functions of paths such as
sup_location included, is evaluated exactly per shift, in rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Union

import numpy as np

from .density import LocationLaw, Rational, as_rat, integral
from .paths import INFINITY, Locator, PiecewiseLinearPath, hit_intervals, locator_by_name

_CODE_INTERIOR = 0
_CODE_ZERO = 1
_CODE_T = 2
_CODE_INF = 3


@dataclass(frozen=True)
class EmpiricalLaw:
    """Sampled law: atom counts at 0, T, infinity plus sorted interior samples."""

    T: float
    n: int
    count0: int
    countT: int
    countInf: int
    interior: np.ndarray  # sorted, in (0, T)

    def __post_init__(self):
        if self.count0 + self.countT + self.countInf + len(self.interior) != self.n:
            raise ValueError("counts do not add up to the sample size")

    @property
    def freq0(self) -> float:
        return self.count0 / self.n

    @property
    def freqT(self) -> float:
        return self.countT / self.n

    @property
    def freqInf(self) -> float:
        return self.countInf / self.n

    def ecdf(self, grid: np.ndarray) -> np.ndarray:
        """P(sample <= t) among finite samples, per grid point."""
        below = np.searchsorted(self.interior, grid, side="right")
        out = (self.count0 + below) / self.n
        out = np.where(grid >= self.T, out + self.countT / self.n, out)
        return out


@dataclass(frozen=True)
class ComparisonReport:
    ks: float
    atom_errors: dict
    tol_ks: float
    tol_atom: float

    @property
    def passed(self) -> bool:
        return self.ks <= self.tol_ks and all(
            e <= self.tol_atom for e in self.atom_errors.values()
        )


# --- node tables and vectorized locator cores ---


def _float_tables(g: PiecewiseLinearPath):
    """Two periods of node positions/values as float arrays covering [0, 2]."""
    t = np.array([float(x) for x, _ in g.nodes])
    y = np.array([float(v) for _, v in g.nodes])
    tt = np.concatenate([t[:-1], t[:-1] + 1.0, [2.0]])
    yy = np.concatenate([y[:-1], y[:-1], [y[0]]])
    return tt, yy


def _sweep_sup(g, u: np.ndarray, T: float, truncated: bool):
    """Codes and values of the (truncated) sup locator; u sorted ascending.

    Node j lies strictly inside the windows of the shifts u[lo[j]:hi[j]], so
    the cuts lo and hi split u into runs that share one set of interior nodes.
    Each run takes the highest of them (the first one on ties) and is then
    classified against the path values at its window ends, slice by slice.
    """
    tt, yy = _float_tables(g)
    n = len(u)
    lo = np.searchsorted(u, tt - T, side="right")
    hi = np.searchsorted(u, tt, side="left")
    cuts = sorted({0, n, *lo.tolist(), *hi.tolist()})
    g_left = np.interp(u, tt, yy)
    g_right = np.interp(u + T, tt, yy)
    codes = np.empty(n, dtype=np.int8)
    values = np.empty(n)
    for s, e in zip(cuts, cuts[1:]):
        inside = np.flatnonzero((lo <= s) & (s < hi))
        best, bestpos = -np.inf, 0.0
        if len(inside):
            j = inside[np.argmax(yy[inside])]
            best, bestpos = yy[j], tt[j]
        gl, gr = g_left[s:e], g_right[s:e]
        left_wins = gl >= np.maximum(best, gr)
        right_wins = ~left_wins & (gr > best)
        run = codes[s:e]
        run[:] = _CODE_INTERIOR
        run[left_wins] = _CODE_ZERO
        run[right_wins] = _CODE_T
        if truncated:
            run[np.maximum(best, np.maximum(gl, gr)) < 0.5] = _CODE_INF
        values[s:e] = bestpos - u[s:e]
    return codes, values


def _hit_intervals(g: PiecewiseLinearPath, level: Fraction):
    """Merged intervals {t in [0, 2]: g(t) == level} (points as zero-width),
    from the path's exact hit intervals on [0, 1] and their copies one period
    on; the ends are rounded from their exact values."""
    starts, ends = hit_intervals(g, level)
    lo = starts + [s + 1 for s in starts]
    hi = ends + [e + 1 for e in ends]
    if starts and ends[-1] == 1:  # g(0) == g(1) == level: the copies join at 1
        del lo[len(starts)], hi[len(starts) - 1]
    return np.array([float(x) for x in lo]), np.array([float(x) for x in hi])


def _sweep_first_hit(g, u: np.ndarray, T: float, level: Fraction):
    """Codes and values of first_hit; u sorted ascending.

    The shifts u[ends[k-1]:ends[k]] have the hit interval k as the first one
    ending at or after u. Within that run the window misses the interval, then
    reaches it, then starts inside it, so three slices classify the run.
    """
    HL, HH = _hit_intervals(g, level)
    n = len(u)
    codes = np.full(n, _CODE_INF, dtype=np.int8)
    values = np.zeros(n)
    ends = np.searchsorted(u, HH, side="right")
    reach = np.searchsorted(u + T, HL, side="left")  # first u with HL <= u + T
    inside = np.searchsorted(u, HL, side="left")  # first u with HL <= u
    a = 0
    for k, b in enumerate(ends.tolist()):
        r = min(max(reach[k], a), b)
        z = min(max(inside[k], a), b)
        codes[r:z] = _CODE_INTERIOR
        values[r:z] = HL[k] - u[r:z]
        codes[z:b] = _CODE_ZERO
        a = b
    return codes, values


def _sweep_last_hit(g, u: np.ndarray, T: float, level: Fraction):
    """Codes and values of last_hit; u sorted ascending.

    The shifts u[starts[k]:starts[k+1]] have the hit interval k as the last
    one starting by u + T. Within that run the window ends inside the
    interval, then past it, then starts past it, so three slices classify it.
    """
    HL, HH = _hit_intervals(g, level)
    n = len(u)
    codes = np.full(n, _CODE_INF, dtype=np.int8)
    values = np.zeros(n)
    ub = u + T
    starts = np.searchsorted(ub, HL, side="left")
    inside = np.searchsorted(ub, HH, side="right")  # end of u with u + T <= HH
    reach = np.searchsorted(u, HH, side="right")  # end of u with u <= HH
    for k, (a, b) in enumerate(zip(starts.tolist(), starts[1:].tolist() + [n])):
        z = min(max(inside[k], a), b)
        r = min(max(reach[k], a), b)
        codes[a:z] = _CODE_T
        codes[z:r] = _CODE_INTERIOR
        values[z:r] = HH[k] - u[z:r]
    return codes, values


def _collect(T_rat: Fraction, codes: np.ndarray, values: np.ndarray) -> EmpiricalLaw:
    # the engines emit the interior in monotone runs, which timsort merges;
    # count_nonzero per code beats np.bincount, which widens the int8 codes
    interior = np.sort(values[codes == _CODE_INTERIOR], kind="stable")
    return EmpiricalLaw(
        T=float(T_rat),
        n=len(codes),
        count0=int(np.count_nonzero(codes == _CODE_ZERO)),
        countT=int(np.count_nonzero(codes == _CODE_T)),
        countInf=int(np.count_nonzero(codes == _CODE_INF)),
        interior=interior,
    )


def _generic_eval(g, locator: Callable, T: Fraction, shifts: Iterable[Fraction]) -> EmpiricalLaw:
    codes = []
    values = []
    for u in shifts:
        out = locator(g, u, u + T)
        if out == INFINITY:
            codes.append(_CODE_INF)
            values.append(0.0)
            continue
        lam = out - u
        if lam == 0:
            codes.append(_CODE_ZERO)
            values.append(0.0)
        elif lam == T:
            codes.append(_CODE_T)
            values.append(0.0)
        else:
            codes.append(_CODE_INTERIOR)
            values.append(float(lam))
    return _collect(T, np.array(codes, dtype=np.int8), np.array(values))


def _sample_law(
    g: PiecewiseLinearPath,
    locator: Union[str, Callable],
    T_rat: Fraction,
    u: np.ndarray,
    exact_shifts: Iterable[Fraction],
) -> EmpiricalLaw:
    """Law of the locator over the shifts u (sorted ascending). A Locator, or
    its name, runs the vectorized engine of the kind it routes to on g; any
    other callable is evaluated exactly at exact_shifts, the shifts u as
    rationals."""
    if isinstance(locator, str):
        locator = locator_by_name(locator)
    if not isinstance(locator, Locator):
        return _generic_eval(g, locator, T_rat, exact_shifts)
    loc, T = locator.route(g), float(T_rat)
    if loc.kind == "first-hit":
        codes, values = _sweep_first_hit(g, u, T, loc.level)
    elif loc.kind == "last-hit":
        codes, values = _sweep_last_hit(g, u, T, loc.level)
    else:
        codes, values = _sweep_sup(g, u, T, truncated=loc.kind == "truncated-sup")
    return _collect(T_rat, codes, values)


def sweep_law(
    g: PiecewiseLinearPath,
    locator: Union[str, Callable],
    T: Rational,
    grid_n: int,
) -> EmpiricalLaw:
    """Law of locator(g(. + u), [0, T]) over the midpoint grid u = (i+1/2)/n.

    Deterministic and reproducible bit-exactly for a fixed (path, locator,
    grid) triple. The grid is generated in ascending order, as the engines
    require. A Locator or a locator name costs O(n + E log n + E^2) for its
    E node or hit events (a few per path node), plus one stable sort of the
    interior samples. Midpoints do not keep every shift off a classification
    boundary: on an odd grid u = 1/2 is a shift, and a hit that lies exactly
    at a window end is misclassified, as is a sup tie that float rounding
    breaks (see the module docstring). Any other callable is evaluated
    exactly at every shift.
    """
    T_rat = as_rat(T)
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    u = (np.arange(grid_n) + 0.5) / grid_n
    shifts = (Fraction(2 * i + 1, 2 * grid_n) for i in range(grid_n))
    return _sample_law(g, locator, T_rat, u, shifts)


def mc_law(
    g: PiecewiseLinearPath,
    locator: Union[str, Callable],
    T: Rational,
    n: int,
    seed: int,
) -> EmpiricalLaw:
    """Monte Carlo law estimate with i.i.d. uniform shifts.

    The generator is numpy's counter-based Philox keyed by the 64-bit seed,
    so (seed, n) fully determine the output and parallel/serial evaluation
    orders agree. The shifts are sorted before the engines run.
    """
    T_rat = as_rat(T)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    u = np.sort(rng.random(n))
    shifts = (Fraction(x).limit_denominator(10**12) for x in u)
    return _sample_law(g, locator, T_rat, u, shifts)


# --- comparison against a target law ---


def _interior_cdf_table(law: LocationLaw):
    """Float evaluator data for t -> integral of the density over (0, t]."""
    bp = [float(x) for x in law.density.breakpoints]
    cum = [0.0]
    acc = Fraction(0)
    for j in range(law.density.k):
        acc += integral(law.density, law.density.breakpoints[j], law.density.breakpoints[j + 1])
        cum.append(float(acc))
    return np.array(bp), np.array(cum), [(float(p), float(q)) for p, q in law.density.segments]


def _sorted_cdf(law: LocationLaw, x: np.ndarray) -> np.ndarray:
    """Integral of the density over (0, x], for float x sorted ascending
    (clipped to [0, T]), evaluated one slice per density cell."""
    bp, cum, segs = _interior_cdf_table(law)
    x = np.clip(x, bp[0], bp[-1])
    cuts = [0, *np.searchsorted(x, bp[1:-1], side="left").tolist(), len(x)]
    out = np.empty_like(x)
    for j, (p, q) in enumerate(segs):
        s, e = cuts[j], cuts[j + 1]
        a, xs = bp[j], x[s:e]
        if q == 0:
            # the q term would be a signed zero, and cum[j] >= 0 keeps the
            # sum off -0.0, so dropping it leaves every bit unchanged
            out[s:e] = cum[j] + p * (xs - a)
        else:
            out[s:e] = cum[j] + p * (xs - a) + q * (xs * xs - a * a) / 2
    return out


def compare(
    target: LocationLaw,
    emp: EmpiricalLaw,
    tol_ks: float = 1e-3,
    tol_atom: float = 2e-5,
) -> ComparisonReport:
    """KS distance on the renormalized interior part plus per-atom errors.

    emp.interior is sorted, as EmpiricalLaw requires, so the target CDF is
    evaluated cell by cell on slices of it.
    """
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
        G = _sorted_cdf(target, emp.interior) / mass
        steps = np.arange(m + 1) / m  # the ECDF after i samples is steps[i]
        ks = float(np.maximum(np.max(steps[1:] - G), np.max(G - steps[:-1])))
    return ComparisonReport(ks=ks, atom_errors=atom_errors, tol_ks=tol_ks, tol_atom=tol_atom)
