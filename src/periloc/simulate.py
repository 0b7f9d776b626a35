"""Sweep and Monte Carlo estimation of location laws, plus law comparison.

The sweep evaluates a locator at shifts u_i and classifies each result as an
atom (0, T, infinity) or an interior sample. For a paths.Locator, or a
locator name, the evaluation is vectorized by the engine of the kind the
locator routes to on the path. The engines take the shifts sorted ascending
and cut them into index runs at the few shifts where a node or a hit
interval enters or leaves the window; each run is then classified as a
whole, and its interior samples are a node or hit time less the shifts.

The sup and truncated-sup engines place every cut exactly: the node cuts,
and inside a run the roots of the affine differences between the path at
the window ends, the highest inside node and 1/2, map to shift indices in
integer arithmetic, and each index range is classified in integers. The
first-hit engine maps the exact hit interval ends, and those ends less T,
to shift indices the same way. So these engines count every shift as the
exact locators do at its exact value, ties included; only the interior
values are floats. The last-hit engine cuts the float shifts at rounded hit
positions, and has one known fault: a last hit exactly at the window start
is counted as an interior sample at 0 instead of an atom. Any other
callable, the bare functions of paths such as sup_location included, is
evaluated exactly per shift, in rationals.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Union

import numpy as np

from .density import LocationLaw, Rational, as_rat, integral
from .paths import INFINITY, Locator, PiecewiseLinearPath, hit_intervals, locator_by_name

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


# --- shifts and vectorized locator cores ---


class _Shifts:
    """Sorted shifts in [0, 1): their floats u, each shift exactly as a
    ratio, and index bounds of exact cuts."""

    n: int

    def interior(self, pieces) -> np.ndarray:
        """The samples x - u_i for every piece (x, s, e) and s <= i < e, in
        one new array."""
        out = np.empty(sum(e - s for _, s, e in pieces))
        k = 0
        for x, s, e in pieces:
            o = out[k : k + e - s]
            np.subtract(x, self._u_slice(s, e, o), out=o)
            k += e - s
        return out


class _Grid(_Shifts):
    """The midpoint grid u_i = (2i+1)/(2n)."""

    def __init__(self, n: int):
        self.n = n

    @cached_property
    def u(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) / self.n

    def _u_slice(self, s: int, e: int, buf: np.ndarray) -> np.ndarray:
        """u[s:e], computed into buf unless the last-hit engine built the grid."""
        if "u" in self.__dict__:
            return self.u[s:e]
        np.add(np.arange(s, e, dtype=float), 0.5, out=buf)
        buf /= self.n
        return buf

    def ratio(self, i: int) -> tuple[int, int]:
        """Shift i as a numerator and a positive denominator."""
        return 2 * i + 1, 2 * self.n

    def bounds(self, p: int, q: int) -> tuple[int, int]:
        """Index of the first shift >= p/q and of the first shift > p/q (q > 0)."""
        m, d, n = 2 * self.n * p - q, 2 * q, self.n  # u_i >= p/q iff i >= m/d
        return min(max(-(-m // d), 0), n), min(max(m // d + 1, 0), n)


class _Sample(_Shifts):
    """Sorted float shifts, each read as the binary rational it is."""

    def __init__(self, u: np.ndarray):
        self.n = len(u)
        self.u = u

    def _u_slice(self, s: int, e: int, buf: np.ndarray) -> np.ndarray:
        return self.u[s:e]

    def ratio(self, i: int) -> tuple[int, int]:
        return self.u[i].as_integer_ratio()

    def _sign(self, i: int, p: int, q: int) -> int:
        """Sign of u_i - p/q."""
        num, den = self.ratio(i)
        v = num * q - p * den
        return (v > 0) - (v < 0)

    def bounds(self, p: int, q: int) -> tuple[int, int]:
        if p < 0 or p >= q:
            return (0, 0) if p < 0 else (self.n, self.n)
        # search the float nearest p/q, then step over the shifts it rounded past
        lo = int(np.searchsorted(self.u, p / q))
        while lo > 0 and self._sign(lo - 1, p, q) >= 0:
            lo -= 1
        while lo < self.n and self._sign(lo, p, q) < 0:
            lo += 1
        hi = lo
        while hi < self.n and self._sign(hi, p, q) == 0:
            hi += 1
        return lo, hi


def _float_times(g: PiecewiseLinearPath) -> np.ndarray:
    """Node times of two periods, [0, 2), as the floats interior values use."""
    t = np.array([float(x) for x, _ in g.nodes[:-1]])
    return np.concatenate([t, t + 1.0])


# a shift's class, as an index into the counts (zero, T, inf)
_ZERO, _AT_T, _INF, _INTERIOR = 0, 1, 2, 3


def _sweep_sup(g: PiecewiseLinearPath, shifts: _Shifts, T: Fraction, truncated: bool):
    """Counts (zero, T, inf) and interior pieces of the (truncated) sup locator.

    Times are scaled to integers by dt and values by dy. Between two cuts,
    where a node enters or leaves the window [u, u + T], the nodes strictly
    inside are a fixed run of the two-period node table, and g(u) and
    g(u + T) each lie on one piece, so both are affine in u. The first
    highest inside node is kept incrementally, in a deque of node indices
    with non-increasing values. Inside a run the class can change only at a
    root of g(u) - g(u + T), of g(u) or g(u + T) less that node's value, or,
    truncated, less 1/2. Each class is where a few of these differences have
    given signs, so it fills an interval of the run: a run whose first and
    last shifts share a class has it throughout. Otherwise the roots map to
    shift indices exactly, and each index range between them is classified
    at its first shift. Classes are decided in integers, with the tie rules
    of paths._sup. Shifts that sit on a cut are classified on their own: a
    node at a window end is not inside.
    """
    if not 0 < T <= 1:
        raise ValueError(f"a sup window needs 0 < T <= 1, got T = {T}")
    times, values, _, _, _ = g._table
    dt = lcm(T.denominator, *(t.denominator for t in times))
    dy = lcm(2, *(y.denominator for y in values))
    tau = [t.numerator * (dt // t.denominator) for t in times] + [2 * dt]
    eta = [y.numerator * (dy // y.denominator) for y in values]
    eta.append(eta[0])
    theta, half = T.numerator * (dt // T.denominator), dy // 2

    def affines(p, q, best):
        """The differences the class depends on, as pairs (a, k) whose sign
        is that of a + k*u: g(u) - g(u + T), then g(u) and g(u + T) less the
        best inside value (None without one) and less 1/2 (None unless the
        truncation can apply); and whether the best value is below 1/2."""
        lp, lq = tau[p + 1] - tau[p], tau[q + 1] - tau[q]
        sp, sq = eta[p + 1] - eta[p], eta[q + 1] - eta[q]
        la, lk = eta[p] * lp - sp * tau[p], sp * dt  # g(u) * lp
        ra, rk = eta[q] * lq + sq * (theta - tau[q]), sq * dt  # g(u + T) * lq
        lr = (la * lq - ra * lp, lk * lq - rk * lp)
        lb = rb = lh = rh = None
        if best is not None:
            lb, rb = (la - best * lp, lk), (ra - best * lq, rk)
        low = truncated and best is not None and best < half
        if truncated and (best is None or low):
            lh, rh = (la - half * lp, lk), (ra - half * lq, rk)
        return lr, lb, rb, lh, rh, low

    def classify(i, lr, lb, rb, lh, rh, low):
        num, den = shifts.ratio(i)
        # the left end wins on >=, then the first highest inside node, and
        # the right end only when strictly higher than both
        if lb is None or lb[0] * den + lb[1] * num >= 0:
            cls, top = (_AT_T, rh) if lr[0] * den + lr[1] * num < 0 else (_ZERO, lh)
        elif rb[0] * den + rb[1] * num > 0:
            cls, top = _AT_T, rh
        else:
            return _INF if low else _INTERIOR
        return _INF if top is not None and top[0] * den + top[1] * num < 0 else cls

    tt = _float_times(g)
    counts, pieces = [0, 0, 0], []

    def emit(a, b, cls, j):
        if cls == _INTERIOR:
            pieces.append((tt[j], a, b))
        else:
            counts[cls] += b - a

    cuts = sorted({x for t in tau[:-1] for x in (t, t - theta) if 0 <= x < dt})
    window = deque()
    p = q = 0
    lo, hi = shifts.bounds(0, 1)
    for c, c_next in zip(cuts, cuts[1:] + [dt]):
        # the run (c, c_next): u on piece p, u + T on piece q, nodes p+1..q inside
        while tau[p + 1] <= c:
            p += 1
        while tau[q + 1] <= c + theta:
            q += 1
            while window and eta[window[-1]] < eta[q]:
                window.pop()
            window.append(q)
        while window and window[0] <= p:
            window.popleft()
        next_lo, next_hi = shifts.bounds(c_next, dt)
        if lo < hi:  # shifts at c itself; a node at u + T is not inside
            last = q - 1 if tau[q] == c + theta else q
            j = max(range(p + 1, last + 1), key=eta.__getitem__, default=None)
            emit(lo, hi, classify(lo, *affines(p, q, None if j is None else eta[j])), j)
        if hi < next_lo:
            j = window[0] if window else None
            fns = affines(p, q, None if j is None else eta[j])
            cls = classify(hi, *fns)
            if cls == classify(next_lo - 1, *fns):
                emit(hi, next_lo, cls, j)
            else:
                edges = {hi, next_lo}
                for a, k in filter(None, fns[:5]):
                    if k:
                        for e in shifts.bounds(-a, k) if k > 0 else shifts.bounds(a, -k):
                            edges.add(min(max(e, hi), next_lo))
                edges = sorted(edges)
                for a, b in zip(edges, edges[1:]):
                    emit(a, b, classify(a, *fns), j)
        lo, hi = next_lo, next_hi
    return (*counts, pieces)


def _two_period_hits(g: PiecewiseLinearPath, level: Fraction) -> tuple[list[Fraction], list[Fraction]]:
    """Merged intervals {t in [0, 2]: g(t) == level} (points as zero-width),
    from the path's exact hit intervals on [0, 1] and their copies one period
    on: their starts and their ends, exact."""
    starts, ends = hit_intervals(g, level)
    lo = starts + [s + 1 for s in starts]
    hi = ends + [e + 1 for e in ends]
    if starts and ends[-1] == 1:  # g(0) == g(1) == level: the copies join at 1
        del lo[len(starts)], hi[len(starts) - 1]
    return lo, hi


def _hit_intervals(g: PiecewiseLinearPath, level: Fraction):
    """_two_period_hits with the ends rounded from their exact values."""
    lo, hi = _two_period_hits(g, level)
    return np.array([float(x) for x in lo]), np.array([float(x) for x in hi])


def _sweep_first_hit(g, shifts: _Shifts, T: Fraction, level: Fraction):
    """Counts (zero, T, inf) and interior pieces of first_hit.

    The shifts from the first past the end of hit interval k-1 to the first
    past the end of interval k have interval k as the first one ending at or
    after u. Within that run the window misses the interval, then ends at
    its start s (u = s - T, an atom at T), then reaches past it, then starts
    inside it, so four slices classify the run; shifts.bounds places every
    cut exactly.
    """
    if T <= 0:
        raise ValueError(f"a hit window needs T > 0, got T = {T}")
    lo, hi = _two_period_hits(g, level)
    count0 = countT = 0
    pieces, a = [], 0
    for s, e in zip(lo, hi):
        b = shifts.bounds(e.numerator, e.denominator)[1]
        x = s - T
        r, w = (min(max(i, a), b) for i in shifts.bounds(x.numerator, x.denominator))
        z = min(max(shifts.bounds(s.numerator, s.denominator)[0], a), b)
        countT += w - r
        if w < z:
            pieces.append((float(s), w, z))
        count0 += b - z
        a = b
    countInf = shifts.n - count0 - countT - sum(e - s for _, s, e in pieces)
    return count0, countT, countInf, pieces


def _sweep_last_hit(g, u: np.ndarray, T: float, level: Fraction):
    """Counts (zero, T, inf) and interior pieces of last_hit; u sorted
    ascending.

    The shifts u[starts[k]:starts[k+1]] have the hit interval k as the last
    one starting by u + T. Within that run the window ends inside the
    interval, then past it, then starts past it, so three slices classify it.
    """
    HL, HH = _hit_intervals(g, level)
    n = len(u)
    ub = u + T
    starts = np.searchsorted(ub, HL, side="left").tolist()
    inside = np.searchsorted(ub, HH, side="right").tolist()  # end of u with u + T <= HH
    reach = np.searchsorted(u, HH, side="right").tolist()  # end of u with u <= HH
    countT, pieces = 0, []
    for k, (a, b) in enumerate(zip(starts, starts[1:] + [n])):
        z = min(max(inside[k], a), b)
        r = min(max(reach[k], a), b)
        countT += z - a
        if z < r:
            pieces.append((HH[k], z, r))
    return 0, countT, n - countT - sum(e - s for _, s, e in pieces), pieces


def _generic_eval(g, locator: Callable, T: Fraction, shifts: _Shifts):
    """Counts (zero, T, inf) and the interior of any callable locator,
    evaluated exactly at every shift."""
    counts, values = [0, 0, 0], []
    for i in range(shifts.n):
        u = Fraction(*shifts.ratio(i))
        out = locator(g, u, u + T)
        if out == INFINITY:
            counts[_INF] += 1
            continue
        lam = out - u
        if lam == 0:
            counts[_ZERO] += 1
        elif lam == T:
            counts[_AT_T] += 1
        else:
            values.append(float(lam))
    return (*counts, np.array(values))


def _sample_law(g: PiecewiseLinearPath, locator: Union[str, Callable], T_rat: Fraction, shifts: _Shifts) -> EmpiricalLaw:
    """Law of the locator over the shifts (a _Grid or a _Sample). A Locator,
    or its name, runs the vectorized engine of the kind it routes to on g;
    any other callable is evaluated exactly at every shift."""
    if isinstance(locator, str):
        locator = locator_by_name(locator)
    if not isinstance(locator, Locator):
        count0, countT, countInf, interior = _generic_eval(g, locator, T_rat, shifts)
    else:
        loc = locator.route(g)
        if loc.kind == "first-hit":
            out = _sweep_first_hit(g, shifts, T_rat, loc.level)
        elif loc.kind == "last-hit":
            out = _sweep_last_hit(g, shifts.u, float(T_rat), loc.level)
        else:
            out = _sweep_sup(g, shifts, T_rat, truncated=loc.kind == "truncated-sup")
        count0, countT, countInf, pieces = out
        interior = shifts.interior(pieces)
    # the engines emit the interior in monotone runs, which timsort merges
    interior.sort(kind="stable")
    return EmpiricalLaw(T=float(T_rat), n=shifts.n, count0=count0, countT=countT, countInf=countInf, interior=interior)


def sweep_law(
    g: PiecewiseLinearPath,
    locator: Union[str, Callable],
    T: Rational,
    grid_n: int,
) -> EmpiricalLaw:
    """Law of locator(g(. + u), [0, T]) over the midpoint grid u = (i+1/2)/n.

    Deterministic and reproducible bit-exactly for a fixed (path, locator,
    grid) triple. A Locator or a locator name costs O(E log E) for its E node
    or hit events (a few per path node), plus filling and a stable sort of
    the interior samples; the last-hit engine also builds the float grid,
    O(n). The sup, truncated-sup and first-hit engines count every shift as
    the exact locator does at u = (2i+1)/(2n), exact ties included. The
    last-hit engine does not: midpoints do not keep every shift off a
    classification boundary (on an odd grid u = 1/2 is a shift), and a last
    hit that lies exactly at the window start is misclassified (see the
    module docstring). Any other callable is evaluated exactly at every
    shift.
    """
    T_rat = as_rat(T)
    if grid_n < 1:
        raise ValueError("grid_n must be >= 1")
    return _sample_law(g, locator, T_rat, _Grid(grid_n))


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
    orders agree. The shifts are sorted before the engines run. Each float
    shift x stands for the rational Fraction(x), its exact value: a callable
    locator is evaluated there, and the sup engines classify it there too, so
    a named sup locator and a wrapped one give the same counts.
    """
    T_rat = as_rat(T)
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    return _sample_law(g, locator, T_rat, _Sample(np.sort(rng.random(n))))


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
    (clipped to [0, T]), evaluated one slice per density cell, in place in
    one new array."""
    bp, cum, segs = _interior_cdf_table(law)
    out = np.clip(x, bp[0], bp[-1])
    cuts = [0, *np.searchsorted(out, bp[1:-1], side="left").tolist(), len(out)]
    for j, (p, q) in enumerate(segs):
        a, xs = bp[j], out[cuts[j] : cuts[j + 1]]
        # cum[j] + p * (xs - a) + q * (xs * xs - a * a) / 2, operation by
        # operation; with q == 0 the q term would be a signed zero, and
        # cum[j] >= 0 keeps the sum off -0.0, so dropping it leaves every bit
        # unchanged
        quad = None
        if q != 0:
            quad = xs * xs
            quad -= a * a
            quad *= q
            quad /= 2
        xs -= a
        xs *= p
        np.add(cum[j], xs, out=xs)
        if quad is not None:
            xs += quad
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
        G = _sorted_cdf(target, emp.interior)
        G /= mass
        steps = np.arange(m + 1, dtype=float)
        steps /= m  # the ECDF after i samples is steps[i]
        d = steps[1:] - G
        above = np.max(d)
        np.subtract(G, steps[:-1], out=d)
        ks = float(np.maximum(above, np.max(d)))
    return ComparisonReport(ks=ks, atom_errors=atom_errors, tol_ks=tol_ks, tol_atom=tol_atom)
