"""Exact piecewise-affine densities on (0, T) and full location laws.

All arithmetic is over `fractions.Fraction`; floats are rejected at the
boundary so that membership logic never depends on rounding.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Sequence, Union

Rational = Union[int, str, Fraction]


def as_rat(x: Rational) -> Fraction:
    """Coerce to Fraction. Floats are refused: Fraction(0.15) is not 3/20."""
    if isinstance(x, bool) or isinstance(x, float):
        raise TypeError(f"need an exact rational (int, str or Fraction), got {x!r}")
    return Fraction(x)


# --- densities ---


@dataclass(frozen=True)
class PiecewiseDensity:
    """Cadlag piecewise-affine density: value p_j + q_j * t on [x_{j-1}, x_j).

    breakpoints: 0 = x_0 < x_1 < ... < x_k = T.
    segments: one (p_j, q_j) pair per cell, j = 1..k.
    """

    breakpoints: tuple[Fraction, ...]
    segments: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        bp = tuple(as_rat(x) for x in self.breakpoints)
        seg = tuple((as_rat(p), as_rat(q)) for p, q in self.segments)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "segments", seg)
        if len(bp) < 2 or len(seg) != len(bp) - 1:
            raise ValueError("need k >= 1 cells and len(breakpoints) == k + 1")
        if bp[0] != 0:
            raise ValueError("breakpoints must start at 0")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        for (a, b), (p, q) in zip(zip(bp, bp[1:]), seg):
            # affine on [a, b): nonnegativity holds iff it holds at both ends
            if p + q * a < 0 or p + q * b < 0:
                raise ValueError(f"negative density on cell [{a}, {b})")

    @property
    def T(self) -> Fraction:
        return self.breakpoints[-1]

    @property
    def k(self) -> int:
        return len(self.segments)

    def cell_index(self, t: Fraction) -> int:
        """Index j (1-based) of the cell [x_{j-1}, x_j) containing t, 0 <= t < T."""
        if not 0 <= t < self.T:
            raise ValueError(f"t={t} outside [0, T)")
        return bisect_right(self.breakpoints, t)

    def value(self, t: Rational) -> Fraction:
        """f(t) for 0 <= t < T (cadlag value; value(0) is the right limit f(0+))."""
        t = as_rat(t)
        j = self.cell_index(t)
        p, q = self.segments[j - 1]
        return p + q * t

    def left_limit(self, t: Rational) -> Fraction:
        """f(t-) for 0 < t <= T."""
        t = as_rat(t)
        if not 0 < t <= self.T:
            raise ValueError(f"t={t} outside (0, T]")
        # cell j with x_{j-1} < t <= x_j
        p, q = self.segments[bisect_left(self.breakpoints, t) - 1]
        return p + q * t

    def jumps(self) -> list[Fraction]:
        """f(x_j) - f(x_j-) at each interior breakpoint x_j, j = 1..k-1."""
        return [
            (p1 - p0) + (q1 - q0) * x
            for x, (p0, q0), (p1, q1) in zip(self.breakpoints[1:-1], self.segments, self.segments[1:])
        ]

    def is_step(self) -> bool:
        return all(q == 0 for _, q in self.segments)

    def is_integer_step(self) -> bool:
        return self.is_step() and all(p.denominator == 1 for p, _ in self.segments)

    def is_decreasing(self) -> bool:
        """Non-increasing on (0, T): slopes <= 0 and no upward jumps."""
        if any(q > 0 for _, q in self.segments):
            return False
        return all(jump <= 0 for jump in self.jumps())

    def is_convex(self) -> bool:
        """Convex on (0, T): continuous at interior breakpoints, slopes non-decreasing."""
        if any(self.jumps()):
            return False
        slopes = [q for _, q in self.segments]
        return all(a <= b for a, b in zip(slopes, slopes[1:]))

    def sup(self) -> Fraction:
        """Essential sup of f on (0, T) (max over cell endpoint values)."""
        best = Fraction(0)
        for (a, b), (p, q) in zip(zip(self.breakpoints, self.breakpoints[1:]), self.segments):
            best = max(best, p + q * a, p + q * b)
        return best


def make_step_density(breakpoints: Sequence[Rational], values: Sequence[Rational]) -> PiecewiseDensity:
    """Cadlag step density: values[j] on [breakpoints[j], breakpoints[j+1])."""
    if len(values) != len(breakpoints) - 1:
        raise ValueError("need one value per cell")
    return PiecewiseDensity(breakpoints, [(v, 0) for v in values])


def span_density(T: Rational, spans: Iterable[tuple]) -> PiecewiseDensity:
    """Step density on (0, T) whose value on each cell is the number of
    spans (lo, hi) covering it.

    Every span end inside (0, T) is a breakpoint, so each cell lies inside
    or outside each span. Ends may be infinite; an empty or reversed span
    adds its ends as breakpoints and nothing to the count.
    """
    T = as_rat(T)
    spans = list(spans)
    cuts = sorted({Fraction(0), T, *(x for span in spans for x in span if 0 < x < T)})
    index = {x: i for i, x in enumerate(cuts)}
    steps = [0] * len(cuts)  # +1 where a span opens, -1 where it closes
    for lo, hi in spans:
        lo, hi = max(lo, 0), min(hi, T)
        if lo < hi:
            steps[index[lo]] += 1
            steps[index[hi]] -= 1
    return make_step_density(cuts, list(accumulate(steps[:-1])))


def integral(f: PiecewiseDensity, t1: Rational, t2: Rational) -> Fraction:
    """Exact integral of f over [t1, t2] within [0, T]."""
    t1, t2 = as_rat(t1), as_rat(t2)
    if not 0 <= t1 <= t2 <= f.T:
        raise ValueError(f"bounds ({t1}, {t2}) out of range [0, {f.T}]")
    total = Fraction(0)
    for (a, b), (p, q) in zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments):
        lo, hi = max(a, t1), min(b, t2)
        if lo < hi:
            total += p * (hi - lo) + q * (hi * hi - lo * lo) / 2
    return total


def total_variation(f: PiecewiseDensity, t1: Rational, t2: Rational) -> Fraction:
    """Exact total variation of f on the open interval (t1, t2), 0 < t1 < t2 < T."""
    t1, t2 = as_rat(t1), as_rat(t2)
    if not 0 < t1 < t2 < f.T:
        raise ValueError(f"need 0 < t1 < t2 < T, got ({t1}, {t2})")
    return _tv_open(f, t1, t2)


def _tv_open(f: PiecewiseDensity, t1: Fraction, t2: Fraction) -> Fraction:
    # |slope| * overlap per cell, plus |jump| at breakpoints strictly inside
    tv = Fraction(0)
    for (a, b), (p, q) in zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments):
        lo, hi = max(a, t1), min(b, t2)
        if lo < hi and q != 0:
            tv += abs(q) * (hi - lo)
    for x, jump in zip(f.breakpoints[1:], f.jumps()):
        if t1 < x < t2:
            tv += abs(jump)
    return tv


def generalized_inverse(f: PiecewiseDensity, y: Rational) -> Fraction:
    """f^{-1}(y) = sup{t in (0,T): f(t) >= y} (sup of the empty set is 0).

    For y = 0 this returns the right end of the essential support {f > 0}.
    Requires f non-increasing; raises ValueError otherwise.
    """
    if not f.is_decreasing():
        raise ValueError("generalized inverse defined for decreasing densities only")
    return _generalized_inverse(f, y)


def _generalized_inverse(f: PiecewiseDensity, y: Rational) -> Fraction:
    """generalized_inverse for an f the caller has already checked to be
    non-increasing."""
    y = as_rat(y)
    if y < 0:
        raise ValueError("y must be >= 0")
    cells = list(zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments))
    if y == 0:
        for (a, b), (p, q) in reversed(cells):
            # on [a, b): f > 0 somewhere iff value at the left end is positive
            if p + q * a > 0:
                return b
        return Fraction(0)
    for (a, b), (p, q) in reversed(cells):
        if p + q * a < y:
            continue  # f < y on the whole cell (f non-increasing)
        if q == 0:
            return b
        return min(b, (y - p) / q)
    return Fraction(0)


# --- laws ---


@dataclass(frozen=True)
class LocationLaw:
    """Distribution of a location value: density on (0, T) plus atoms at 0, T, infinity."""

    T: Fraction
    density: PiecewiseDensity
    atom0: Fraction = Fraction(0)
    atomT: Fraction = Fraction(0)
    atomInf: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "T", as_rat(self.T))
        object.__setattr__(self, "atom0", as_rat(self.atom0))
        object.__setattr__(self, "atomT", as_rat(self.atomT))
        object.__setattr__(self, "atomInf", as_rat(self.atomInf))
        if not 0 < self.T <= 1:
            raise ValueError("T must lie in (0, 1]")
        if self.density.T != self.T:
            raise ValueError("density domain must end at T")
        for name in ("atom0", "atomT", "atomInf"):
            a = getattr(self, name)
            if not 0 <= a <= 1:
                raise ValueError(f"{name}={a} outside [0, 1]")
        if self.total_mass() != 1:
            raise ValueError(f"total mass {self.total_mass()} != 1")

    def interior_mass(self) -> Fraction:
        return integral(self.density, 0, self.T)

    def total_mass(self) -> Fraction:
        return self.atom0 + self.atomT + self.atomInf + self.interior_mass()

    def cdf(self, t: Rational) -> Fraction:
        """P(location <= t) for t in [0, T] (infinity mass excluded)."""
        t = as_rat(t)
        if not 0 <= t <= self.T:
            raise ValueError(f"t={t} outside [0, T]")
        out = self.atom0 + integral(self.density, 0, t)
        if t == self.T:
            out += self.atomT
        return out


def step_law(
    T: Rational,
    breakpoints: Sequence[Rational],
    values: Sequence[Rational],
    atom0: Rational = 0,
    atomT: Rational = 0,
    atomInf: Rational = 0,
) -> LocationLaw:
    """Convenience constructor for step-density laws."""
    T = as_rat(T)
    if as_rat(breakpoints[-1]) != T:
        raise ValueError("last breakpoint must equal T")
    return LocationLaw(T, make_step_density(breakpoints, values), atom0, atomT, atomInf)


def mix_laws(laws: Sequence[LocationLaw], weights: Sequence[Rational]) -> LocationLaw:
    """Convex combination of laws sharing the same T; breakpoints are merged."""
    if len(laws) != len(weights) or not laws:
        raise ValueError("need one weight per law")
    w = [as_rat(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    if sum(w) != 1:
        raise ValueError(f"weights sum to {sum(w)} != 1")
    T = laws[0].T
    if any(law.T != T for law in laws):
        raise ValueError("all laws must share T")
    grid = sorted({x for law in laws for x in law.density.breakpoints})
    segs = []
    for a in grid[:-1]:
        p = Fraction(0)
        q = Fraction(0)
        for law, wi in zip(laws, w):
            j = law.density.cell_index(a)
            pj, qj = law.density.segments[j - 1]
            p += wi * pj
            q += wi * qj
        segs.append((p, q))
    dens = PiecewiseDensity(tuple(grid), tuple(segs))
    return LocationLaw(
        T,
        dens,
        sum(wi * law.atom0 for law, wi in zip(laws, w)),
        sum(wi * law.atomT for law, wi in zip(laws, w)),
        sum(wi * law.atomInf for law, wi in zip(laws, w)),
    )


# --- block decomposition ---


@dataclass(frozen=True)
class Block:
    """Half-open interval (u, v] with its position class."""

    u: Fraction
    v: Fraction
    kind: str  # base | left | right | central

    def __post_init__(self):
        if self.kind not in ("base", "left", "right", "central"):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if not self.u < self.v:
            raise ValueError("block needs u < v")

    @property
    def width(self) -> Fraction:
        return self.v - self.u


@dataclass(frozen=True)
class BlockDecomposition:
    """Maximal decomposition of an integer step density into indicator blocks."""

    T: Fraction
    blocks: tuple[Block, ...]

    def count(self, kind: str) -> int:
        return sum(1 for b in self.blocks if b.kind == kind)

    def of_kind(self, kind: str) -> list[Block]:
        return [b for b in self.blocks if b.kind == kind]


def _classify(u: Fraction, v: Fraction, T: Fraction) -> str:
    if u == 0 and v == T:
        return "base"
    if u == 0:
        return "left"
    if v == T:
        return "right"
    return "central"


def block_decomposition(f: PiecewiseDensity) -> BlockDecomposition:
    """Peel an integer step density into maximal level runs.

    Level l in 1..max contributes one block (u, v] per maximal run of
    consecutive cells with value >= l; blocks at different levels are nested,
    blocks at the same level have disjoint closures.
    """
    if not f.is_integer_step():
        raise ValueError("block decomposition needs an integer step density")
    vals = [int(p) for p, _ in f.segments]
    bp, T = f.breakpoints, f.T
    blocks: list[Block] = []
    for level in range(1, max(vals, default=0) + 1):
        j = 0
        while j < len(vals):
            if vals[j] >= level:
                start = j
                while j < len(vals) and vals[j] >= level:
                    j += 1
                u, v = bp[start], bp[j]
                blocks.append(Block(u, v, _classify(u, v, T)))
            else:
                j += 1
    return BlockDecomposition(T, tuple(blocks))
