"""Period-1 continuous piecewise-linear paths and exact location functionals.

Locations are rationals; the distinguished value INFINITY (IEEE +inf, which
compares correctly against any Fraction) marks "no location".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Iterator, Optional, Union

from .density import Rational, as_rat

INFINITY = float("inf")

LocationResult = Union[Fraction, float]


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Continuous path on [0, 1] extended periodically: g(t + 1) = g(t).

    nodes: ((t_0, y_0), ..., (t_n, y_n)) with 0 = t_0 < ... < t_n = 1 and
    y_0 = y_n; values interpolate linearly between nodes.
    """

    nodes: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        nd = tuple((as_rat(t), as_rat(y)) for t, y in self.nodes)
        object.__setattr__(self, "nodes", nd)
        if len(nd) < 2:
            raise ValueError("need at least the two period endpoints")
        if nd[0][0] != 0 or nd[-1][0] != 1:
            raise ValueError("node times must start at 0 and end at 1")
        if any(a[0] >= b[0] for a, b in zip(nd, nd[1:])):
            raise ValueError("node times must be strictly increasing")
        if nd[0][1] != nd[-1][1]:
            raise ValueError("period seam mismatch: g(0) != g(1)")

    def min_value(self) -> Fraction:
        return min(y for _, y in self.nodes)

    def max_value(self) -> Fraction:
        return max(y for _, y in self.nodes)

    def segments(self, a: Fraction, b: Fraction) -> Iterator[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """Clipped affine pieces (lo, hi, p, q) covering [a, b] in order:
        g(t) = p + q t on [lo, hi]; pieces abut, lo of the first equals a."""
        nd = self.nodes
        for k in range(floor(a), floor(b) + 1):
            if k + 1 <= a or k >= b:
                continue
            for (t0, y0), (t1, y1) in zip(nd, nd[1:]):
                lo, hi = t0 + k, t1 + k
                if hi <= a or lo >= b:
                    continue
                q = (y1 - y0) / (t1 - t0)
                p = y0 - q * lo
                yield max(lo, a), min(hi, b), p, q


def eval_path(g: PiecewiseLinearPath, t: Rational) -> Fraction:
    """g(t) for any rational t (reduced mod 1)."""
    t = as_rat(t) % 1
    nd = g.nodes
    lo, hi = 0, len(nd) - 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if nd[mid][0] <= t:
            lo = mid
        else:
            hi = mid - 1
    (t0, y0), (t1, y1) = nd[lo], nd[lo + 1]
    return y0 + (y1 - y0) * (t - t0) / (t1 - t0)


def shift(g: PiecewiseLinearPath, c: Rational) -> PiecewiseLinearPath:
    """The path t -> g(t + c), renormalized to nodes on [0, 1]."""
    c = as_rat(c) % 1
    times = sorted({(t - c) % 1 for t, _ in g.nodes} | {Fraction(0)})
    nodes = [(t, eval_path(g, t + c)) for t in times]
    nodes.append((Fraction(1), nodes[0][1]))
    return PiecewiseLinearPath(tuple(nodes))


def _check_window(a: Fraction, b: Fraction, max_len: Fraction | None = 1):
    if a >= b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if max_len is not None and b - a > max_len:
        raise ValueError(f"window [{a}, {b}] longer than one period")


def sup_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Leftmost maximizer of g on [a, b] (b - a <= 1). Never INFINITY."""
    a, b = as_rat(a), as_rat(b)
    _check_window(a, b)
    best_val = None
    best_pos = None
    for lo, hi, p, q in g.segments(a, b):
        if q > 0:
            pos, val = hi, p + q * hi
        else:
            pos, val = lo, p + q * lo  # flat piece: leftmost point
        if best_val is None or val > best_val:
            best_val, best_pos = val, pos
    return best_pos


def truncated_sup_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Leftmost maximizer if the sup over [a, b] reaches 1/2, else INFINITY."""
    pos = sup_location(g, a, b)
    if eval_path(g, pos) >= Fraction(1, 2):
        return pos
    return INFINITY


def first_hit(g: PiecewiseLinearPath, level: Rational, a: Rational, b: Rational) -> LocationResult:
    """Smallest t in [a, b] with g(t) == level, or INFINITY."""
    level, a, b = as_rat(level), as_rat(a), as_rat(b)
    _check_window(a, b, max_len=None)
    for lo, hi, p, q in g.segments(a, b):
        if q == 0:
            if p == level:
                return lo
            continue
        t = (level - p) / q
        if lo <= t <= hi:
            return t
    return INFINITY


def last_hit(g: PiecewiseLinearPath, level: Rational, a: Rational, b: Rational) -> LocationResult:
    """Largest t in [a, b] with g(t) == level, or INFINITY."""
    level, a, b = as_rat(level), as_rat(a), as_rat(b)
    _check_window(a, b, max_len=None)
    found = INFINITY
    for lo, hi, p, q in g.segments(a, b):
        if q == 0:
            if p == level:
                found = hi
            continue
        t = (level - p) / q
        if lo <= t <= hi:
            found = t
    return found


def composite_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Case-split locator: leftmost maximizer when the path never goes below
    zero; otherwise the first hit of -1 when the path attains it; otherwise
    the last hit of -2. The case split uses the whole period, so it is a
    property of the path, not of the window (see Locator.route)."""
    return _COMPOSITE(g, a, b)


_HIT_KINDS = ("first-hit", "last-hit")
_KINDS = ("sup", "truncated-sup", "composite", *_HIT_KINDS)


@dataclass(frozen=True)
class Locator:
    """One location functional of the family: its kind (sup, truncated-sup,
    composite, first-hit or last-hit) and, for the hit kinds only, the level.
    Calling it evaluates the location exactly, like the function of its kind."""

    kind: str
    level: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown locator kind {self.kind!r}")
        if (self.level is None) == (self.kind in _HIT_KINDS):
            need = "needs a" if self.level is None else "takes no"
            raise ValueError(f"locator kind {self.kind!r} {need} level")
        if self.level is not None:
            object.__setattr__(self, "level", as_rat(self.level))

    def route(self, g: PiecewiseLinearPath) -> "Locator":
        """The non-composite locator this one amounts to on g: composite
        resolves by the range of g over the whole period."""
        if self.kind != "composite":
            return self
        lo, hi = g.min_value(), g.max_value()
        if lo >= 0:
            return _SUP
        if lo <= -1 <= hi:
            return _FIRST_HIT_MINUS_ONE
        return _LAST_HIT_MINUS_TWO

    def __call__(self, g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
        loc = self.route(g)
        if loc.kind == "sup":
            return sup_location(g, a, b)
        if loc.kind == "truncated-sup":
            return truncated_sup_location(g, a, b)
        if loc.kind == "first-hit":
            return first_hit(g, loc.level, a, b)
        return last_hit(g, loc.level, a, b)


_SUP = Locator("sup")
_FIRST_HIT_MINUS_ONE = Locator("first-hit", Fraction(-1))
_LAST_HIT_MINUS_TWO = Locator("last-hit", Fraction(-2))
_COMPOSITE = Locator("composite")


def locator_by_name(name: str) -> Locator:
    """Parse a locator name: sup, truncated-sup, composite, first-hit:LEVEL,
    last-hit:LEVEL (LEVEL a rational literal). Raises ValueError."""
    kind, sep, level = name.partition(":")
    try:
        return Locator(kind, level if sep else None)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad locator {name!r}: {exc}") from exc
