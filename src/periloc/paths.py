"""Period-1 continuous piecewise-linear paths and exact location functionals.

Locations are rationals; the distinguished value INFINITY (IEEE +inf, which
compares correctly against any Fraction) marks "no location".

Each path builds its exact tables once, on first use, and keeps them out of
its fields (so ==, hash, repr and the JSON form do not see them): node times,
node values and piece slopes over two periods, the min and max, and, per hit
level, the merged hit intervals on [0, 1] and on [0, 2]. eval_path bisects
into the node table, and first_hit and last_hit into the two-period hit
table, in O(log n) for an n-node path, after O(n) for the node table and
O(n) more for each hit level first asked about. The vectorized hit engines
of simulate read the same two-period table. sup_location and
truncated_sup_location bisect to the window ends and compare the node values
between them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor
from typing import NamedTuple, Optional, Union

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
        return self._table.low

    def max_value(self) -> Fraction:
        return self._table.high

    @cached_property
    def _table(self) -> _NodeTable:
        nd = self.nodes
        times = [t for t, _ in nd[:-1]]
        values = [y for _, y in nd[:-1]]
        slopes = [(y1 - y0) / (t1 - t0) for (t0, y0), (t1, y1) in zip(nd, nd[1:])]
        return _NodeTable(times + [t + 1 for t in times], values * 2, slopes * 2, min(values), max(values))

    @cached_property
    def _hit_tables(self) -> dict[Fraction, tuple]:
        return {}  # level -> _hits(self, level), filled on demand


class _NodeTable(NamedTuple):
    """The nodes of two periods: node i sits at times[i] in [0, 2) with value
    values[i], and g has slope slopes[i] from there to the next node."""

    times: list[Fraction]
    values: list[Fraction]
    slopes: list[Fraction]
    low: Fraction
    high: Fraction


def eval_path(g: PiecewiseLinearPath, t: Rational) -> Fraction:
    """g(t) for any rational t (reduced mod 1)."""
    t = as_rat(t) % 1
    times, values, slopes, _, _ = g._table
    i = bisect_right(times, t) - 1
    return values[i] + slopes[i] * (t - times[i])


def hit_intervals(g: PiecewiseLinearPath, level: Rational) -> tuple[list[Fraction], list[Fraction]]:
    """{t in [0, 1]: g(t) == level} as merged closed intervals, their starts
    and their ends in order (a crossing is a zero-width interval). Built once
    per path and level; callers must not modify the lists."""
    return _hits(g, as_rat(level))[0]


def _hits(g: PiecewiseLinearPath, level: Fraction) -> tuple[tuple[list, list], tuple[list, list]]:
    """The merged hit intervals of level on [0, 1] and on [0, 2], built
    together once per path and level. The second holds the first and its
    copy one period on, which join at 1 when g(0) == g(1) == level."""
    tables = g._hit_tables
    if level not in tables:
        starts: list[Fraction] = []
        ends: list[Fraction] = []
        for (t0, y0), (t1, y1) in zip(g.nodes, g.nodes[1:]):
            if y0 == level:
                lo, hi = t0, t1 if y1 == level else t0
            elif y1 == level:
                lo = hi = t1
            elif (y0 - level) * (y1 - level) < 0:
                lo = hi = t0 + (level - y0) * (t1 - t0) / (y1 - y0)
            else:
                continue
            # pieces come in order, so a hit can only touch the last interval
            if ends and lo == ends[-1]:
                ends[-1] = hi
            else:
                starts.append(lo)
                ends.append(hi)
        lo2 = starts + [s + 1 for s in starts]
        hi2 = ends + [e + 1 for e in ends]
        if starts and ends[-1] == 1:
            del lo2[len(starts)], hi2[len(starts) - 1]
        tables[level] = (starts, ends), (lo2, hi2)
    return tables[level]


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


def _sup(g: PiecewiseLinearPath, a: Rational, b: Rational) -> tuple[Fraction, Fraction]:
    """(leftmost maximizer, max) of g on [a, b], b - a <= 1. The maximizer is
    the first of a, the nodes strictly inside (a, b) and b to reach the max:
    on each affine piece the max sits at an end."""
    a, b = as_rat(a), as_rat(b)
    _check_window(a, b)
    times, values, slopes, _, _ = g._table
    k = floor(a)
    x, y = a - k, b - k  # 0 <= x < y <= x + 1 < 2
    i = bisect_right(times, x)  # times[i - 1] <= x < times[i]
    j = bisect_left(times, y)  # times[j - 1] < y <= times[j]
    pos, val = a, values[i - 1] + slopes[i - 1] * (x - times[i - 1])
    if i < j:
        m = max(range(i, j), key=values.__getitem__)  # the first of the maxima
        if values[m] > val:
            pos, val = k + times[m], values[m]
    right = values[j - 1] + slopes[j - 1] * (y - times[j - 1])
    if right > val:
        pos, val = b, right
    return pos, val


def sup_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Leftmost maximizer of g on [a, b] (b - a <= 1). Never INFINITY."""
    return _sup(g, a, b)[0]


def truncated_sup_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Leftmost maximizer if the sup over [a, b] reaches 1/2, else INFINITY."""
    pos, val = _sup(g, a, b)
    return pos if val >= Fraction(1, 2) else INFINITY


def first_hit(g: PiecewiseLinearPath, level: Rational, a: Rational, b: Rational) -> LocationResult:
    """Smallest t in [a, b] with g(t) == level, or INFINITY."""
    level, a, b = as_rat(level), as_rat(a), as_rat(b)
    _check_window(a, b, max_len=None)
    starts, ends = _hits(g, level)[1]
    if not starts:
        return INFINITY
    k = floor(a)
    x = a - k  # in [0, 1), so an interval of [0, 2) ends at or after x
    j = bisect_left(ends, x)
    t = a if starts[j] <= x else k + starts[j]
    return t if t <= b else INFINITY


def last_hit(g: PiecewiseLinearPath, level: Rational, a: Rational, b: Rational) -> LocationResult:
    """Largest t in [a, b] with g(t) == level, or INFINITY."""
    level, a, b = as_rat(level), as_rat(a), as_rat(b)
    _check_window(a, b, max_len=None)
    starts, ends = _hits(g, level)[1]
    if not starts:
        return INFINITY
    k = floor(b) - 1
    y = b - k  # in [1, 2), so an interval of [0, 2) starts at or before y
    j = bisect_right(starts, y) - 1
    t = b if ends[j] >= y else k + ends[j]
    return t if t >= a else INFINITY


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
