"""Period-1 continuous piecewise-linear paths and exact location functionals.

Locations are rationals; the distinguished value INFINITY (IEEE +inf, which
compares correctly against any Fraction) marks "no location".

Each path builds its exact tables once, on first use, and keeps them out of
its fields (so ==, hash, repr and the JSON form do not see them). The node
table holds the node times of two periods, as Fractions and as integers tau
over their least common denominator D, closed by 2D, and the node values as
integers eta over theirs, E, plus the min and max. Per hit level, keyed by
the level's numerator and denominator, the hit table holds the merged hit
intervals on [0, 1] and on [0, 2), the latter's ends also as integers over
their least common denominator H.

The locators work in these integers. A window end p/q becomes X/q in units
of 1/D (or 1/H), so bisecting tau (or the hit ends) at X // q or at its
ceiling finds the nodes (or hit intervals) on either side, and values are
compared cross-multiplied. eval_path, first_hit and last_hit cost O(log n)
for an n-node path, after O(n) for the node table and O(n) more for each
hit level first asked about; sup_location and truncated_sup_location add a
scan of the node values inside the window. A result is a window end, a
stored time, or a stored time shifted by the whole periods before the
window, so a locator given Fractions builds at most that one Fraction, and
eval_path builds just its value. The vectorized engines of simulate read
the same tables.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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
        times = [t for t, _ in self.nodes[:-1]]
        values = [y for _, y in self.nodes[:-1]]
        D = lcm(*(t.denominator for t in times))
        E = lcm(*(y.denominator for y in values))
        tau = [t.numerator * (D // t.denominator) for t in times]
        eta = [y.numerator * (E // y.denominator) for y in values]
        return _NodeTable(
            times + [t + 1 for t in times],
            tau + [t + D for t in tau] + [2 * D],
            eta * 2 + eta[:1],
            D,
            E,
            min(values),
            max(values),
        )

    @cached_property
    def _hit_tables(self) -> dict[tuple[int, int], _HitTable]:
        return {}  # (level numerator, denominator) -> _hits(self, level), filled on demand


class _NodeTable(NamedTuple):
    """The nodes of two periods: node i sits at times[i] in [0, 2), which is
    tau[i] / D, with value eta[i] / E; D and E are the least common
    denominators of the node times and values. tau and eta close with node
    2n, at 2 with g(0), so g on the piece from node i is the line through
    (tau[i], eta[i]) and (tau[i + 1], eta[i + 1]) for every i < 2n."""

    times: list[Fraction]
    tau: list[int]
    eta: list[int]
    D: int
    E: int
    low: Fraction
    high: Fraction


def _line(tau: list[int], eta: list[int], i: int, X: int, q: int) -> tuple[int, int]:
    """g(t) * E on the piece from node i, at t = X / (q D), as a numerator
    over a positive denominator."""
    L = tau[i + 1] - tau[i]
    return eta[i] * L * q + (eta[i + 1] - eta[i]) * (X - tau[i] * q), L * q


def eval_path(g: PiecewiseLinearPath, t: Rational) -> Fraction:
    """g(t) for any rational t (reduced mod 1)."""
    t = as_rat(t)
    _, tau, eta, D, E, _, _ = g._table
    p, q = t.numerator, t.denominator
    X = p % q * D  # t mod 1 is X / (q D)
    num, den = _line(tau, eta, bisect_right(tau, X // q) - 1, X, q)
    return Fraction(num, den * E)


def hit_intervals(g: PiecewiseLinearPath, level: Rational) -> tuple[list[Fraction], list[Fraction]]:
    """{t in [0, 1]: g(t) == level} as merged closed intervals, their starts
    and their ends in order (a crossing is a zero-width interval). Built once
    per path and level; callers must not modify the lists."""
    return _hits(g, as_rat(level)).one


class _HitTable(NamedTuple):
    """The merged hit intervals of one level: on [0, 1] as (starts, ends),
    on [0, 2) as (starts, ends), and the latter's starts and ends again as
    integers, starts_h and ends_h, over their least common denominator H."""

    one: tuple[list[Fraction], list[Fraction]]
    two: tuple[list[Fraction], list[Fraction]]
    H: int
    starts_h: list[int]
    ends_h: list[int]


def _hits(g: PiecewiseLinearPath, level: Fraction) -> _HitTable:
    """The hit table of level, built once per path and level. Its two-period
    intervals hold those of [0, 1] and their copy one period on, which join
    at 1 when g(0) == g(1) == level."""
    tables = g._hit_tables
    key = level.numerator, level.denominator
    table = tables.get(key)
    if table is None:
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
        H = lcm(*(t.denominator for t in lo2 + hi2))
        table = _HitTable(
            (starts, ends),
            (lo2, hi2),
            H,
            [t.numerator * (H // t.denominator) for t in lo2],
            [t.numerator * (H // t.denominator) for t in hi2],
        )
        tables[key] = table
    return table


def shift(g: PiecewiseLinearPath, c: Rational) -> PiecewiseLinearPath:
    """The path t -> g(t + c), renormalized to nodes on [0, 1]."""
    c = as_rat(c) % 1
    times = sorted({(t - c) % 1 for t, _ in g.nodes} | {Fraction(0)})
    nodes = [(t, eval_path(g, t + c)) for t in times]
    nodes.append((Fraction(1), nodes[0][1]))
    return PiecewiseLinearPath(tuple(nodes))


def _check_window(a: Fraction, b: Fraction, one_period: bool = True):
    """Raise ValueError unless a < b and, for one_period, b - a <= 1."""
    qa, qb = a.denominator, b.denominator
    d = b.numerator * qa - a.numerator * qb  # (b - a) * qa * qb
    if d <= 0:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if one_period and d > qa * qb:
        raise ValueError(f"window [{a}, {b}] longer than one period")


def _sup(g: PiecewiseLinearPath, a: Rational, b: Rational) -> tuple[Fraction, int, int]:
    """(leftmost maximizer, max as a numerator over a positive denominator)
    of g on [a, b], b - a <= 1. The maximizer is the first of a, the nodes
    strictly inside (a, b) and b to reach the max: on each affine piece the
    max sits at an end."""
    a, b = as_rat(a), as_rat(b)
    _check_window(a, b)
    times, tau, eta, D, E, _, _ = g._table
    pa, qa, pb, qb = a.numerator, a.denominator, b.numerator, b.denominator
    k = pa // qa
    # the window less k is [X / (qa D), Y / (qb D)], 0 <= X / qa < D and
    # X / qa < Y / qb <= X / qa + D < 2D
    X, Y = (pa - k * qa) * D, (pb - k * qb) * D
    i = bisect_right(tau, X // qa)  # tau[i - 1] <= X / qa < tau[i]
    j = bisect_left(tau, -(-Y // qb))  # tau[j - 1] < Y / qb <= tau[j]
    pos = a
    num, den = _line(tau, eta, i - 1, X, qa)
    if i < j:
        m = max(range(i, j), key=eta.__getitem__)  # the first of the maxima
        if eta[m] * den > num:
            pos, num, den = times[m] if k == 0 else k + times[m], eta[m], 1
    right, rden = _line(tau, eta, j - 1, Y, qb)
    if right * den > num * rden:
        pos, num, den = b, right, rden
    return pos, num, den * E


def sup_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Leftmost maximizer of g on [a, b] (b - a <= 1). Never INFINITY."""
    return _sup(g, a, b)[0]


def truncated_sup_location(g: PiecewiseLinearPath, a: Rational, b: Rational) -> LocationResult:
    """Leftmost maximizer if the sup over [a, b] reaches 1/2, else INFINITY."""
    pos, num, den = _sup(g, a, b)
    return pos if 2 * num >= den else INFINITY


def first_hit(g: PiecewiseLinearPath, level: Rational, a: Rational, b: Rational) -> LocationResult:
    """Smallest t in [a, b] with g(t) == level, or INFINITY."""
    level, a, b = as_rat(level), as_rat(a), as_rat(b)
    _check_window(a, b, one_period=False)
    _, (starts, _), H, starts_h, ends_h = _hits(g, level)
    if not starts:
        return INFINITY
    pa, qa = a.numerator, a.denominator
    k = pa // qa
    X = (pa - k * qa) * H  # a - k is X / (qa H), in [0, 1)
    j = bisect_left(ends_h, -(-X // qa))  # the first interval ending at or after a - k
    if starts_h[j] <= X // qa:
        return a
    if (k * H + starts_h[j]) * b.denominator > b.numerator * H:
        return INFINITY
    return starts[j] if k == 0 else k + starts[j]


def last_hit(g: PiecewiseLinearPath, level: Rational, a: Rational, b: Rational) -> LocationResult:
    """Largest t in [a, b] with g(t) == level, or INFINITY."""
    level, a, b = as_rat(level), as_rat(a), as_rat(b)
    _check_window(a, b, one_period=False)
    _, (_, ends), H, starts_h, ends_h = _hits(g, level)
    if not ends:
        return INFINITY
    pb, qb = b.numerator, b.denominator
    k = pb // qb - 1
    Y = (pb - k * qb) * H  # b - k is Y / (qb H), in [1, 2)
    j = bisect_right(starts_h, Y // qb) - 1  # the last interval starting by b - k
    if ends_h[j] >= -(-Y // qb):
        return b
    if (k * H + ends_h[j]) * a.denominator < a.numerator * H:
        return INFINITY
    return ends[j] if k == 0 else k + ends[j]


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
