"""Finite ordered point systems: exact reach distances, window maxima, the
counting-formula density, and an exact sweep oracle.

Each of the three order kinds is a total preorder given by one integer key
per periodic copy: copy r lies below copy s exactly when r is not s and
key(r) < key(s). A system builds its copies in [-1, 2) and their keys once
(`PointSystem._copies`); reaches scan that table and window maxima bisect
into it. Two different copies share a key only in the explicit order, and
then they are copies of one point, which are incomparable.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor
from typing import Optional

from .density import LocationLaw, Rational, as_rat, span_density
from .paths import INFINITY, LocationResult

ORDER_KINDS = ("first_time", "last_time", "explicit")


@dataclass(frozen=True)
class PointSystem:
    """One period of a shift-equivariant point set with a period-consistent order.

    points: distinct rationals in [0, 1), stored sorted.
    order_kind: first_time (earlier dominates), last_time (later dominates),
    or explicit (injective ranks, paired with the points as listed; periodic
    copies of the same point are mutually incomparable).
    """

    points: tuple[Fraction, ...]
    order_kind: str
    explicit_order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        pts = tuple(as_rat(p) for p in self.points)
        if any(not 0 <= p < 1 for p in pts):
            raise ValueError("points must lie in [0, 1)")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if self.order_kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.order_kind!r}")
        ranks = self.explicit_order
        if self.order_kind == "explicit":
            if ranks is None:
                raise ValueError("explicit order needs ranks")
            ranks = tuple(int(r) for r in ranks)
            if len(ranks) != len(pts) or len(set(ranks)) != len(ranks):
                raise ValueError("need one distinct rank per point")
        elif ranks is not None:
            raise ValueError("ranks only make sense for explicit order")
        # sort the points, each rank staying with its point
        order = sorted(range(len(pts)), key=pts.__getitem__)
        object.__setattr__(self, "points", tuple(pts[i] for i in order))
        if ranks is not None:
            object.__setattr__(self, "explicit_order", tuple(ranks[i] for i in order))

    @cached_property
    def _copies(self) -> tuple[list[Fraction], list[int]]:
        """Positions of the periodic copies in [-1, 2), ascending, and each
        copy's order key: a higher key is higher in the order."""
        n = len(self.points)
        pos = [p + k for k in (-1, 0, 1) for p in self.points]
        if self.order_kind == "first_time":
            keys = list(range(3 * n, 0, -1))
        elif self.order_kind == "last_time":
            keys = list(range(3 * n))
        else:
            keys = list(self.explicit_order) * 3
        return pos, keys


@dataclass(frozen=True)
class Reach:
    """Largest distances one can extend from a point without meeting a
    strictly higher-ordered (or incomparable) point."""

    a: LocationResult  # leftward
    b: LocationResult  # rightward


def reach(ps: PointSystem, s: Rational) -> Reach:
    """Distance from s to the nearest copy on each side whose key is at least
    s's, or INFINITY.

    Each side scans the n copies nearest to s's copy in [0, 1), the last of
    them the copy of s one period away; that is far enough. In the explicit
    order the copies of s at s - 1 and s + 1 have s's key and block. In the
    first-time order every earlier copy is above s and no later one is; the
    last-time order is the mirror.
    """
    s = as_rat(s)
    pts = ps.points
    n = len(pts)
    i = bisect_left(pts, s)
    if i == n or pts[i] != s:
        raise ValueError(f"{s} is not a point of the system")
    pos, keys = ps._copies
    c = n + i  # s's own copy
    top = keys[c]

    def nearest(side: range) -> LocationResult:
        return next((abs(pos[j] - s) for j in side if keys[j] >= top), INFINITY)

    return Reach(nearest(range(c - 1, i - 1, -1)), nearest(range(c + 1, c + n + 1)))


def poset_location(ps: PointSystem, a: Rational, b: Rational) -> LocationResult:
    """The unique maximal element of the system inside [a, b], or INFINITY.

    Raises on ties (the representation requires a unique maximum)."""
    a, b = as_rat(a), as_rat(b)
    if a >= b or b - a > 1:
        raise ValueError("need a < b with b - a <= 1")
    # shifted by k, the window lies in [0, 2), inside the copy table
    k = floor(a)
    pos, keys = ps._copies
    lo, hi = bisect_left(pos, a - k), bisect_right(pos, b - k)
    if lo == hi:
        return INFINITY
    window = keys[lo:hi]
    top = max(window)
    if window.count(top) > 1:
        raise ValueError(f"order admits 2 maximal elements on [{a}, {b}]")
    return pos[lo + window.index(top)] + k


# --- the counting-formula density and the exact sweep oracle ---


def counting_density(ps: PointSystem, T: Rational) -> LocationLaw:
    """Law with density f(t) = #{s: a_s >= t and b_s >= T - t} (cadlag cells)
    and mass at infinity equal to the shift measure of empty windows."""
    T = as_rat(T)
    if not 0 < T <= 1:
        raise ValueError("need 0 < T <= 1")
    # point s counts at t iff a_s >= t and b_s >= T - t: the span (T - b_s, a_s)
    reaches = [reach(ps, s) for s in ps.points]
    density = span_density(T, [(T - r.b, r.a) for r in reaches])
    # a window [u, u + T] misses every point exactly when it fits inside a gap
    pts = ps.points
    ends = pts[1:] + tuple(p + 1 for p in pts[:1])
    atom_inf = sum((max(b - a - T, 0) for a, b in zip(pts, ends)), Fraction(0)) if pts else Fraction(1)
    return LocationLaw(T, density, atomInf=atom_inf)


def sweep_oracle(ps: PointSystem, T: Rational) -> LocationLaw:
    """Exact law of poset_location over a uniform shift, by decomposing the
    shift range at the events where the window's point set changes.

    On each open event interval the winning copy is fixed, so the location
    runs affinely across a subinterval of (0, T), contributing one unit of
    density there; empty windows contribute mass at infinity.
    """
    T = as_rat(T)
    if not 0 < T <= 1:
        raise ValueError("need 0 < T <= 1")
    if not ps.points:
        return LocationLaw(T, span_density(T, []), atomInf=1)
    events = sorted({s % 1 for s in ps.points} | {(s - T) % 1 for s in ps.points})
    spans: list[tuple[Fraction, Fraction]] = []  # location intervals, unit weight
    atom_inf = Fraction(0)
    pairs = list(zip(events, events[1:])) + [(events[-1], events[0] + 1)]
    for e1, e2 in pairs:
        if e1 == e2:
            continue
        mid = (e1 + e2) / 2
        m = poset_location(ps, mid, mid + T)
        if m == INFINITY:
            atom_inf += e2 - e1
        else:
            # location = m - U for U in (e1, e2)
            spans.append((m - e2, m - e1))
    return LocationLaw(T, span_density(T, spans), atomInf=atom_inf)
