"""Finite ordered point systems: exact reach distances, window maxima, the
counting-formula density, and an exact sweep oracle.

Each of the three order kinds is a total preorder given by one key per
periodic copy (`PointSystem.key`): copy r lies below copy s exactly when r is
not s and key(r) < key(s). Two different copies share a key only in the
explicit order, and then they are copies of one point, which are
incomparable.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil
from typing import Optional

from .density import LocationLaw, Rational, as_rat, span_density
from .paths import INFINITY, LocationResult

ORDER_KINDS = ("first_time", "last_time", "explicit")


@dataclass(frozen=True)
class PointSystem:
    """One period of a shift-equivariant point set with a period-consistent order.

    points: distinct rationals in [0, 1).
    order_kind: first_time (earlier dominates), last_time (later dominates),
    or explicit (injective ranks per point; periodic copies of the same point
    are mutually incomparable).
    """

    points: tuple[Fraction, ...]
    order_kind: str
    explicit_order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        pts = tuple(sorted(as_rat(p) for p in self.points))
        object.__setattr__(self, "points", pts)
        if any(not 0 <= p < 1 for p in pts):
            raise ValueError("points must lie in [0, 1)")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        if self.order_kind not in ORDER_KINDS:
            raise ValueError(f"unknown order kind {self.order_kind!r}")
        if self.order_kind == "explicit":
            if self.explicit_order is None:
                raise ValueError("explicit order needs ranks")
            ranks = tuple(int(r) for r in self.explicit_order)
            if len(ranks) != len(pts) or len(set(ranks)) != len(ranks):
                raise ValueError("need one distinct rank per point")
            object.__setattr__(self, "explicit_order", ranks)
        elif self.explicit_order is not None:
            raise ValueError("ranks only make sense for explicit order")

    def rank(self, point: Fraction) -> int:
        try:
            return self._ranks[point]
        except KeyError:
            raise ValueError(f"{point} is not a point of the system") from None

    @cached_property
    def _ranks(self) -> dict[Fraction, int]:
        return dict(zip(self.points, self.explicit_order))

    def key(self, base: Fraction, pos: Fraction) -> Fraction | int:
        """Order key of the periodic copy of point `base` at position `pos`:
        a higher key is higher in the order."""
        if self.order_kind == "first_time":
            return -pos
        if self.order_kind == "last_time":
            return pos
        return self.rank(base)


@dataclass(frozen=True)
class Reach:
    """Largest distances one can extend from a point without meeting a
    strictly higher-ordered (or incomparable) point."""

    a: LocationResult  # leftward
    b: LocationResult  # rightward


def reach(ps: PointSystem, s: Rational) -> Reach:
    """Distance from s to the nearest copy on each side whose key is at least
    s's, or INFINITY.

    Each side scans the other points nearest first, then the copy of s one
    period away; that is far enough. In the explicit order the copies of s at
    s - 1 and s + 1 have s's key and block. In the first-time order every
    earlier copy is above s and no later one is; the last-time order is the
    mirror.
    """
    s = as_rat(s)
    pts = ps.points
    n = len(pts)
    i = bisect_left(pts, s)
    if i == n or pts[i] != s:
        raise ValueError(f"{s} is not a point of the system")
    top = ps.key(s, s)
    sides: list[LocationResult] = []
    for step in (-1, 1):
        dist: LocationResult = INFINITY
        for j in range(1, n + 1):
            q, r = divmod(i + step * j, n)
            pos = pts[r] + q
            if ps.key(pts[r], pos) >= top:
                dist = abs(pos - s)
                break
        sides.append(dist)
    return Reach(*sides)


def poset_location(ps: PointSystem, a: Rational, b: Rational) -> LocationResult:
    """The unique maximal element of the system inside [a, b], or INFINITY.

    Raises on ties (the representation requires a unique maximum)."""
    a, b = as_rat(a), as_rat(b)
    if a >= b or b - a > 1:
        raise ValueError("need a < b with b - a <= 1")
    best: LocationResult = INFINITY
    best_key = None
    tied = False
    for base in ps.points:
        # b - a <= 1: at most two copies of a point lie in [a, b]
        pos = base + ceil(a - base)
        while pos <= b:
            k = ps.key(base, pos)
            if best_key is None or k > best_key:
                best, best_key, tied = pos, k, False
            elif k == best_key:
                tied = True
            pos += 1
    if tied:
        raise ValueError(f"order admits 2 maximal elements on [{a}, {b}]")
    return best


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
