"""Partial-order reference copies of `poset.reach` and `poset.poset_location`.

These are the point-system operations as they were before the order key:
a general "r <= s" predicate on periodic copies, every point unrolled and
sorted over four periods for each reach, and a pairwise search for the
maximal copies in each window. The library must give the same value and
the same type on every call, and the same error text on ties
(tests/test_poset.py).
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from periloc.paths import INFINITY
from periloc.poset import Reach


def dominates_or_equal(ps, r_base, r_pos, s_base, s_pos):
    """r <= s in the order, for unrolled copies at positions r_pos, s_pos."""
    if r_pos == s_pos and r_base == s_base:
        return True
    if ps.order_kind == "first_time":
        return s_pos <= r_pos
    if ps.order_kind == "last_time":
        return r_pos <= s_pos
    if r_base == s_base:
        return False  # periodic copies are incomparable
    rank = dict(zip(ps.points, ps.explicit_order))
    return rank[r_base] < rank[s_base]


def unrolled(ps, lo, hi):
    """(base, position) for every periodic copy with lo <= position <= hi."""
    out = []
    for base in ps.points:
        pos = base + floor(lo - base)
        while pos <= hi:
            if pos >= lo:
                out.append((base, pos))
            pos += 1
    out.sort(key=lambda bp: bp[1])
    return out


def reach(ps, s):
    """Nearest non-dominated copy on each side, within two periods of s."""
    s = Fraction(s)
    if s not in ps.points:
        raise ValueError(f"{s} is not a point of the system")
    a = b = INFINITY
    for base, pos in unrolled(ps, s - 2, s + 2):
        if pos == s and base == s:
            continue
        if dominates_or_equal(ps, base, pos, s, s):
            continue  # r <= s: not a blocker
        if pos < s:
            a = min(a, s - pos)
        elif pos > s:
            b = min(b, pos - s)
        else:
            raise RuntimeError("distinct points cannot share a position")
    return Reach(a, b)


def poset_location(ps, a, b):
    """The copies in [a, b] that lie below no other copy there; exactly one
    or a ValueError."""
    a, b = Fraction(a), Fraction(b)
    if a >= b or b - a > 1:
        raise ValueError("need a < b with b - a <= 1")
    present = unrolled(ps, a, b)
    if not present:
        return INFINITY
    maximal = [
        (rb, rp)
        for rb, rp in present
        if not any(
            (rb, rp) != (sb, sp) and dominates_or_equal(ps, rb, rp, sb, sp)
            for sb, sp in present
        )
    ]
    if len(maximal) != 1:
        raise ValueError(f"order admits {len(maximal)} maximal elements on [{a}, {b}]")
    return maximal[0][1]
