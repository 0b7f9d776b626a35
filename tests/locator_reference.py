"""Piece-scan reference copies of the exact locators.

These are the locators as they were before the per-path tables: every call
rebuilds the clipped affine pieces of the window, period copy by period copy,
and scans them in order. The library must give the same value and the same
type on every call (tests/test_paths.py).
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from periloc.paths import INFINITY


def segments(g, a, b):
    """Clipped affine pieces (lo, hi, p, q) covering [a, b] in order:
    g(t) = p + q t on [lo, hi]; pieces abut, lo of the first equals a."""
    nd = g.nodes
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


def sup(g, a, b):
    """(leftmost maximizer, max) over the pieces: the first piece to report
    the global max reports its leftmost point."""
    a, b = Fraction(a), Fraction(b)
    best_val = best_pos = None
    for lo, hi, p, q in segments(g, a, b):
        if q > 0:
            pos, val = hi, p + q * hi
        else:
            pos, val = lo, p + q * lo
        if best_val is None or val > best_val:
            best_val, best_pos = val, pos
    return best_pos, best_val


def sup_location(g, a, b):
    return sup(g, a, b)[0]


def truncated_sup_location(g, a, b):
    pos, val = sup(g, a, b)
    return pos if val >= Fraction(1, 2) else INFINITY


def first_hit(g, level, a, b):
    level, a, b = Fraction(level), Fraction(a), Fraction(b)
    for lo, hi, p, q in segments(g, a, b):
        if q == 0:
            if p == level:
                return lo
            continue
        t = (level - p) / q
        if lo <= t <= hi:
            return t
    return INFINITY


def last_hit(g, level, a, b):
    level, a, b = Fraction(level), Fraction(a), Fraction(b)
    found = INFINITY
    for lo, hi, p, q in segments(g, a, b):
        if q == 0:
            if p == level:
                found = hi
            continue
        t = (level - p) / q
        if lo <= t <= hi:
            found = t
    return found


def composite_location(g, a, b):
    ys = [y for _, y in g.nodes]
    lo, hi = min(ys), max(ys)
    if lo >= 0:
        return sup_location(g, a, b)
    if lo <= -1 <= hi:
        return first_hit(g, -1, a, b)
    return last_hit(g, -2, a, b)
