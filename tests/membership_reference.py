"""Law-level reference copies of `check_tv`, `check_tv_prime`, `check_class`
and the hull search.

These are the membership checks as they were before the ET conditions
became one check on a density and its atoms: prefix sums of the slope and
jump variation built before each scan, the truncation test read off a whole
`LocationLaw`, the minimum value computed per condition, the minus-one
condition checked by running `check_tv` on an explicit f - 1, and a hull
search that walks every value vector in `product` order and builds a
`LocationLaw` and runs `check_class` for each (vector, atoms) pair. The
library must give the same reports and the same certificates, component
by component (tests/test_membership.py).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import ceil

from periloc import membership
from periloc.density import LocationLaw, PiecewiseDensity, make_step_density
from periloc.membership import (
    VERDICT_MEMBER,
    VERDICT_NON_MEMBER,
    VERDICT_UNKNOWN,
    HullCertificate,
    MembershipReport,
    _CLASS_ALIASES,
    _forced_envelope_witness,
    _phase1_simplex,
    _witness_points,
)


def tv_prefixes(f):
    """S[j]: slope variation of cells 1..j; J[j]: jumps at x_1..x_j."""
    S = [Fraction(0)]
    for (a, b), (_, q) in zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments):
        S.append(S[-1] + abs(q) * (b - a))
    J = [Fraction(0)]
    for jump in f.jumps():
        J.append(J[-1] + abs(jump))
    return S, J


def check_tv(f):
    S, J = tv_prefixes(f)
    bp = f.breakpoints
    best = None  # (f(x_{i-1}) + S[i-1] + J[i-1], i) running minimum
    for j in range(1, f.k + 1):
        p, q = f.segments[j - 1]
        left_val = p + q * bp[j - 1]
        cand = left_val + S[j - 1] + J[j - 1]
        if best is None or cand < best[0]:
            best = (cand, j)
        right_val = p + q * bp[j]  # f(x_j-)
        margin = best[0] + right_val - (S[j] + J[j - 1])
        if margin < 0:
            t1, t2 = _witness_points(f, best[1], j, -margin)
            return MembershipReport(VERDICT_NON_MEMBER, ("variation-bound",), (t1, t2))
    return MembershipReport(VERDICT_MEMBER)


def check_tv_prime(f):
    S, J = tv_prefixes(f)
    tv_full = S[f.k] + J[f.k - 1]
    (p_first, _), (p_last, q_last) = f.segments[0], f.segments[-1]
    margin = p_first + (p_last + q_last * f.T) - tv_full
    if margin < 0:
        t_max = min(f.breakpoints[1], f.T - f.breakpoints[-2], f.T / 2)
        q1 = abs(f.segments[0][1])
        qk = abs(f.segments[-1][1])
        rate = 2 * (q1 + qk)
        t = min(t_max / 2, (-margin) / (2 * rate) if rate else t_max / 2)
        return MembershipReport(VERDICT_NON_MEMBER, ("variation-bound-boundary",), (t, f.T - t))
    return MembershipReport(VERDICT_MEMBER)


def has_truncation(law):
    """Is all mass confined to [0, t] or [t, T] for some interior t?"""
    if law.atomInf > 0:
        return False
    f = law.density
    if law.atomT == 0:
        p, q = f.segments[-1]
        if p + q * f.breakpoints[-2] == 0 and q == 0:
            return True
    if law.atom0 == 0:
        p, q = f.segments[0]
        if p == 0 and q == 0:
            return True
    return False


def min_value(f):
    return min(
        min(p + q * a, p + q * b)
        for (a, b), (p, q) in zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments)
    )


def minus_one(f):
    return PiecewiseDensity(f.breakpoints, tuple((p - 1, q) for p, q in f.segments))


def check_class(law, cls):
    try:
        cls = _CLASS_ALIASES[cls.upper().replace("-", "_")]
    except KeyError:
        raise ValueError(f"unknown class {cls!r}") from None
    f = law.density
    violated = []
    witness = None

    if not f.is_integer_step():
        violated.append("integer-values")
        witness = witness or "density takes non-integer values"
    tv = check_tv(f)
    if not tv.is_member:
        violated.append("variation-bound")
        witness = witness or tv.witness

    mass_on_interval = 1 - law.atomInf
    needs_lower_bound = mass_on_interval > 0 and not has_truncation(law)
    if needs_lower_bound and min_value(f) < 1:
        violated.append("lower-bound")
        witness = witness or "density drops below 1 without truncation"
    if needs_lower_bound and law.atomInf > 0 and min_value(f) >= 1:
        tv1 = check_tv(minus_one(f))
        if not tv1.is_member:
            violated.append("variation-bound-minus-one")
            witness = witness or tv1.witness

    if cls == "E1T":
        if law.atomInf != 0:
            violated.append("infinity-mass")
            witness = witness or f"atomInf={law.atomInf} != 0"
        if min_value(f) < 1:
            if "lower-bound" not in violated:
                violated.append("lower-bound")
            witness = witness or "density drops below 1"
    if cls == "EMT":
        if not f.is_decreasing():
            violated.append("not-decreasing")
            witness = witness or "density increases somewhere"
        if law.atomT != 0:
            violated.append("atom-at-T")
            witness = witness or f"atomT={law.atomT} != 0"

    if violated:
        return MembershipReport(VERDICT_NON_MEMBER, tuple(violated), witness)
    return MembershipReport(VERDICT_MEMBER)


def hull_membership_lp(law):
    f = law.density
    if not f.is_step():
        raise ValueError("hull test supports step densities only")
    if check_class(law, "ET").is_member:
        return HullCertificate(((law, Fraction(1)),))
    max_level = ceil(f.sup()) + 1

    lens = [b - a for a, b in zip(f.breakpoints, f.breakpoints[1:])]
    zero = Fraction(0)
    pairs = (
        (values, atoms)
        for values in product(range(max_level + 1), repeat=f.k)
        if (m := 1 - sum(v * l for v, l in zip(values, lens))) >= 0
        for atoms in (((zero, zero, m), (zero, m, zero), (m, zero, zero)) if m else ((m, m, m),))
    )
    cap = membership.HULL_CANDIDATE_CAP
    candidates = []
    for enumerated, (values, atoms) in enumerate(pairs):
        if enumerated == cap:
            return MembershipReport(
                VERDICT_UNKNOWN, ("enumeration-capped",), f"candidate cap {cap} reached"
            )
        cand = LocationLaw(law.T, make_step_density(f.breakpoints, [Fraction(v) for v in values]), *atoms)
        if check_class(cand, "ET").is_member:
            candidates.append(cand)

    if candidates:
        A = [[c.density.segments[j][0] for c in candidates] for j in range(f.k)]
        b = [f.segments[j][0] for j in range(f.k)]
        for attr in ("atom0", "atomT", "atomInf"):
            A.append([getattr(c, attr) for c in candidates])
            b.append(getattr(law, attr))
        A.append([Fraction(1)] * len(candidates))
        b.append(Fraction(1))
        x = _phase1_simplex(A, b)
        if x is not None:
            return HullCertificate(tuple((c, w) for c, w in zip(candidates, x) if w > 0))

    forced = _forced_envelope_witness(law)
    if forced is not None:
        return forced
    return MembershipReport(
        VERDICT_UNKNOWN,
        ("no-certificate-in-family",),
        "no decomposition over breakpoint-restricted extreme candidates",
    )
