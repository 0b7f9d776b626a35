"""Membership checks for location laws: the variation constraint, the
extreme classes, and a desk-scale convex-hull certificate search."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Optional, Union

from .density import LocationLaw, PiecewiseDensity, _tv_open, make_step_density, mix_laws

VERDICT_MEMBER = "member"
VERDICT_NON_MEMBER = "non-member"
VERDICT_UNKNOWN = "unknown"

# most hull candidates one search enumerates before it answers unknown
HULL_CANDIDATE_CAP = 200_000


@dataclass(frozen=True)
class MembershipReport:
    verdict: str
    violated_conditions: tuple[str, ...] = ()
    witness: object = None

    def __post_init__(self):
        if self.verdict not in (VERDICT_MEMBER, VERDICT_NON_MEMBER, VERDICT_UNKNOWN):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == VERDICT_NON_MEMBER and self.witness is None:
            raise ValueError("non-member verdict requires a witness")
        if self.verdict == VERDICT_MEMBER and self.violated_conditions:
            raise ValueError("member verdict cannot carry violations")

    @property
    def is_member(self) -> bool:
        return self.verdict == VERDICT_MEMBER


@dataclass(frozen=True)
class HullCertificate:
    """Exact convex decomposition into extreme laws: weights > 0 summing to 1."""

    components: tuple[tuple[LocationLaw, Fraction], ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("certificate needs at least one component")
        if any(w <= 0 for _, w in self.components):
            raise ValueError("weights must be positive")
        if sum(w for _, w in self.components) != 1:
            raise ValueError("weights must sum to 1")

    def mixed(self) -> LocationLaw:
        laws = [law for law, _ in self.components]
        return mix_laws(laws, [w for _, w in self.components])


# --- variation constraint ---


def _witness_points(f: PiecewiseDensity, i: int, j: int, slack: Fraction):
    """Concrete interior (t1, t2) violating the constraint by at least slack/2.

    The violating pair found by the cell scan is a limit (t1 -> left end of
    cell i from the right, t2 -> right end of cell j from the left); moving
    inward changes the margin affinely, so a small enough step keeps it
    negative.
    """
    bp = f.breakpoints
    q1 = abs(f.segments[i - 1][1])
    q2 = abs(f.segments[j - 1][1])
    # margin grows at rate <= 2|q1| in t1 and 2|q2| in t2
    step1 = min((bp[i] - bp[i - 1]) / 2, slack / (8 * q1) if q1 else bp[i] - bp[i - 1])
    step2 = min((bp[j] - bp[j - 1]) / 2, slack / (8 * q2) if q2 else bp[j] - bp[j - 1])
    t1 = bp[i - 1] + step1
    t2 = bp[j] - step2
    if i == j and t1 >= t2:
        t1, t2 = bp[i - 1] + (bp[i] - bp[i - 1]) / 3, bp[j] - (bp[j] - bp[j - 1]) / 3
    return t1, t2


def _tv_violation(f: PiecewiseDensity, drop: int) -> Optional[tuple[Fraction, Fraction]]:
    """First (t1, t2) with TV over (t1, t2) > f(t1) + f(t2) - drop, or None.

    Within a cell pair the margin f(t1) + f(t2) - TV(t1, t2) is affine in t1
    with slope q1 + |q1| >= 0 and affine in t2 with slope q2 - |q2| <= 0, so
    its infimum over all pairs is attained in the limit at cell left ends
    (cadlag values) and cell right ends (left limits). A running minimum over
    the left candidates makes the scan linear in the number of cells.

    f - c has the variation of f and values lowered by c, so drop = 2c runs
    the scan for f - c without building it.
    """
    bp = f.breakpoints
    var = Fraction(0)  # TV over (0, x_{j-1}]: slopes of cells 1..j-1, jumps at x_1..x_{j-1}
    best = None  # (f(x_{i-1}) + TV over (0, x_{i-1}], i) running minimum
    right_val = None
    for j, (p, q) in enumerate(f.segments, 1):
        left_val = p + q * bp[j - 1]
        if right_val is not None:
            var += abs(left_val - right_val)
        cand = left_val + var
        if best is None or cand < best[0]:
            best = (cand, j)
        var += abs(q) * (bp[j] - bp[j - 1])
        right_val = p + q * bp[j]  # f(x_j-)
        margin = best[0] + right_val - var - drop
        if margin < 0:
            return _witness_points(f, best[1], j, -margin)
    return None


def check_tv(f: PiecewiseDensity) -> MembershipReport:
    """Does TV over (t1, t2) stay <= f(t1) + f(t2) for all 0 < t1 < t2 < T?"""
    witness = _tv_violation(f, 0)
    if witness is not None:
        return MembershipReport(VERDICT_NON_MEMBER, ("variation-bound",), witness)
    return MembershipReport(VERDICT_MEMBER)


def check_tv_prime(f: PiecewiseDensity) -> MembershipReport:
    """Boundary form of the variation constraint: some sequence t_n down to 0
    with TV over (t_n, T - t_n) <= f(t_n) + f(T - t_n).

    For piecewise-affine f the margin is affine in t near 0 with slope
    (q_first + |q_first|) + (|q_last| - q_last) >= 0, so the condition holds
    iff it holds in the limit t -> 0+.
    """
    (p_first, _), (p_last, q_last) = f.segments[0], f.segments[-1]
    margin = p_first + (p_last + q_last * f.T) - _tv_open(f, 0, f.T)  # f(0+) + f(T-) - TV over (0, T)
    if margin < 0:
        # any small enough t violates; pick one inside the first/last cells
        t_max = min(f.breakpoints[1], f.T - f.breakpoints[-2], f.T / 2)
        q1 = abs(f.segments[0][1])
        qk = abs(f.segments[-1][1])
        rate = 2 * (q1 + qk)
        t = min(t_max / 2, (-margin) / (2 * rate) if rate else t_max / 2)
        return MembershipReport(
            VERDICT_NON_MEMBER, ("variation-bound-boundary",), (t, f.T - t)
        )
    return MembershipReport(VERDICT_MEMBER)


# --- extreme classes ---


def _density_violations(f: PiecewiseDensity) -> tuple[list[tuple[str, object]], Fraction]:
    """The ET conditions (see check_class) that read only f, each with its
    witness, in order, and f's minimum value."""
    violations: list[tuple[str, object]] = []
    if not f.is_integer_step():
        violations.append(("integer-values", "density takes non-integer values"))
    tv = check_tv(f)
    if not tv.is_member:
        violations.append(("variation-bound", tv.witness))
    cells = zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments)
    low = min(min(p + q * a, p + q * b) for (a, b), (p, q) in cells)
    return violations, low


def _atom_violations(f: PiecewiseDensity, low: Fraction, atoms: tuple) -> list[tuple[str, object]]:
    """The ET conditions (see check_class) that read the atoms (atom0, atomT,
    atomInf), given f's minimum value low: at most one, with its witness."""
    atom0, atomT, atomInf = atoms
    # truncated: all mass in [0, t] or [t, T] for some interior t
    truncated = atomInf == 0 and (
        (atomT == 0 and f.segments[-1] == (0, 0)) or (atom0 == 0 and f.segments[0] == (0, 0))
    )
    if atomInf >= 1 or truncated:
        return []
    if low < 1:
        return [("lower-bound", "density drops below 1 without truncation")]
    witness = _tv_violation(f, 2) if atomInf > 0 else None
    return [] if witness is None else [("variation-bound-minus-one", witness)]


def check_class(law: LocationLaw, cls: str) -> MembershipReport:
    """Membership in one of the extreme classes.

    ET: integer cadlag step density satisfying the variation constraint; if
    mass reaches [0, T] and is not confined to a one-sided subinterval, the
    density stays >= 1, and with mass at infinity the density minus 1 also
    satisfies the variation constraint.
    E1T: ET with no mass at infinity and density >= 1 (positive integers).
    EMT: ET with decreasing density and no atom at T.
    """
    if cls not in ("ET", "E1T", "EMT"):
        raise ValueError(f"unknown class {cls!r}")
    f = law.density
    violations, low = _density_violations(f)
    violations += _atom_violations(f, low, (law.atom0, law.atomT, law.atomInf))
    if cls == "E1T":
        if law.atomInf != 0:
            violations.append(("infinity-mass", f"atomInf={law.atomInf} != 0"))
        if all(c != "lower-bound" for c, _ in violations) and low < 1:
            violations.append(("lower-bound", "density drops below 1"))
    if cls == "EMT":
        if not f.is_decreasing():
            violations.append(("not-decreasing", "density increases somewhere"))
        if law.atomT != 0:
            violations.append(("atom-at-T", f"atomT={law.atomT} != 0"))

    if violations:
        return MembershipReport(VERDICT_NON_MEMBER, tuple(c for c, _ in violations), violations[0][1])
    return MembershipReport(VERDICT_MEMBER)


# --- convex hull of the extreme set ---


def _forced_envelope_witness(law: LocationLaw) -> Optional[MembershipReport]:
    """Non-membership by the monotone-envelope argument.

    When the density vanishes on a boundary-touching subinterval and the
    matching atoms are zero, every extreme component of a hypothetical
    mixture must vanish there too; the variation constraint then forces each
    component to be monotone toward the vanishing side. At any cell with
    non-integer density value some component must reach the ceiling value on
    the whole stretch from the boundary, and if that forced component alone
    carries mass > 1 the mixture cannot exist.
    """
    f, T = law.density, law.T
    vals = [p for p, _ in f.segments]
    if not f.is_step():
        return None
    for side in ("right", "left"):
        if side == "right":
            if law.atomT != 0 or law.atomInf != 0 or vals[-1] != 0:
                continue
        else:
            if law.atom0 != 0 or law.atomInf != 0 or vals[0] != 0:
                continue
        for j, v in enumerate(vals):
            if v.denominator == 1:
                continue
            forced = Fraction(ceil(v))
            if side == "right":
                # component >= ceil(v) on (0, x_{j+1}]
                mass = forced * f.breakpoints[j + 1]
                seg = (0, f.breakpoints[j + 1])
            else:
                mass = forced * (T - f.breakpoints[j])
                seg = (f.breakpoints[j], T)
            if mass > 1:
                witness = {
                    "forced_value": forced,
                    "interval": seg,
                    "integral": mass,
                }
                return MembershipReport(
                    VERDICT_NON_MEMBER, ("forced-component-mass",), witness
                )
    return None


def _phase1_simplex(A: list[list[Fraction]], b: list[Fraction]):
    """Solve Ax = b, x >= 0 exactly; returns x or None. Bland's rule."""
    m, n = len(A), len(A[0]) if A else 0
    # make b nonnegative
    rows = [list(row) for row in A]
    rhs = list(b)
    for i in range(m):
        if rhs[i] < 0:
            rows[i] = [-v for v in rows[i]]
            rhs[i] = -rhs[i]
    # tableau with artificial variables; minimize their sum
    tab = [rows[i] + [Fraction(1) if k == i else Fraction(0) for k in range(m)] + [rhs[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    cost = [Fraction(0)] * (n + m + 1)
    for i in range(m):  # reduced costs for objective sum of artificials
        for k in range(n + m + 1):
            cost[k] -= tab[i][k]
    for k in range(n, n + m):
        cost[k] += 1
    while True:
        enter = next((k for k in range(n + m) if cost[k] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return None  # unbounded: cannot happen for phase 1
        _, piv = best
        pv = tab[piv][enter]
        tab[piv] = [v / pv for v in tab[piv]]
        for i in range(m):
            if i != piv and tab[i][enter] != 0:
                factor = tab[i][enter]
                tab[i] = [v - factor * w for v, w in zip(tab[i], tab[piv])]
        if cost[enter] != 0:
            factor = cost[enter]
            cost = [v - factor * w for v, w in zip(cost, tab[piv])]
        basis[piv] = enter
    if -cost[-1] != 0:  # optimum of phase 1 (value stored negated in the corner)
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i][-1]
        elif tab[i][-1] != 0:
            return None  # artificial stuck at positive value
    return x


def _value_vectors(lens: list[Fraction], max_level: int):
    """(values, m) for every integer vector in [0, max_level]^k with leftover
    mass m = 1 - sum of value * cell length >= 0, in lexicographic order.

    Values are >= 0, so a prefix with m < 0 has no vector to extend to, and
    neither has the same prefix with a larger last value: both are skipped.
    """
    def extend(prefix: tuple[int, ...], m: Fraction):
        if len(prefix) == len(lens):
            yield prefix, m
            return
        length = lens[len(prefix)]
        for v in range(max_level + 1):
            rest = m - v * length
            if rest < 0:
                return
            yield from extend(prefix + (v,), rest)

    return extend((), Fraction(1))


def hull_membership_lp(law: LocationLaw) -> Union[HullCertificate, MembershipReport]:
    """Search for an exact convex decomposition into extreme laws.

    Candidates are integer step densities on the input's breakpoints with
    values up to ceil(sup f) + 1 and interior mass at most 1, each with its
    leftover mass m on one atom (all three atoms zero when m = 0), filtered
    by the ET conditions. A split of m over several atoms is a mixture of
    these: the ET conditions read the atoms only through which of them are
    zero, and zeroing atoms adds no condition. Feasibility of the exact
    equality LP yields a certificate; infeasibility yields non-member only
    when the forced-envelope argument applies, otherwise unknown.

    The conditions on the density alone run once per value vector, those on
    the atoms once per placement whose density passed; only the certificate's
    components become laws. HULL_CANDIDATE_CAP bounds the (vector, placement)
    pairs enumerated, accepted or not; a search that would enumerate more
    returns unknown with the reason "enumeration-capped".
    """
    f = law.density
    if not f.is_step():
        raise ValueError("hull test supports step densities only")
    if check_class(law, "ET").is_member:
        return HullCertificate(((law, Fraction(1)),))
    max_level = ceil(f.sup()) + 1

    lens = [b - a for a, b in zip(f.breakpoints, f.breakpoints[1:])]
    zero = Fraction(0)
    candidates: list[tuple[PiecewiseDensity, tuple[Fraction, Fraction, Fraction]]] = []
    enumerated = 0
    for values, m in _value_vectors(lens, max_level):
        density = make_step_density(f.breakpoints, values)
        violations, low = _density_violations(density)
        for atoms in ((zero, zero, m), (zero, m, zero), (m, zero, zero)) if m else ((m, m, m),):
            if enumerated == HULL_CANDIDATE_CAP:
                return MembershipReport(
                    VERDICT_UNKNOWN,
                    ("enumeration-capped",),
                    f"candidate cap {HULL_CANDIDATE_CAP} reached",
                )
            enumerated += 1
            if not violations and not _atom_violations(density, low, atoms):
                candidates.append((density, atoms))

    if candidates:
        # equality constraints: each cell value, each atom, total weight
        A: list[list[Fraction]] = []
        b: list[Fraction] = []
        for j in range(f.k):
            A.append([d.segments[j][0] for d, _ in candidates])
            b.append(f.segments[j][0])
        for i, atom in enumerate((law.atom0, law.atomT, law.atomInf)):
            A.append([atoms[i] for _, atoms in candidates])
            b.append(atom)
        A.append([Fraction(1)] * len(candidates))
        b.append(Fraction(1))
        x = _phase1_simplex(A, b)
        if x is not None:
            components = tuple(
                (LocationLaw(law.T, d, *atoms), w) for (d, atoms), w in zip(candidates, x) if w > 0
            )
            cert = HullCertificate(components)
            if cert.mixed() != law:
                raise RuntimeError("hull certificate does not mix back to the law")
            return cert

    forced = _forced_envelope_witness(law)
    if forced is not None:
        return forced
    return MembershipReport(
        VERDICT_UNKNOWN,
        ("no-certificate-in-family",),
        "no decomposition over breakpoint-restricted extreme candidates",
    )
