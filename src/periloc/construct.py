"""Realize admissible laws as periodic piecewise-linear paths.

Three constructions:

* ``construct_invariant`` -- laws with no mass at infinity, realized so that
  the location of the supremum over windows of length T has exactly the
  requested law. The path is a chain of valley-shaped components, one per
  unit of the density's minimum, whose stake heights encode the block
  decomposition.
* ``construct_invariant_with_escape`` -- additionally realizes mass at
  infinity for the *truncated* supremum locator by widening one valley so
  that whole windows fall below the truncation threshold 1/2.
* ``construct_first_time`` -- decreasing laws realized through the first
  hitting time of level -1: gaps between consecutive hitting points become
  the layers of the density, and gaps longer than T become mass at infinity.

``bound_attaining_law`` produces a law whose density attains the pointwise
upper bound floor((1-T)/min(t, T-t)) + 2 at a requested point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .density import (
    LocationLaw,
    Rational,
    as_rat,
    block_decomposition,
    generalized_inverse,
    make_step_density,
    step_law,
)
from .membership import check_class
from .paths import PiecewiseLinearPath

HALF = Fraction(1, 2)
TOP = Fraction(2)


@dataclass(frozen=True)
class ComponentPlan:
    """One valley on the circle: d1 | left blocks | base (+ central) | right blocks | d2.

    left holds block lengths v (blocks (0, v]), widest first; right holds
    lengths T - u (blocks (u, T]), widest first; central is (u, v) or None.
    extra widens the central valley floor for the escape construction.
    """

    T: Fraction
    d1: Fraction
    d2: Fraction
    left: tuple[Fraction, ...]
    right: tuple[Fraction, ...]
    central: Optional[tuple[Fraction, Fraction]]
    extra: Fraction = Fraction(0)

    @property
    def length(self) -> Fraction:
        mid = self.T + self.extra
        if self.central is not None:
            mid = self.T + (self.central[1] - self.central[0])
        return self.d1 + sum(self.left) + mid + sum(self.right) + self.d2


@dataclass(frozen=True)
class ConstructionPlan:
    m1: int
    components: tuple[ComponentPlan, ...]

    def __post_init__(self):
        if sum(c.length for c in self.components) != 1:
            raise ValueError("component lengths must tile the unit circle")


def _vee(a: Fraction, b: Fraction, h: Fraction) -> tuple[Fraction, Fraction]:
    """Vertex of the V-curve joining equal-height stakes at a and b.

    Strictly below h so the stakes stay local maxima, and no lower than
    1/4 + h/8 so every constructed path stays above 1/4.
    """
    w = b - a
    return ((a + b) / 2, max(Fraction(1, 4) + h / 8, h - w / 2))


def _component_nodes(comp: ComponentPlan) -> list[tuple[Fraction, Fraction]]:
    nodes: list[tuple[Fraction, Fraction]] = [(Fraction(0), TOP)]
    pos = Fraction(0)
    # descending left flank: stake pair i at height 1 + 2^-i, preceded by a
    # connector slice 2^-(i+1) d1; the slice after the last pair brings the
    # total connector width to exactly d1
    for i, v in enumerate(comp.left, start=1):
        h = 1 + Fraction(1, 2**i)
        pos += comp.d1 * Fraction(1, 2 ** (i + 1))
        nodes.append((pos, h))
        nodes.append(_vee(pos, pos + v, h))
        pos += v
        nodes.append((pos, h))
    pos += comp.d1 * (HALF + Fraction(1, 2 ** (len(comp.left) + 1)))
    c1 = pos
    nodes.append((c1, HALF))
    # valley floor at height 1/2: a triple when a central block (u, v] is
    # carried (gaps v and T - u), else a pair at gap exactly T (+ extra)
    if comp.central is not None:
        u, v = comp.central
        c2 = c1 + v
        c3 = c2 + (comp.T - u)
        nodes.append(_vee(c1, c2, HALF))
        nodes.append((c2, HALF))
        nodes.append(_vee(c2, c3, HALF))
        nodes.append((c3, HALF))
    else:
        c3 = c1 + comp.T + comp.extra
        nodes.append(_vee(c1, c3, HALF))
        nodes.append((c3, HALF))
    # ascending right flank, mirror image of the left
    pos = c3
    r = len(comp.right)
    pos += comp.d2 * (HALF + Fraction(1, 2 ** (r + 1)))
    for j in range(r, 0, -1):
        w = comp.right[j - 1]
        h = 1 + Fraction(1, 2**j)
        nodes.append((pos, h))
        nodes.append(_vee(pos, pos + w, h))
        pos += w
        nodes.append((pos, h))
        pos += comp.d2 * Fraction(1, 2 ** (j + 1))
    nodes.append((pos, TOP))
    if pos != comp.length:
        raise RuntimeError(f"component nodes end at {pos}, not at its length {comp.length}")
    return nodes


def realize_plan(plan: ConstructionPlan) -> PiecewiseLinearPath:
    nodes: list[tuple[Fraction, Fraction]] = []
    offset = Fraction(0)
    for comp in plan.components:
        local = _component_nodes(comp)
        if nodes:
            local = local[1:]  # shared anchor with the previous component
        nodes.extend((offset + t, y) for t, y in local)
        offset += comp.length
    return PiecewiseLinearPath(nodes)


def plan_invariant(law: LocationLaw) -> ConstructionPlan:
    """Partition the blocks of the density over min-many components.

    With mass at infinity (the escape construction) the first component
    stays free of central blocks and its valley floor widens by atomInf.
    A T = 1 law has no valley plan: its construction is a fixed triangle.
    """
    if law.T == 1:
        raise ValueError("T = 1 laws have no valley plan")
    escape = law.atomInf > 0
    dec = block_decomposition(law.density)
    m1 = dec.count("base")
    if m1 < 1:
        raise ValueError("density must be at least 1 on (0, T)")
    lefts = sorted((b.width for b in dec.of_kind("left")), reverse=True)
    rights = sorted((b.width for b in dec.of_kind("right")), reverse=True)
    centrals = dec.of_kind("central")
    first_central = 1 if escape and centrals else 0
    if len(centrals) > m1 - first_central:
        raise ValueError("more central blocks than components can carry")
    d1 = law.atom0 / m1
    d2 = law.atomT / m1
    comps = []
    for j in range(m1):
        central = None
        if first_central <= j < first_central + len(centrals):
            blk = centrals[j - first_central]
            central = (blk.u, blk.v)
        comps.append(
            ComponentPlan(
                T=law.T,
                d1=d1,
                d2=d2,
                left=tuple(lefts[j::m1]),
                right=tuple(rights[j::m1]),
                central=central,
                extra=law.atomInf if escape and j == 0 else Fraction(0),
            )
        )
    return ConstructionPlan(m1=m1, components=tuple(comps))


_T1_TRIANGLE = PiecewiseLinearPath([(0, 2), (HALF, 0), (1, 2)])


def _require(law: LocationLaw, cls: str) -> None:
    rep = check_class(law, cls)
    if not rep.is_member:
        raise ValueError(f"law is not in {cls}: {', '.join(rep.violated_conditions)}")


def construct_invariant(law: LocationLaw) -> PiecewiseLinearPath:
    """Path whose sup-location law over length-T windows is exactly ``law``.

    Requires a law with no mass at infinity whose density is at least 1.
    For T < 1 both boundary atoms must be positive: they become the
    connector widths separating equal-height stakes by more than T, and the
    limit path with a zero-width connector realizes a different law.
    """
    _require(law, "E1T")
    if law.T == 1:
        # f >= 1 with total mass 1 pins the law to the uniform one
        return _T1_TRIANGLE
    if law.atom0 == 0 or law.atomT == 0:
        raise ValueError("T < 1 needs positive atoms at 0 and at T")
    return realize_plan(plan_invariant(law))


def construct_invariant_with_escape(law: LocationLaw) -> PiecewiseLinearPath:
    """Path realizing ``law`` through the truncated sup locator.

    Windows inside the widened valley of the first component have supremum
    below 1/2, so the truncated locator reports no location there; their
    total shift measure is exactly atomInf.
    """
    if law.atomInf == 0:
        return construct_invariant(law)
    _require(law, "ET")
    if law.atomInf == 1:
        # no finite locations at all: stay below the threshold everywhere
        return PiecewiseLinearPath([(0, Fraction(1, 4)), (HALF, Fraction(3, 8)), (1, Fraction(1, 4))])
    if law.atom0 == 0 or law.atomT == 0:
        raise ValueError("escape construction needs positive atoms at 0 and at T")
    return realize_plan(plan_invariant(law))


def construct_first_time(law: LocationLaw) -> PiecewiseLinearPath:
    """Path whose first hit of level -1 over length-T windows has law ``law``.

    Hitting points are laid out so consecutive gaps enumerate the layers of
    the decreasing density; a flat stretch at -1 carries the atom at 0 and
    the wrap-around gap exceeds T by exactly atomInf. Unit-slope tents
    between hits keep the path at -1 only at the hitting set.
    """
    _require(law, "EMT")
    if law.atom0 == 1:
        return PiecewiseLinearPath([(0, Fraction(-1)), (1, Fraction(-1))])
    if law.atomInf == 1:
        # the level is never reached from any shift
        return PiecewiseLinearPath([(0, Fraction(0)), (1, Fraction(0))])
    f = law.density
    top = int(f.value(0))
    widths = [generalized_inverse(f, Fraction(level)) for level in range(1, top + 1)]
    if law.atomInf > 0 and widths[0] != law.T:
        # guaranteed by class membership
        raise RuntimeError(f"top layer width {widths[0]} != T with escape mass")
    nodes: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(-1))]
    pos = Fraction(0)
    for w in widths[1:]:
        nodes.append((pos + w / 2, -1 + w / 2))
        pos += w
        nodes.append((pos, Fraction(-1)))
    if law.atom0 > 0:
        pos += law.atom0
        nodes.append((pos, Fraction(-1)))
    gap = 1 - pos
    if gap != law.atomInf + (widths[0] if widths else 0):
        raise RuntimeError(f"closing gap {gap} != escape mass plus top layer width")
    nodes.append((pos + gap / 2, -1 + gap / 2))
    nodes.append((Fraction(1), Fraction(-1)))
    return PiecewiseLinearPath(nodes)


def bound_attaining_law(t: Rational, T: Rational, eps: Optional[Rational] = None) -> LocationLaw:
    """Law whose density attains floor((1-T)/min(t, T-t)) + 2 next to t.

    A plateau of width eps carries the peak; eps defaults to half the
    largest admissible value and the leftover mass splits evenly between
    the atoms at 0 and T. With eps = 0 the plateau vanishes (the bound is
    then attained only in the limit, e.g. for T = 1).
    """
    t, T = as_rat(t), as_rat(T)
    if not 0 < t < T <= 1:
        raise ValueError("need 0 < t < T <= 1")
    mirrored = t >= T / 2
    side = t if not mirrored else T - t
    K = int((1 - T) / side) if side > 0 else 0
    eps_max = min((1 - T - K * side) / (1 + K), T - side)
    if eps is None:
        eps = eps_max / 2
    else:
        eps = as_rat(eps)
    if not 0 <= eps <= eps_max:
        raise ValueError(f"eps must lie in [0, {eps_max}]")
    if not mirrored:
        cuts = [Fraction(0), t, t + eps, T]
        vals = [1 + K, 2 + K, Fraction(1)]
    else:
        cuts = [Fraction(0), t - eps, t, T]
        vals = [Fraction(1), 2 + K, 1 + K]
    cuts, vals = _dedupe_cells(cuts, vals)
    f = make_step_density(cuts, vals)
    leftover = 1 - sum(v * (b - a) for v, a, b in zip(vals, cuts, cuts[1:]))
    return LocationLaw(T, f, atom0=leftover / 2, atomT=leftover / 2, atomInf=0)


def _dedupe_cells(cuts, vals):
    out_c, out_v = [cuts[0]], []
    for c, v in zip(cuts[1:], vals):
        if c == out_c[-1]:
            continue
        out_c.append(c)
        out_v.append(v)
    return out_c, out_v
