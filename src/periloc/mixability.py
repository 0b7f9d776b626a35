"""Joint-mixability machinery for decreasing densities.

A decreasing density f on (0, T) with f(0+) <= N splits into N component
distributions F_i(x) = min{(i - f(x))_+, 1} for x > 0. If the components
admit a coupling whose row sums stay below 1, the density is a mixture of
integer-valued decreasing layer profiles and is therefore realizable as a
first-hitting-time law. This module builds the components exactly, checks
three sufficient conditions with rational arithmetic, and searches for
bounded-sum couplings by iterative counter-monotone rearrangement, with a
small exhaustive oracle for validation.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .density import (
    PiecewiseDensity,
    Rational,
    _generalized_inverse,
    as_rat,
    integral,
)


@dataclass(frozen=True)
class ComponentCDF:
    """F_i(x) = min{(i - f(x))_+, 1} for x > 0: one layer of the density.

    f must be non-increasing; component_distributions checks that once, and
    quantile does not check it again.
    """

    f: PiecewiseDensity
    i: int
    lo: Fraction  # f^{-1}(i)
    hi: Fraction  # f^{-1}(i-1): support is within [lo, hi]
    mean: Fraction

    def cdf(self, x: Rational) -> Fraction:
        x = as_rat(x)
        if x <= 0:
            return Fraction(0)
        if x >= self.f.T:
            return Fraction(1)
        return min(max(self.i - self.f.value(x), Fraction(0)), Fraction(1))

    def quantile(self, p: Rational) -> Fraction:
        """Smallest x with F_i(x) >= p, 0 < p < 1."""
        p = as_rat(p)
        if not 0 < p < 1:
            raise ValueError("p must lie in (0, 1)")
        return _generalized_inverse(self.f, self.i - p)


@dataclass(frozen=True)
class MixProblem:
    """Component distributions of a decreasing density, with sum budget 1."""

    T: Fraction
    f: PiecewiseDensity
    N: int
    components: tuple[ComponentCDF, ...]

    @property
    def means(self) -> tuple[Fraction, ...]:
        return tuple(c.mean for c in self.components)

    def slack(self, n: int) -> Fraction:
        """Quantile-discretization slack: (f^{-1}(0) - f^{-1}(N)) / n."""
        if self.N == 0:
            return Fraction(0)
        return (self.components[0].hi - self.components[-1].lo) / n

    def quantile_columns(self, n: int) -> list[list[Fraction]]:
        """Midpoint quantiles (2r-1)/(2n) of each component, ascending."""
        return [
            [c.quantile(Fraction(2 * r - 1, 2 * n)) for r in range(1, n + 1)]
            for c in self.components
        ]


@dataclass(frozen=True)
class Coupling:
    """n joint realizations (rows), each with probability 1/n."""

    n: int
    matrix: tuple[tuple[Fraction, ...], ...]
    max_row_sum: Fraction

    def __post_init__(self):
        if len(self.matrix) != self.n:
            raise ValueError("matrix must have n rows")
        worst = max((sum(row) for row in self.matrix), default=Fraction(0))
        if worst != self.max_row_sum:
            raise ValueError("max_row_sum does not match the matrix")


@dataclass(frozen=True)
class Certificate:
    kind: str  # convex_corollary | linear_corollary | gap_corollary | coupling
    evidence: Union[dict, Coupling]

    def __post_init__(self):
        kinds = ("convex_corollary", "linear_corollary", "gap_corollary", "coupling")
        if self.kind not in kinds:
            raise ValueError(f"unknown certificate kind {self.kind!r}")


def component_distributions(f: PiecewiseDensity, T: Rational) -> MixProblem:
    """Split a decreasing density into its N = ceil(f(0+)) layer components.

    The means satisfy sum mu_i = integral of f exactly; each component is
    supported in [f^{-1}(i), f^{-1}(i-1)].
    """
    T = as_rat(T)
    if T != f.T:
        raise ValueError("T must match the density domain")
    if not f.is_decreasing():
        raise ValueError("component split needs a decreasing density")
    N = math.ceil(f.value(0))
    inv = [_generalized_inverse(f, Fraction(i)) for i in range(N + 1)]
    comps = []
    for i in range(1, N + 1):
        lo, hi = inv[i], inv[i - 1]
        # min((f - (i - 1))_+, 1) is 1 on (0, lo), f - (i - 1) on (lo, hi), 0 after
        mean = lo + integral(f, lo, hi) - (i - 1) * (hi - lo)
        comps.append(ComponentCDF(f=f, i=i, lo=lo, hi=hi, mean=mean))
    problem = MixProblem(T=T, f=f, N=N, components=tuple(comps))
    if sum(problem.means, Fraction(0)) != integral(f, 0, f.T):
        raise RuntimeError("component means do not sum to the density's mass")
    return problem


def _inverses(problem: MixProblem) -> list[Fraction]:
    """f^{-1}(0), ..., f^{-1}(N), read off the layer ends."""
    if not problem.components:
        return [Fraction(0)]
    return [problem.components[0].hi] + [c.lo for c in problem.components]


def certify_convex(f: PiecewiseDensity, T: Rational) -> Optional[Certificate]:
    """Convex decreasing density: certified when
    sum_{i=0..N} f^{-1}(i) <= 1 + f^{-1}(1)."""
    problem = component_distributions(f, T)
    if not f.is_convex():
        return None
    inv = _inverses(problem)
    lhs = sum(inv, Fraction(0))
    rhs = 1 + (inv[1] if problem.N >= 1 else Fraction(0))
    if lhs > rhs:
        return None
    return Certificate(
        kind="convex_corollary",
        evidence={"inverses": tuple(inv), "sum": lhs, "bound": rhs},
    )


def certify_linear(f: PiecewiseDensity, T: Rational) -> Optional[Certificate]:
    """Density linear on its essential support [0, b] with f(b-) = 0:
    certified unconditionally."""
    problem = component_distributions(f, T)
    b = _generalized_inverse(f, Fraction(0))
    if b == 0:
        return None
    p0, q0 = f.segments[0]
    if q0 >= 0 or p0 + q0 * b != 0:
        return None
    for (a, _), (p, q) in zip(zip(f.breakpoints, f.breakpoints[1:]), f.segments):
        if a < b and (p, q) != (p0, q0):
            return None
    return Certificate(
        kind="linear_corollary",
        evidence={"slope": q0, "support_end": b, "mass": integral(f, 0, f.T), "N": problem.N},
    )


def certify_gap(f: PiecewiseDensity, T: Rational) -> Optional[Certificate]:
    """Certified when the largest component support width does not exceed
    1 - integral of f."""
    problem = component_distributions(f, T)
    inv = _inverses(problem)
    gap = max((inv[i - 1] - inv[i] for i in range(1, problem.N + 1)), default=Fraction(0))
    budget = 1 - integral(f, 0, f.T)
    if gap > budget:
        return None
    return Certificate(kind="gap_corollary", evidence={"gap": gap, "budget": budget})


# --- coupling search ---


def _check_reconstruction(problem: MixProblem, coupling: Coupling) -> None:
    """E[f_X(y)] must reproduce the density up to N/n at every level.

    Raises RuntimeError otherwise: a coupling that fails this is a bug in
    the search, not a property of the input.
    """
    if problem.N == 0 or coupling.n == 0:
        return
    entries = sorted(x for row in coupling.matrix for x in row)
    values = sorted(set(entries))
    probes = [v / 2 for v in values[:1]] + [
        (a + b) / 2 for a, b in zip(values, values[1:])
    ]
    tol = Fraction(problem.N, coupling.n)
    for y in probes:
        if not 0 < y < problem.T:
            continue
        at_least = len(entries) - bisect.bisect_left(entries, y)
        recon, value = Fraction(at_least, coupling.n), problem.f.value(y)
        if abs(recon - value) > tol:
            raise RuntimeError(
                f"coupling does not reconstruct the density at {y}: {recon} vs {value}"
            )


def _counter_monotone(values: list, keys: list) -> list:
    """Assign the largest values to the rows with the smallest keys; equal
    keys go in row order."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    out = [None] * len(keys)
    for r, v in zip(order, sorted(values, reverse=True)):
        out[r] = v
    return out


def _scaled(cols: list[list[Fraction]]) -> list[list[int]]:
    """The columns times their common denominator D, as ints.

    Scaling by D > 0 keeps every order and every equality, so a search on
    the integer columns makes the same choices as one on the Fractions.
    """
    D = math.lcm(*(x.denominator for col in cols for x in col))
    return [[x.numerator * (D // x.denominator) for x in col] for col in cols]


def _make_coupling(cols: list[list[Fraction]], n: int) -> Coupling:
    rows = tuple(tuple(col[r] for col in cols) for r in range(n))
    worst = max((sum(row) for row in rows), default=Fraction(0))
    return Coupling(n=n, matrix=rows, max_row_sum=worst)


def _rearrange(cols: list[list[int]], max_iters: int) -> int:
    """Re-sort each column against the row sums of the others, in place,
    until no column changes or max_iters sweeps ran; returns the worst row
    sum."""
    sums = [sum(row) for row in zip(*cols)]
    for _ in range(max_iters):
        changed = False
        for col in cols:
            keys = [s - x for s, x in zip(sums, col)]
            new = _counter_monotone(col, keys)
            if new != col:
                changed = True
                col[:] = new
                sums = [k + x for k, x in zip(keys, new)]
        if not changed:
            break
    return max(sums, default=0)


def rearrangement_coupling(
    problem: MixProblem,
    n: int,
    max_iters: int = 100,
    restarts: int = 8,
    seed: int = 0,
) -> Coupling:
    """Best coupling found by iterated counter-monotone re-sorting.

    Each sweep re-sorts one column against the row sums of the others;
    sweeps repeat until stable. Further restarts shuffle the columns with a
    counter-based generator keyed by ``seed``, so results are reproducible.
    The sweeps run on the columns scaled to integers; only the best columns
    go back to Fractions. The shuffles use numpy's Philox generator, so this
    is the one function of the module that loads numpy.
    """
    import numpy as np

    if n < 2:
        raise ValueError("need n >= 2")
    base = problem.quantile_columns(n)
    scaled = _scaled(base)
    rng = np.random.Generator(np.random.Philox(seed))
    best: Optional[list[list[int]]] = None
    best_worst = 0
    for attempt in range(max(1, restarts)):
        cols = [list(c) for c in scaled]
        if attempt > 0:
            for col in cols:
                rng.shuffle(col)
        worst = _rearrange(cols, max_iters)
        if best is None or worst < best_worst:
            best, best_worst = cols, worst
    back = [dict(zip(s, c)) for s, c in zip(scaled, base)]
    coupling = _make_coupling([[b[x] for x in col] for b, col in zip(back, best)], n)
    _check_reconstruction(problem, coupling)
    return coupling


def rearrangement_search(
    problem: MixProblem,
    n: int,
    max_iters: int = 100,
    restarts: int = 8,
    seed: int = 0,
) -> Optional[Coupling]:
    """Coupling certified against budget 1 + slack(n), or None.

    A None is never a refutation: the search only provides sufficient
    evidence.
    """
    coupling = rearrangement_coupling(problem, n, max_iters, restarts, seed)
    if coupling.max_row_sum <= 1 + problem.slack(n):
        return coupling
    return None


# the oracle scans n! orders of the second of at most three components
ORACLE_MAX_COMPONENTS = 3
ORACLE_MAX_QUANTILES = 8


def optimal_coupling(problem: MixProblem, n: int) -> Coupling:
    """Exact minimal max-row-sum coupling at the n-quantile level.

    Exhausts the second column's n! permutations; the remaining column is
    paired counter-monotonically, which is optimal for a fixed rest. The
    scan scores each permutation on the columns scaled to integers and
    builds one Coupling, for the first permutation with the smallest worst
    row sum.
    """
    if problem.N > ORACLE_MAX_COMPONENTS:
        raise ValueError(f"oracle limited to N <= {ORACLE_MAX_COMPONENTS}")
    if n > ORACLE_MAX_QUANTILES:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_QUANTILES}")
    if n < 1:
        raise ValueError("need n >= 1")
    cols = problem.quantile_columns(n)
    if problem.N == 0:
        return _make_coupling([], n)
    if problem.N == 1:
        coupling = _make_coupling(cols, n)
    elif problem.N == 2:
        second = _counter_monotone(cols[1], cols[0])
        coupling = _make_coupling([cols[0], second], n)
    else:
        c1, c2, c3 = _scaled(cols)
        c3_desc = sorted(c3, reverse=True)
        best_perm: Optional[tuple[int, ...]] = None
        best_worst = 0
        for perm in itertools.permutations(c2):
            keys = sorted(map(operator.add, c1, perm))
            worst = max(map(operator.add, keys, c3_desc))
            if best_perm is None or worst < best_worst:
                best_perm, best_worst = perm, worst
        back = dict(zip(c2, cols[1]))
        second = [back[x] for x in best_perm]
        keys = [a + b for a, b in zip(cols[0], second)]
        third = _counter_monotone(cols[2], keys)
        coupling = _make_coupling([cols[0], second, third], n)
    _check_reconstruction(problem, coupling)
    return coupling
