"""Operations, and the computations the benchmark checks the library against.

Everything here is computed from the public fields of the library's objects
(breakpoints, segments, atoms, path nodes, matrices) with the benchmark's own
code, never by calling back into the function under test.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np


class CheckError(AssertionError):
    """An output of the library is wrong."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


@dataclass(frozen=True)
class Op:
    """One timed library call and the check of its output.

    ``check`` raises CheckError on a wrong output. It returns False only for
    an operation whose failure is a known fault the benchmark has confirmed
    independently (counted as failed, not as incorrect), True otherwise.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class CliStep:
    """One `periloc` command line and the check of its exit code and stdout."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[int, str], None]


@dataclass(frozen=True)
class Workload:
    ops: tuple[Op, ...]
    cli: tuple[CliStep, ...]


# --- laws ---


def cells(law):
    """(a, b, p, q) per density cell: the value is p + q t on [a, b)."""
    return density_cells(law.density)


def density_cells(f):
    bp = f.breakpoints
    return [(a, b, p, q) for (a, b), (p, q) in zip(zip(bp, bp[1:]), f.segments)]


def cell_mass(a, b, p, q) -> Fraction:
    return p * (b - a) + q * (b * b - a * a) / 2


def density_at(law, t: Fraction) -> Fraction:
    """Cadlag density value at 0 <= t < T."""
    for a, b, p, q in cells(law):
        if a <= t < b:
            return p + q * t
    raise ValueError(f"t={t} outside [0, T)")


def same_law(a, b) -> bool:
    """Equal atoms, and equal density on every cell of the merged grid."""
    if (a.T, a.atom0, a.atomT, a.atomInf) != (b.T, b.atom0, b.atomT, b.atomInf):
        return False
    grid = sorted(set(a.density.breakpoints) | set(b.density.breakpoints))
    for lo, hi in zip(grid, grid[1:]):
        for t in (lo, (lo + hi) / 2):
            if density_at(a, t) != density_at(b, t):
                return False
    return True


def law_cdf(law, x: np.ndarray) -> np.ndarray:
    """P(location <= x) for x in [0, T); the atom at T is not included."""
    out = np.full(len(x), float(law.atom0))
    done = Fraction(0)
    for a, b, p, q in cells(law):
        fa, fb = float(a), float(b)
        inside = (x >= fa) & (x < fb)
        xi = x[inside]
        out[inside] += float(done) + float(p) * (xi - fa) + float(q) * (xi * xi - fa * fa) / 2
        done += cell_mass(a, b, p, q)
    return out


def full_ks(law, emp) -> float:
    """Sup distance between the sample's CDF on [0, T] and the law's CDF,
    including the jumps at 0 and T; the mass at infinity closes both."""
    n = emp.n
    m = len(emp.interior)
    xs = np.asarray(emp.interior, dtype=float)
    F = law_cdf(law, xs)
    i = np.arange(1, m + 1)
    d = 0.0
    if m:
        d = float(np.max(np.maximum(np.abs((emp.count0 + i) / n - F), np.abs((emp.count0 + i - 1) / n - F))))
    interior_mass = float(sum(cell_mass(*c) for c in cells(law)))
    ends = (
        abs(emp.count0 / n - float(law.atom0)),
        abs((emp.count0 + m) / n - float(law.atom0) - interior_mass),
        abs((emp.count0 + m + emp.countT) / n - float(1 - law.atomInf)),
    )
    return max(d, *ends)


def atom_errors(law, emp) -> tuple[float, float, float]:
    n = emp.n
    return (
        abs(emp.count0 / n - float(law.atom0)),
        abs(emp.countT / n - float(law.atomT)),
        abs(emp.countInf / n - float(law.atomInf)),
    )


def dkw_epsilon(n: int, alpha: float = 1e-9) -> float:
    """Dvoretzky-Kiefer-Wolfowitz: P(sup |F_n - F| > eps) <= alpha."""
    return math.sqrt(math.log(2 / alpha) / (2 * n))


def check_sweep(law, emp, n: int, tol_ks: float, tol_atom: float, what: str) -> None:
    require(emp.n == n, f"{what}: {emp.n} samples, expected {n}")
    require(emp.count0 + emp.countT + emp.countInf + len(emp.interior) == n, f"{what}: counts do not add up")
    errs = atom_errors(law, emp)
    require(max(errs) <= tol_atom, f"{what}: atom errors {errs} > {tol_atom}")
    ks = full_ks(law, emp)
    require(ks <= tol_ks, f"{what}: CDF distance {ks} > {tol_ks}")


def same_empirical(a, b, atol: float = 1e-9) -> bool:
    """Identical atom counts and the same sorted interior samples."""
    if (a.n, a.count0, a.countT, a.countInf) != (b.n, b.count0, b.countT, b.countInf):
        return False
    return len(a.interior) == len(b.interior) and bool(np.all(np.abs(a.interior - b.interior) <= atol))


# --- paths and window-end hits ---


def level_hits(nodes, level: Fraction) -> set:
    """Hit points of `level` in [0, 1) of a path; a piece that is flat at the
    level contributes its two ends, where a hit can sit at a window end."""
    out = set()
    for (t0, y0), (t1, y1) in zip(nodes, nodes[1:]):
        if y0 == level:
            out.add(t0)
        if y1 == level:
            out.add(t1 % 1)
        if (y0 - level) * (y1 - level) < 0:
            out.add(t0 + (level - y0) * (t1 - t0) / (y1 - y0))
    return out


def on_midpoint_grid(x: Fraction, n: int) -> bool:
    """Is x mod 1 one of the sweep shifts (2i + 1) / (2n)?"""
    v = (x % 1) * 2 * n
    return v.denominator == 1 and v.numerator % 2 == 1


def hit_locator(nodes, name: str):
    """(kind, level) of the hit rule a named locator applies to this path,
    or None for the maximizer rules. `composite` routes on the path's range."""
    if name == "composite":
        ys = [y for _, y in nodes]
        lo, hi = min(ys), max(ys)
        if lo >= 0:
            return None
        return ("first-hit", Fraction(-1)) if lo <= -1 <= hi else ("last-hit", Fraction(-2))
    for kind in ("first-hit", "last-hit"):
        if name.startswith(kind + ":"):
            return kind, Fraction(name[len(kind) + 1:])
    return None


def window_end_hit(nodes, name: str, T: Fraction, n: int) -> bool:
    """Does some sweep shift u put a hit point exactly at u or at u + T?"""
    rule = hit_locator(nodes, name)
    if rule is None:
        return False
    return any(on_midpoint_grid(h, n) or on_midpoint_grid(h - T, n) for h in level_hits(nodes, rule[1]))


# --- mixability ---


def generalized_inverse(f, y: Fraction) -> Fraction:
    """sup{t in (0, T): f(t) >= y} for a decreasing density, with sup{} = 0;
    for y = 0 the right end of {f > 0}."""
    best = Fraction(0)
    for a, b, p, q in density_cells(f):
        va, vb = p + q * a, p + q * b
        if y == 0:
            if va > 0:
                best = b if vb > 0 else -p / q
        elif va >= y:
            best = b if vb >= y else (y - p) / q
    return best


def _first_below(f, y: Fraction, strict: bool) -> Fraction:
    """inf{x in (0, T): f(x) < y} (strict) or f(x) <= y, T if empty;
    f decreasing."""
    for a, b, p, q in density_cells(f):
        va, vb = p + q * a, p + q * b
        if va < y or (not strict and va == y):
            return a
        if q != 0 and (vb < y or (not strict and vb == y)):
            return (y - p) / q
    return f.T


def quantile_bounds(f, i: int, p: Fraction) -> tuple[Fraction, Fraction]:
    """[Q-(p), Q+(p)] for the layer CDF F_i(x) = min((i - f(x))+, 1) of a
    decreasing density: x is a p-quantile iff F_i(x-) <= p <= F_i(x)."""
    return _first_below(f, i - p, strict=False), _first_below(f, i - p, strict=True)


def check_coupling_columns(problem_f, N: int, n: int, matrix) -> None:
    """Every column of the coupling is a permutation of the midpoint
    quantiles (2r - 1)/(2n) of its layer, computed here from the density."""
    require(len(matrix) == n, f"coupling has {len(matrix)} rows, expected {n}")
    for i in range(1, N + 1):
        col = sorted(row[i - 1] for row in matrix)
        for r, x in enumerate(col, start=1):
            lo, hi = quantile_bounds(problem_f, i, Fraction(2 * r - 1, 2 * n))
            require(lo <= x <= hi, f"column {i} entry {x} is not the {2 * r - 1}/{2 * n} quantile [{lo}, {hi}]")


def max_row_sum(matrix) -> Fraction:
    return max(sum(row, Fraction(0)) for row in matrix)


def exhaustive_min_max_row_sum(cols) -> Fraction:
    """Smallest worst row sum over all pairings of the columns; the first
    column stays fixed because rows are exchangeable."""
    best = None
    first = list(cols[0])
    rest = [list(c) for c in cols[1:]]
    for perms in itertools.product(*(itertools.permutations(c) for c in rest)):
        worst = max(first[r] + sum(p[r] for p in perms) for r in range(len(first)))
        if best is None or worst < best:
            best = worst
    return best


# --- files for the CLI legs ---


def law_obj(law) -> dict:
    """The documented law.json layout, written by the benchmark itself."""
    return {
        "T": str(law.T),
        "atoms": {"zero": str(law.atom0), "T": str(law.atomT), "inf": str(law.atomInf)},
        "density": {
            "breakpoints": [str(x) for x in law.density.breakpoints],
            "segments": [{"p": str(p), "q": str(q)} for p, q in law.density.segments],
        },
    }


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def report(code: int, stdout: str, expect_code, what: str) -> dict:
    """The JSON report of a CLI run; expect_code None skips the exit-code check."""
    require(expect_code is None or code == expect_code, f"{what}: exit code {code}, expected {expect_code}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckError(f"{what}: report is not JSON: {exc}") from None
