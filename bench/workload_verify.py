"""verify: build paths for target laws and verify them with the float engines.

Each law goes through its class gate, its construction, `sweep_law` with the
matching named locator at grids 10^5 and 10^6, and `compare`. A seeded
`mc_law` runs on three of the paths. A smaller share of the batch checks the
locator axioms on seeded random paths. CLI leg: `construct` then
`verify --grid 1000000 --target`, for the invariant and the first-time
constructions.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction as F

import numpy as np
import periloc as P

from checks import CliStep, Op, Workload, check_sweep, dkw_epsilon, full_ks, law_obj, report, require, write_json

GRIDS = (10**5, 10**6)
MC_SAMPLES = 2 * 10**5
TOL_KS = 1e-3
TOL_ATOM = 2e-5
AXIOM_OPS = 3
AXIOM_CASES = 40

# T values whose denominators divide the sweep grids, so every zone boundary
# of a constructed path falls on the grid and atom counts come out exact.
T_POOL = (F(3, 10), F(2, 5), F(1, 2), F(3, 5), F(7, 10), F(4, 5))

# (T, breakpoints, values, atom0, atomT, atomInf): the benchmark's own copy of
# the invariant-construction suite ...
SUITE_E1T = (
    (F(1, 2), (0, F(3, 10), F(1, 2)), (2, 1), F(1, 10), F(1, 10), 0),
    (F(1, 2), (0, F(1, 10), F(3, 10), F(1, 2)), (1, 2, 1), F(3, 20), F(3, 20), 0),
    (F(1, 2), (0, F(1, 5), F(1, 2)), (1, 2), F(1, 10), F(1, 10), 0),
    (F(1, 2), (0, F(1, 10), F(3, 10), F(1, 2)), (3, 2, 1), F(1, 20), F(1, 20), 0),
    (F(1, 2), (0, F(1, 10), F(2, 5), F(1, 2)), (2, 1, 2), F(3, 20), F(3, 20), 0),
    (F(3, 10), (0, F(3, 10)), (2,), F(1, 5), F(1, 5), 0),
    (F(3, 10), (0, F(3, 20), F(3, 10)), (2, 1), F(11, 40), F(11, 40), 0),
    (F(3, 5), (0, F(1, 10), F(3, 5)), (2, 1), F(3, 20), F(3, 20), 0),
    (F(3, 5), (0, F(1, 5), F(2, 5), F(3, 5)), (1, 2, 1), F(1, 10), F(1, 10), 0),
    (F(1), (0, 1), (1,), 0, 0, 0),
)

# ... and of the first-time suite (decreasing densities, no atom at T)
SUITE_EMT = (
    (F(2, 5), (0, F(1, 5), F(2, 5)), (3, 1), F(1, 20), 0, F(3, 20)),
    (F(1, 2), (0, F(1, 4), F(1, 2)), (2, 1), F(1, 4), 0, 0),
    (F(2, 5), (0, F(2, 5)), (1,), F(3, 5), 0, 0),
    (F(2, 5), (0, F(1, 5), F(2, 5)), (2, 0), F(3, 5), 0, 0),
    (F(1, 2), (0, F(1, 10), F(3, 10), F(1, 2)), (4, 2, 1), 0, 0, 0),
    (F(1, 2), (0, F(1, 10), F(1, 2)), (2, 1), F(2, 5), 0, 0),
    (F(1, 2), (0, F(1, 2)), (1,), F(1, 4), 0, F(1, 4)),
    (F(1, 2), (0, F(1, 5), F(1, 2)), (2, 1), F(1, 5), 0, F(1, 10)),
    (F(1), (0, 1), (1,), 0, 0, 0),
    (F(3, 5), (0, F(3, 5)), (1,), F(2, 5), 0, 0),
)

# (t, T) pairs whose bound law attains the cap: (1 - T) / min(t, T - t) is
# not an integer, so the plateau has positive width and the end atoms are
# positive, which the invariant construction needs.
BOUND_CASES = ((F(1, 5), F(1, 2)), (F(7, 20), F(1, 2)), (F(1, 4), F(3, 5)))

KINDS = {
    # kind: (gate class, builder name, locator)
    "invariant": ("E1T", "construct_invariant", "sup"),
    "escape": ("ET", "construct_invariant_with_escape", "truncated-sup"),
    "first-time": ("EMT", "construct_first_time", "first-hit:-1"),
}


def make_law(spec):
    T, bps, vals, a0, aT, aInf = spec
    return P.step_law(T, bps, vals, atom0=a0, atomT=aT, atomInf=aInf)


def escape_law(k: int):
    """Constant density 1 on (0, 2/5) with mass k/10 at infinity."""
    half = (F(3, 5) - F(k, 10)) / 2
    return P.step_law(F(2, 5), (0, F(2, 5)), (1,), atom0=half, atomT=half, atomInf=F(k, 10))


def random_e1t_law(r: random.Random, T: F):
    """Integer step law on the T/10 lattice with min f = 1 and equal end
    atoms, drawn until the class checker accepts it."""
    while True:
        k = r.randint(1, 4)
        cuts = sorted(r.sample(range(1, 10), k - 1))
        bps = [F(0)] + [T * F(c, 10) for c in cuts] + [T]
        vals = [1 + r.choice((0, 0, 1, 1, 2)) for _ in range(k)]
        vals[r.randrange(k)] = 1
        mass = sum(v * (b - a) for v, a, b in zip(vals, bps, bps[1:]))
        if mass >= 1:
            continue
        half = (1 - mass) / 2
        law = P.step_law(T, bps, vals, atom0=half, atomT=half)
        if P.check_class(law, "E1T").is_member:
            return law


def bound_peak(t: F, T: F) -> int:
    """The density cap floor((1 - T) / min(t, T - t)) + 2 at t."""
    return int((1 - T) // min(t, T - t)) + 2


# --- operations ---


def law_op(name: str, law, kind: str, peak=None) -> Op:
    cls, builder, locator = KINDS[kind]

    def run():
        gate = P.check_class(law, cls)
        g = getattr(P, builder)(law)
        outs = []
        for n in GRIDS:
            emp = P.sweep_law(g, locator, law.T, n)
            outs.append((n, emp, P.compare(law, emp, tol_ks=TOL_KS, tol_atom=TOL_ATOM)))
        return gate, g, outs

    def check(out) -> bool:
        gate, g, outs = out
        require(gate.is_member, f"{name}: gate {cls} rejected a member")
        require(g.nodes[0][0] == 0 and g.nodes[-1][0] == 1 and g.nodes[0][1] == g.nodes[-1][1], f"{name}: path is not one period")
        for n, emp, cmp in outs:
            require(cmp.passed, f"{name}: compare failed at grid {n}: ks={cmp.ks} atoms={cmp.atom_errors}")
            check_sweep(law, emp, n, TOL_KS, TOL_ATOM, f"{name} grid {n}")
            if kind == "first-time":
                nb = round(float(law.T) * 100)
                counts, _ = np.histogram(emp.interior, bins=np.linspace(0.0, float(law.T), nb + 1))
                require(bool(np.all(np.diff(counts) <= 0)), f"{name}: first-time histogram increases at grid {n}")
        if peak is not None:
            top = max(p for p, _ in law.density.segments)
            require(top == peak, f"{name}: density peak {top}, cap formula gives {peak}")
        return True

    return Op(name, run, check)


def mc_op(name: str, law, kind: str, seed: int) -> Op:
    _, builder, locator = KINDS[kind]

    def run():
        g = getattr(P, builder)(law)
        return P.mc_law(g, locator, law.T, MC_SAMPLES, seed)

    def check(emp) -> bool:
        require(emp.n == MC_SAMPLES, f"{name}: {emp.n} samples")
        d, eps = full_ks(law, emp), dkw_epsilon(MC_SAMPLES)
        require(d <= eps, f"{name}: CDF distance {d} exceeds the DKW bound {eps}")
        return True

    return Op(name, run, check)


LOCATOR_NAMES = ("sup", "truncated-sup", "first-hit:-1", "last-hit:-2", "composite")


def _locators():
    return (
        P.sup_location,
        P.truncated_sup_location,
        lambda g, a, b: P.first_hit(g, -1, a, b),
        lambda g, a, b: P.last_hit(g, -2, a, b),
        P.composite_location,
    )


def random_path(r: random.Random):
    times = sorted(r.sample(range(1, 12), r.randint(1, 3)))
    y0 = F(r.randint(-12, 12), 4)
    nodes = [(F(0), y0)] + [(F(j, 12), F(r.randint(-12, 12), 4)) for j in times] + [(F(1), y0)]
    return P.PiecewiseLinearPath(tuple(nodes))


def axiom_cases(r: random.Random, count: int):
    cases = []
    for _ in range(count):
        g = random_path(r)
        len_e = r.randint(1, 6)
        a = F(r.randint(-16, 16), 8)
        c = F(r.randint(-16, 16), 8)
        rem = 8 - len_e
        d1 = r.randint(0, rem)
        d2 = r.randint(0, rem - d1)
        shrink = (F(r.randint(0, 3), 4), F(r.randint(0, 3), 4))
        cases.append((g, a, a + F(len_e, 8), c, shrink, F(d1, 8), F(d2, 8)))
    return cases


def axiom_op(name: str, cases) -> Op:
    """Shift compatibility, stability under restriction and existence under
    enlargement, for the five exact locators."""
    INF = P.INFINITY

    def run():
        out = []
        for g, a, b, c, (s1, s2), d1, d2 in cases:
            h = P.shift(g, c)
            for loc in _locators():
                lam = loc(g, a, b)
                shifted = loc(h, a - c, b - c)
                if lam == INF:
                    out.append((lam, shifted, None, None))
                    continue
                aa, bb = a + (lam - a) * s1, lam + (b - lam) * s2
                out.append((lam, shifted, loc(g, aa, bb) if aa < bb else None, loc(g, a - d1, b + d2)))
        return out

    def check(out) -> bool:
        require(len(out) == len(cases) * len(LOCATOR_NAMES), f"{name}: {len(out)} results")
        for i, (lam, shifted, restricted, enlarged) in enumerate(out):
            g, a, b, c, _, _, _ = cases[i // len(LOCATOR_NAMES)]
            what = f"{name} case {i // len(LOCATOR_NAMES)} {LOCATOR_NAMES[i % len(LOCATOR_NAMES)]}"
            if lam == INF:
                require(shifted == INF, f"{what}: shift created a location")
                continue
            require(a <= lam <= b, f"{what}: location {lam} outside [{a}, {b}]")
            require(shifted == lam - c, f"{what}: shift moved the location to {shifted}, expected {lam - c}")
            require(restricted is None or restricted == lam, f"{what}: restriction moved the location")
            require(enlarged != INF, f"{what}: enlarging the window lost the location")
        return True

    return Op(name, run, check)


# --- CLI leg ---


def cli_pair(tag: str, law, kind: str, workdir: str):
    _, _, locator = KINDS[kind]
    law_file = write_json(os.path.join(workdir, f"law-{tag}.json"), law_obj(law))
    path_file = os.path.join(workdir, f"path-{tag}.json")

    def check_construct(code, out):
        rep = report(code, out, 0, f"construct {tag}")
        require("path" in rep, f"construct {tag}: no path in report")
        with open(path_file, encoding="utf-8") as fh:
            written = json.load(fh)
        require(written == rep["path"], f"construct {tag}: --out path differs from the report")

    def check_verify(code, out):
        rep = report(code, out, 0, f"verify {tag}")
        cmp = rep["comparison"]
        require(cmp["passed"] is True, f"verify {tag}: comparison failed")
        n, counts = rep["n"], rep["counts"]
        require(n == 10**6 and sum(counts.values()) == n, f"verify {tag}: counts do not add up to the grid")
        for key, atom in (("zero", law.atom0), ("T", law.atomT), ("inf", law.atomInf)):
            require(abs(counts[key] / n - float(atom)) <= TOL_ATOM, f"verify {tag}: atom {key} count {counts[key]}")

    return (
        CliStep(f"construct-{tag}", ("construct", law_file, "--kind", kind, "--out", path_file), check_construct),
        CliStep(
            f"verify-{tag}",
            ("verify", path_file, "--locator", locator, "--T", str(law.T), "--grid", str(10**6), "--target", law_file),
            check_verify,
        ),
    )


def build(seed: int, workdir: str) -> Workload:
    r = random.Random(f"verify/{seed}")
    ops = []
    for i, spec in enumerate(SUITE_E1T):
        ops.append(law_op(f"e1t-{i}", make_law(spec), "invariant"))
    for i, spec in enumerate(SUITE_EMT):
        ops.append(law_op(f"emt-{i}", make_law(spec), "first-time"))
    for k in (1, 3, 5):
        ops.append(law_op(f"escape-{k}", escape_law(k), "escape"))
    for i, (t, T) in enumerate(BOUND_CASES):
        ops.append(law_op(f"bound-{i}", P.bound_attaining_law(t, T), "invariant", peak=bound_peak(t, T)))
    randoms = [random_e1t_law(r, r.choice(T_POOL)) for _ in range(3)]
    for i, law in enumerate(randoms):
        ops.append(law_op(f"random-e1t-{i}", law, "invariant"))
    mc_seed = r.getrandbits(63)
    ops.append(mc_op("mc-e1t", make_law(SUITE_E1T[3]), "invariant", mc_seed))
    ops.append(mc_op("mc-random", randoms[0], "invariant", mc_seed + 1))
    ops.append(mc_op("mc-emt", make_law(SUITE_EMT[4]), "first-time", mc_seed + 2))
    for i in range(AXIOM_OPS):
        ops.append(axiom_op(f"axioms-{i}", axiom_cases(r, AXIOM_CASES)))
    # fixed laws: the CLI leg costs the same on every seed
    cli = cli_pair("invariant", make_law(SUITE_E1T[3]), "invariant", workdir)
    cli += cli_pair("first-time", make_law(SUITE_EMT[4]), "first-time", workdir)
    return Workload(tuple(ops), cli)
