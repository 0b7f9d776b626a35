"""certify: convex-hull certificates and joint-mixability couplings.

`hull_membership_lp` runs on step laws of 2 to 4 cells covering all three
verdicts: a forced-envelope non-member (fixed, and one seeded), a four-cell
law left "unknown", and known mixtures of ET laws that get a certificate
(two seeded two-cell ones and a fixed three-cell one). `component_distributions` and the three corollary checks run on
decreasing densities; `rearrangement_coupling` at n = 64 to 256 on step and
sloped densities; `optimal_coupling` with N = 3 at n = 4, 5, 6. CLI leg:
`check --class hull` and `mix --method oracle --n 7`.
"""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction as F

import periloc as P

from checks import (
    CliStep,
    Op,
    Workload,
    cell_mass,
    density_cells,
    exhaustive_min_max_row_sum,
    generalized_inverse,
    law_obj,
    max_row_sum,
    check_coupling_columns,
    report,
    require,
    write_json,
)

HALF = F(1, 2)
CRIT5 = (F(1), (0, F(3, 4), 1), (F(4, 3), 0))  # T, breakpoints, values: passes TV, not in the hull
FOUR_CELL = (HALF, (0, F(1, 8), F(1, 4), F(3, 8), HALF), (F(3, 2), HALF, F(3, 2), HALF), F(1, 4), F(1, 4))
FORCED_VALUES = (F(6, 5), F(5, 4), F(4, 3), F(7, 5), F(3, 2), F(8, 5), F(5, 3), F(7, 4), F(9, 5))
MIX_CELLS = {2: (F(0), F(1, 4), HALF), 3: (F(0), F(1, 8), F(1, 4), HALF)}
MIX_LATTICE = 8  # denominator of the hull search's atom lattice for every mixture
SLOPED = ((F(0), F(1, 4), HALF), ((F(3), F(-4)), (F(1), F(-2))))  # decreasing, N = 3
RANDOM_PERMUTATIONS = 200


# --- hull certificates, recomputed here ---


def law_parts(law):
    """(T, cells, atoms) of a LocationLaw."""
    return law.T, density_cells(law.density), (law.atom0, law.atomT, law.atomInf)


def json_parts(obj):
    bps = [F(x) for x in obj["density"]["breakpoints"]]
    segs = [(F(s["p"]), F(s["q"])) for s in obj["density"]["segments"]]
    atoms = tuple(F(obj["atoms"][k]) for k in ("zero", "T", "inf"))
    return F(obj["T"]), [(a, b, p, q) for a, b, (p, q) in zip(bps, bps[1:], segs)], atoms


def value_at(cells, t):
    for a, b, p, q in cells:
        if a <= t < b:
            return p + q * t
    raise ValueError(t)


def check_certificate(what: str, law, components) -> None:
    """components: [(parts, weight)]. Integer-step components of mass 1 whose
    weighted mixture, computed here, equals the input law exactly."""
    T, cells, atoms = law_parts(law)
    weights = [w for _, w in components]
    require(components and all(w > 0 for w in weights) and sum(weights) == 1, f"{what}: weights {weights}")
    grid = {a for a, _, _, _ in cells} | {T}
    for (cT, ccells, catoms), _ in components:
        require(cT == T, f"{what}: component T {cT}")
        require(all(q == 0 and p.denominator == 1 and p >= 0 for _, _, p, q in ccells), f"{what}: component is not an integer step density")
        mass = sum(catoms) + sum(cell_mass(*c) for c in ccells)
        require(mass == 1, f"{what}: component mass {mass}")
        grid |= {a for a, _, _, _ in ccells}
    cuts = sorted(grid)
    for lo, hi in zip(cuts, cuts[1:]):
        for t in (lo, (lo + hi) / 2):
            mixed = sum(w * value_at(c[1], t) for c, w in components)
            require(mixed == value_at(cells, t), f"{what}: mixture density {mixed} at {t}, law has {value_at(cells, t)}")
    for k in range(3):
        mixed = sum(w * c[2][k] for c, w in components)
        require(mixed == atoms[k], f"{what}: mixture atom {k} is {mixed}, law has {atoms[k]}")


def check_forced_witness(what: str, law, witness) -> None:
    """The forced component's integral, recomputed from the law, exceeds 1."""
    T, cells, (a0, aT, aInf) = law_parts(law)
    lo, hi = witness["interval"]
    forced = witness["forced_value"]
    require(aInf == 0, f"{what}: mass at infinity rules the forced-envelope argument out")
    if lo == 0:  # density vanishes at the right end, no atom at T
        require(aT == 0 and cells[-1][2:] == (0, 0), f"{what}: law does not vanish at the right end")
        v = next((p for a, b, p, q in cells if b == hi), None)
    else:
        require(hi == T and a0 == 0 and cells[0][2:] == (0, 0), f"{what}: law does not vanish at the left end")
        v = next((p for a, b, p, q in cells if a == lo), None)
    require(v is not None, f"{what}: witness interval {lo, hi} does not end at a cell boundary")
    require(v.denominator != 1 and math.ceil(v) == forced, f"{what}: forced value {forced} for density {v}")
    integral = forced * (hi - lo)
    require(integral > 1 and integral == witness["integral"], f"{what}: forced integral {integral}")


def hull_op(name: str, law, expect: str) -> Op:
    """expect: "member" (a known mixture: never non-member), "non-member",
    or "open" (either a checked certificate or "unknown")."""

    def run():
        return P.hull_membership_lp(law)

    def check(res) -> bool:
        if isinstance(res, P.HullCertificate):
            require(expect != "non-member", f"{name}: certificate for a non-member")
            check_certificate(name, law, [(law_parts(c), w) for c, w in res.components])
        elif res.verdict == "non-member":
            require(expect == "non-member", f"{name}: called non-member")
            check_forced_witness(name, law, res.witness)
        else:
            require(expect == "open", f"{name}: verdict {res.verdict}")
        return True

    return Op(name, run, check)


def hull_lattice(law) -> int:
    lens = [b - a for a, b in zip(law.density.breakpoints, law.density.breakpoints[1:])]
    return math.lcm(law.atom0.denominator, law.atomT.denominator, law.atomInf.denominator, *[x.denominator for x in lens])


def known_mixture(r: random.Random, k: int):
    """Half-half mixture of two ET laws with values 1 or 2 on fixed cells and
    atoms on the 1/8 lattice, drawn until the hull search's atom lattice is
    1/8: the search then enumerates the same candidate family on every seed."""
    bps = MIX_CELLS[k]
    while True:
        parts = []
        for _ in range(2):
            vals = [r.choice((1, 2)) for _ in range(k)]
            left = 1 - sum(v * (b - a) for v, a, b in zip(vals, bps, bps[1:]))
            a0 = F(r.randint(0, int(left * 8)), 8)
            parts.append((vals, P.step_law(bps[-1], bps, vals, atom0=a0, atomT=left - a0)))
        if parts[0][0] == parts[1][0]:
            continue
        law = P.mix_laws([parts[0][1], parts[1][1]], [HALF, HALF])
        if hull_lattice(law) == MIX_LATTICE:
            return law


def mixture3():
    """The three-cell mixture is fixed: its exact simplex costs 0.2 to 0.35 s
    depending on the law, too wide a spread to leave to the seed."""
    bps = MIX_CELLS[3]
    parts = [P.step_law(HALF, bps, (1, 1, 2), atom0=F(1, 4)), P.step_law(HALF, bps, (2, 2, 2))]
    return P.mix_laws(parts, [HALF, HALF])


# --- mixability ---


def corollary_op(name: str, densities) -> Op:
    def run():
        return [
            (P.component_distributions(f, f.T), P.certify_convex(f, f.T), P.certify_gap(f, f.T), P.certify_linear(f, f.T))
            for f in densities
        ]

    def check(out) -> bool:
        for i, (f, (prob, convex, gap, linear)) in enumerate(zip(densities, out)):
            what = f"{name} density {i}"
            cells = density_cells(f)
            N = math.ceil(cells[0][2])
            mass = sum(cell_mass(*c) for c in cells)
            inv = [generalized_inverse(f, F(j)) for j in range(N + 1)]
            require(prob.N == N, f"{what}: N = {prob.N}, expected {N}")
            require(sum(prob.means) == mass, f"{what}: means sum to {sum(prob.means)}, mass is {mass}")
            for c in prob.components:
                require((c.lo, c.hi) == (inv[c.i], inv[c.i - 1]), f"{what}: layer {c.i} support [{c.lo}, {c.hi}]")
            is_convex = all(cells[j][2] + cells[j][3] * cells[j][1] == cells[j + 1][2] + cells[j + 1][3] * cells[j + 1][0] for j in range(len(cells) - 1)) and all(
                cells[j][3] <= cells[j + 1][3] for j in range(len(cells) - 1)
            )
            expect_convex = is_convex and sum(inv) <= 1 + (inv[1] if N >= 1 else 0)
            require((convex is not None) == expect_convex, f"{what}: convex corollary {convex is not None}, recomputed {expect_convex}")
            width = max((inv[j - 1] - inv[j] for j in range(1, N + 1)), default=F(0))
            require((gap is not None) == (width <= 1 - mass), f"{what}: gap corollary {gap is not None}, widths {width}, budget {1 - mass}")
            if gap is not None:
                require(gap.evidence == {"gap": width, "budget": 1 - mass}, f"{what}: gap evidence {gap.evidence}")
            b = inv[0]
            p0, q0 = cells[0][2], cells[0][3]
            expect_linear = b > 0 and q0 < 0 and p0 + q0 * b == 0 and all((p, q) == (p0, q0) for a, _, p, q in cells if a < b)
            require((linear is not None) == expect_linear, f"{what}: linear corollary {linear is not None}, recomputed {expect_linear}")
        return True

    return Op(name, run, check)


def check_coupling(what: str, f, N: int, n: int, coupling) -> None:
    check_coupling_columns(f, N, n, coupling.matrix)
    require(max_row_sum(coupling.matrix) == coupling.max_row_sum, f"{what}: max_row_sum {coupling.max_row_sum} does not match the matrix")


def rearrangement_op(name: str, f, n: int, seed: int) -> Op:
    def run():
        prob = P.component_distributions(f, f.T)
        return prob, P.rearrangement_coupling(prob, n, seed=seed)

    def check(out) -> bool:
        prob, coupling = out
        check_coupling(name, f, prob.N, n, coupling)
        return True

    return Op(name, run, check)


def oracle_op(name: str, f, n: int, r: random.Random) -> Op:
    perm_seed = r.getrandbits(32)

    def run():
        prob = P.component_distributions(f, f.T)
        return prob, P.optimal_coupling(prob, n), P.rearrangement_coupling(prob, n)

    def check(out) -> bool:
        prob, opt, found = out
        check_coupling(name, f, prob.N, n, opt)
        check_coupling(name + " search", f, prob.N, n, found)
        best = opt.max_row_sum
        require(found.max_row_sum >= best, f"{name}: the search beat the oracle")
        cols = [sorted(row[i] for row in opt.matrix) for i in range(prob.N)]
        if n <= 5:
            exhaustive = exhaustive_min_max_row_sum(cols)
            require(exhaustive == best, f"{name}: oracle {best}, exhaustive search {exhaustive}")
        pr = random.Random(perm_seed)
        for _ in range(RANDOM_PERMUTATIONS):
            shuffled = [cols[0]] + [pr.sample(c, len(c)) for c in cols[1:]]
            worst = max(sum(c[row] for c in shuffled) for row in range(n))
            require(worst >= best, f"{name}: a random pairing beats the oracle ({worst} < {best})")
        return True

    return Op(name, run, check)


def decreasing_step(r: random.Random):
    """N = 3 decreasing step density on (0, 1/2) with mass at most 7/8."""
    bps = (F(0), F(1, 8), F(1, 4), HALF)
    vals = (r.choice((F(9, 4), F(5, 2), F(11, 4), F(3))), r.choice((F(5, 4), F(3, 2), F(7, 4), F(2))), r.choice((F(1, 4), F(1, 2), F(3, 4), F(1))))
    return P.make_step_density(bps, vals)


# --- CLI leg ---


def cli_steps(workdir: str, hull_law, mix_density):
    hull_file = write_json(os.path.join(workdir, "law-hull.json"), law_obj(hull_law))
    mass = sum(cell_mass(*c) for c in density_cells(mix_density))
    mix_law = P.LocationLaw(mix_density.T, mix_density, atom0=1 - mass)
    mix_file = write_json(os.path.join(workdir, "law-mix.json"), law_obj(mix_law))

    def check_hull(code, out):
        rep = report(code, out, 0, "check --class hull")
        require(rep["verdict"] == "member", f"check --class hull: verdict {rep['verdict']}")
        check_certificate("check --class hull", hull_law, [(json_parts(c["law"]), F(c["weight"])) for c in rep["certificate"]])

    def check_mix(code, out):
        n = 7
        rep = report(code, out, None, "mix --method oracle")
        require(code == (0 if F(rep["max_row_sum"]) <= 1 else 1), f"mix: exit code {code} for max row sum {rep['max_row_sum']}")
        require(rep["N"] == 3 and sum(F(m) for m in rep["means"]) == mass, f"mix: N {rep['N']}, means {rep['means']}")
        cert = rep["certificate"]
        if cert is not None:
            matrix = [[F(x) for x in row] for row in cert["evidence"]["matrix"]]
            check_coupling_columns(mix_density, 3, n, matrix)
            require(max_row_sum(matrix) == F(cert["evidence"]["max_row_sum"]) <= 1, "mix: certificate row sums")

    return (
        CliStep("check-hull", ("check", hull_file, "--class", "hull"), check_hull),
        CliStep("mix-oracle", ("mix", mix_file, "--method", "oracle", "--n", "7"), check_mix),
    )


def build(seed: int, workdir: str) -> Workload:
    r = random.Random(f"certify/{seed}")
    v = r.choice(FORCED_VALUES)
    forced = P.step_law(1, (0, 1 / v, 1), (v, 0))
    T, bps, vals, a0, aT = FOUR_CELL
    mixtures = [known_mixture(r, 2), known_mixture(r, 2), mixture3()]
    ramp = P.PiecewiseDensity((F(0), F(9, 10)), ((F(20, 9), F(-200, 81)),))
    shelf = P.PiecewiseDensity((F(0), HALF, F(3, 5)), ((HALF, F(0)), (F(0), F(0))))
    linear = P.PiecewiseDensity((F(0), F(2, 5), HALF), ((F(2), F(-5)), (F(0), F(0))))
    sloped = P.PiecewiseDensity(*SLOPED)
    ops = [
        hull_op("hull-criterion5", P.step_law(*CRIT5), "non-member"),
        hull_op("hull-forced", forced, "non-member"),
        hull_op("hull-four-cell", P.step_law(T, bps, vals, atom0=a0, atomT=aT), "open"),
        hull_op("hull-mix2-0", mixtures[0], "member"),
        hull_op("hull-mix2-1", mixtures[1], "member"),
        hull_op("hull-mix3", mixtures[2], "member"),
        corollary_op("corollaries", (ramp, shelf, linear, decreasing_step(r), sloped)),
        rearrangement_op("rearrangement-step-64", decreasing_step(r), 64, r.getrandbits(32)),
        rearrangement_op("rearrangement-step-256", decreasing_step(r), 256, r.getrandbits(32)),
        rearrangement_op("rearrangement-sloped-128", sloped, 128, r.getrandbits(32)),
    ]
    for n in (4, 5, 6):
        ops.append(oracle_op(f"oracle-{n}", decreasing_step(r), n, r))
    # fixed inputs: the CLI leg costs the same on every seed
    hull_law = P.mix_laws([P.step_law(HALF, MIX_CELLS[2], vals, atom0=F(1, 8), atomT=F(1, 8)) for vals in ((2, 1), (1, 2))], [HALF, HALF])
    mix_density = P.make_step_density((F(0), F(1, 8), F(1, 4), HALF), (F(5, 2), F(3, 2), HALF))
    return Workload(tuple(ops), cli_steps(workdir, hull_law, mix_density))
