"""Variation-constraint checkers, extreme-class checks, hull certificates."""

import random
from fractions import Fraction as F
from itertools import product
from math import ceil, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periloc.density import (
    LocationLaw,
    PiecewiseDensity,
    integral,
    make_step_density,
    step_law,
    total_variation,
)
from periloc import membership
from periloc.membership import (
    HullCertificate,
    MembershipReport,
    check_class,
    check_tv,
    check_tv_prime,
    hull_membership_lp,
)

import membership_reference as ref
from test_density import integer_step_densities, piecewise_densities, step_densities


# --- condition (TV) ---


class TestCheckTV:
    def test_counterexample_density_passes(self):
        f = make_step_density([0, F(3, 4), 1], [F(4, 3), 0])
        assert check_tv(f).is_member

    def test_isolated_bump_fails_with_witness(self):
        f = make_step_density([0, F(1, 3), F(2, 3), 1], [0, 1, 0])
        rep = check_tv(f)
        assert rep.verdict == "non-member"
        t1, t2 = rep.witness
        assert 0 < t1 < t2 < 1
        assert total_variation(f, t1, t2) > f.value(t1) + f.value(t2)

    def test_constant_passes(self):
        for c in (0, 1, F(7, 2)):
            f = make_step_density([0, 1], [c])
            assert check_tv(f).is_member

    def test_decreasing_passes(self):
        f = make_step_density([0, F(1, 4), F(1, 2), 1], [3, 2, 1])
        assert check_tv(f).is_member

    def test_affine_w_shape_fails(self):
        # two pits: the climb between them adds variation the endpoints
        # cannot cover (a single symmetric vee only saturates the bound)
        f = PiecewiseDensity(
            (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)),
            ((F(1), F(-4)), (F(-1), F(4)), (F(3), F(-4)), (F(-3), F(4))),
        )
        rep = check_tv(f)
        assert rep.verdict == "non-member"
        t1, t2 = rep.witness
        assert total_variation(f, t1, t2) > f.value(t1) + f.value(t2)

    @given(step_densities(), st.data())
    @settings(max_examples=200)
    def test_member_means_no_violating_pair(self, f, data):
        if not check_tv(f).is_member:
            return
        a = data.draw(st.integers(1, 38))
        b = data.draw(st.integers(a + 1, 39))
        t1, t2 = f.T * a / 40, f.T * b / 40
        assert total_variation(f, t1, t2) <= f.value(t1) + f.value(t2)


class TestCheckTVPrime:
    def test_boundary_form_of_bump(self):
        f = make_step_density([0, F(1, 3), F(2, 3), 1], [0, 1, 0])
        rep = check_tv_prime(f)
        assert rep.verdict == "non-member"
        t1, t2 = rep.witness
        assert total_variation(f, t1, t2) > f.value(t1) + f.value(t2)

    def test_decreasing_step(self):
        f = make_step_density([0, F(1, 2), 1], [2, 1])
        assert check_tv_prime(f).is_member

    @given(step_densities())
    @settings(max_examples=400)
    def test_equivalent_to_full_condition(self, f):
        assert check_tv(f).is_member == check_tv_prime(f).is_member


# --- extreme classes ---


class TestCheckClass:
    def test_uniform_with_boundary_atoms_in_e1t(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 4), atomT=F(1, 4))
        assert check_class(law, "E1T").is_member
        assert check_class(law, "ET").is_member

    def test_non_integer_density_rejected(self):
        law = step_law(1, [0, F(3, 4), 1], [F(4, 3), 0])
        rep = check_class(law, "ET")
        assert rep.verdict == "non-member"
        assert "integer-values" in rep.violated_conditions

    def test_first_time_example_in_emt(self):
        law = step_law(
            F(2, 5), [0, F(1, 5), F(2, 5)], [2, 1], atom0=F(1, 10), atomInf=F(3, 10)
        )
        assert check_class(law, "EMT").is_member

    def test_emt_rejects_atom_at_T(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 8), atomT=F(3, 8))
        rep = check_class(law, "EMT")
        assert "atom-at-T" in rep.violated_conditions

    def test_emt_rejects_increasing(self):
        law = step_law(F(1, 2), [0, F(1, 4), F(1, 2)], [1, 2], atom0=F(1, 4))
        rep = check_class(law, "EMT")
        assert "not-decreasing" in rep.violated_conditions

    def test_lower_bound_enforced_without_truncation(self):
        # mass everywhere but density dips to 0 in the middle
        law = step_law(
            1, [0, F(1, 4), F(1, 2), 1], [1, 0, 1], atom0=F(1, 8), atomT=F(1, 8)
        )
        rep = check_class(law, "ET")
        assert rep.verdict == "non-member"
        assert "lower-bound" in rep.violated_conditions

    def test_truncated_law_allows_zero_density(self):
        # all mass in [0, 1/2]: density may vanish afterwards
        law = step_law(1, [0, F(1, 2), 1], [2, 0])
        assert check_class(law, "ET").is_member

    def test_point_mass_at_zero(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [0], atom0=1)
        assert check_class(law, "EMT").is_member

    def test_point_mass_at_infinity(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [0], atomInf=1)
        assert check_class(law, "ET").is_member

    def test_infinity_mass_needs_f_minus_one_variation(self):
        # f = 1 + bump: f passes (TV) marginally? bump of height 2 in the middle:
        # TV = 2+2 = 4 > f(t1)+f(t2) = 1+1; use f with a unit bump instead: f-1
        # is an isolated bump and must fail the minus-one condition.
        law = step_law(
            F(1, 2),
            [0, F(1, 8), F(1, 4), F(1, 2)],
            [1, 2, 1],
            atomInf=F(3, 8),
        )
        # f itself: TV(t1,t2) = 2 <= 1+1 at the worst pair: passes
        assert check_tv(law.density).is_member
        rep = check_class(law, "ET")
        assert rep.verdict == "non-member"
        assert "variation-bound-minus-one" in rep.violated_conditions

    def test_e1t_rejects_infinity_mass(self):
        law = step_law(
            F(2, 5), [0, F(2, 5)], [1], atom0=F(1, 5), atomInf=F(2, 5)
        )
        rep = check_class(law, "E1T")
        assert "infinity-mass" in rep.violated_conditions
        assert check_class(law, "ET").is_member

    def test_e1t_implies_et_without_infinity_mass(self):
        laws = [
            step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 4), atomT=F(1, 4)),
            step_law(F(1, 2), [0, F(1, 4), F(1, 2)], [2, 1], atom0=F(1, 8), atomT=F(1, 8)),
            step_law(1, [0, 1], [1]),
        ]
        for law in laws:
            if check_class(law, "E1T").is_member:
                assert check_class(law, "ET").is_member
                assert law.atomInf == 0

    def test_unknown_class_rejected(self):
        law = step_law(1, [0, 1], [1])
        with pytest.raises(ValueError):
            check_class(law, "XYZ")


# --- hull membership ---

# the four-cell law (3/2, 1/2, 3/2, 1/2) with atoms 1/4 at 0 and at T
FOUR_CELL_LAW = step_law(
    F(1, 2),
    [0, F(1, 8), F(1, 4), F(3, 8), F(1, 2)],
    [F(3, 2), F(1, 2), F(3, 2), F(1, 2)],
    atom0=F(1, 4),
    atomT=F(1, 4),
)


class TestHullMembership:
    def test_extreme_law_is_its_own_certificate(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 4), atomT=F(1, 4))
        cert = hull_membership_lp(law)
        assert isinstance(cert, HullCertificate)
        assert cert.components == ((law, F(1)),)

    def test_three_halves_decomposes(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [F(3, 2)], atom0=F(1, 4))
        cert = hull_membership_lp(law)
        assert isinstance(cert, HullCertificate)
        for comp, w in cert.components:
            assert w > 0
            assert check_class(comp, "ET").is_member
        mixed = cert.mixed()
        assert mixed.atom0 == law.atom0
        assert mixed.density.value(F(1, 4)) == F(3, 2)

    def test_counterexample_is_non_member_with_mass_witness(self):
        law = step_law(1, [0, F(3, 4), 1], [F(4, 3), 0])
        assert check_tv(law.density).is_member  # passes the variation test...
        rep = hull_membership_lp(law)
        assert isinstance(rep, MembershipReport)
        assert rep.verdict == "non-member"
        assert rep.witness["integral"] == F(3, 2)
        assert rep.witness["forced_value"] == 2

    def test_cap_reports_unknown(self, monkeypatch):
        monkeypatch.setattr(membership, "HULL_CANDIDATE_CAP", 1)
        law = step_law(1, [0, F(3, 4), 1], [F(4, 3), 0])
        rep = hull_membership_lp(law)
        assert rep.verdict == "unknown"
        assert "enumeration-capped" in rep.violated_conditions

    def test_cap_counts_rejected_candidates(self, monkeypatch):
        # 601 candidates are enumerated and 121 pass the ET conditions, so a
        # cap of 300 must stop the search even though few are accepted
        monkeypatch.setattr(membership, "HULL_CANDIDATE_CAP", 300)
        rep = hull_membership_lp(FOUR_CELL_LAW)
        assert isinstance(rep, MembershipReport)
        assert rep.verdict == "unknown"
        assert rep.violated_conditions == ("enumeration-capped",)

    def test_one_candidate_per_atom(self, monkeypatch):
        # each value vector puts its leftover mass on one atom at a time: 221
        # vectors give 601 candidates, 121 of them extreme. The variation
        # scan runs once for the law itself and once per vector, and no
        # candidate becomes a law, since none enters a certificate.
        scans, columns = [], []
        scan, simplex = membership.check_tv, membership._phase1_simplex

        def counting_check_tv(f):
            scans.append(f)
            return scan(f)

        def counting_phase1_simplex(A, b):
            columns.append(len(A[0]))
            return simplex(A, b)

        def no_law(*args, **kwargs):
            raise AssertionError("the search built a LocationLaw")

        monkeypatch.setattr(membership, "check_tv", counting_check_tv)
        monkeypatch.setattr(membership, "_phase1_simplex", counting_phase1_simplex)
        monkeypatch.setattr(membership, "LocationLaw", no_law)
        rep = hull_membership_lp(FOUR_CELL_LAW)
        assert rep.verdict == "unknown"
        assert rep.violated_conditions == ("no-certificate-in-family",)
        assert len(scans) == 1 + 221
        assert columns == [121]

    def test_mixture_of_uniform_and_point_mass(self):
        law = step_law(1, [0, 1], [F(1, 2)], atom0=F(1, 2))
        cert = hull_membership_lp(law)
        assert isinstance(cert, HullCertificate)
        for comp, _ in cert.components:
            assert check_class(comp, "ET").is_member

    def test_unresolvable_case_is_unknown(self):
        # vanishing tail but with an atom at T: the envelope argument does not
        # apply and no certificate exists over single-cell candidates
        law = step_law(
            1, [0, F(3, 4), 1], [F(2, 3), 0], atomT=F(1, 2)
        )
        out = hull_membership_lp(law)
        if isinstance(out, MembershipReport):
            assert out.verdict == "unknown"
        else:
            # a certificate, if found, must be exact and extreme
            for comp, _ in out.components:
                assert check_class(comp, "ET").is_member

    def test_seven_cells_answer_without_walking_every_vector(self):
        # 9^7 value vectors, 3,432 of them with interior mass <= 1: only
        # those are walked, so the certificate comes back in seconds
        law = step_law(1, [F(i, 7) for i in range(8)], [F(13, 2)] + [0] * 6, atom0=F(1, 14))
        cert = hull_membership_lp(law)
        assert isinstance(cert, HullCertificate)
        assert [(c.density.segments[0][0], c.atom0, w) for c, w in cert.components] == [
            (6, F(1, 7), F(1, 2)),
            (7, 0, F(1, 2)),
        ]

    @given(
        st.lists(st.integers(1, 12).map(lambda n: F(n, 12)), min_size=1, max_size=4),
        st.integers(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_value_vectors_are_the_filtered_product(self, lens, max_level):
        expected = [
            (values, m)
            for values in product(range(max_level + 1), repeat=len(lens))
            if (m := 1 - sum(v * l for v, l in zip(values, lens))) >= 0
        ]
        assert list(membership._value_vectors(lens, max_level)) == expected

    @given(st.integers(1, 3), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_certificates_reproduce_their_law(self, num, a0_num):
        law = step_law(
            F(1, 2),
            [0, F(1, 2)],
            [F(num, 2)],
            atom0=F(a0_num, 8),
            atomT=1 - F(num, 4) - F(a0_num, 8),
        )
        out = hull_membership_lp(law)
        if isinstance(out, HullCertificate):
            mixed = out.mixed()
            assert mixed.atom0 == law.atom0
            assert mixed.atomT == law.atomT
            assert mixed.atomInf == law.atomInf
            assert mixed.interior_mass() == law.interior_mass()
            for comp, w in out.components:
                assert check_class(comp, "ET").is_member


# --- the one-atom candidate family spans the same hull ---


def _lattice_family_feasible(law):
    """Is the hull LP feasible over the family of every atom triple on the
    1/D lattice (D the lcm of the atoms' and cell lengths' denominators), the
    same value vectors and the same check_class filter?"""
    f = law.density
    lens = [b - a for a, b in zip(f.breakpoints, f.breakpoints[1:])]
    D = lcm(
        law.atom0.denominator,
        law.atomT.denominator,
        law.atomInf.denominator,
        *[l.denominator for l in lens],
    )
    candidates = []
    for values in product(range(ceil(f.sup()) + 2), repeat=f.k):
        m = (1 - sum(v * l for v, l in zip(values, lens))) * D
        if m < 0:
            continue
        density = make_step_density(f.breakpoints, [F(v) for v in values])
        for i in range(int(m) + 1):
            for j in range(int(m) - i + 1):
                cand = LocationLaw(law.T, density, F(i, D), F(j, D), F(int(m) - i - j, D))
                if check_class(cand, "ET").is_member:
                    candidates.append(cand)
    if not candidates:
        return False
    A = [[c.density.segments[j][0] for c in candidates] for j in range(f.k)]
    A += [[getattr(c, attr) for c in candidates] for attr in ("atom0", "atomT", "atomInf")]
    A.append([F(1)] * len(candidates))
    b = [p for p, _ in f.segments] + [law.atom0, law.atomT, law.atomInf, F(1)]
    return membership._phase1_simplex(A, b) is not None


def _small_step_laws(n, seed):
    """n step laws: 1-3 cells on the quarters of T, with T = 1 for three
    cells and T in {1/2, 1} otherwise, values in halves up to 2, atoms on
    1/8."""
    r = random.Random(seed)
    laws = []
    while len(laws) < n:
        cuts = sorted(r.sample(range(1, 4), r.randint(0, 2)))
        T = F(1) if len(cuts) == 2 else r.choice((F(1, 2), F(1)))
        bp = [F(0)] + [T * c / 4 for c in cuts] + [T]
        vals = [F(r.randint(0, 4), 2) for _ in range(len(bp) - 1)]
        left = 1 - sum(v * (b - a) for v, a, b in zip(vals, bp, bp[1:]))
        if left < 0 or (left * 8).denominator != 1:
            continue
        a0 = F(r.randint(0, int(left * 8)), 8)
        aT = F(r.randint(0, int((left - a0) * 8)), 8)
        laws.append(step_law(T, bp, vals, atom0=a0, atomT=aT, atomInf=left - a0 - aT))
    return laws


# outside the hull by the forced-envelope argument
FORCED_ENVELOPE_LAWS = (
    step_law(1, [0, F(3, 4), 1], [F(4, 3), 0]),
    step_law(1, [0, F(1, 4), 1], [0, F(4, 3)]),
    step_law(1, [0, F(1, 2), F(3, 4), 1], [0, F(3, 2), 0], atom0=F(5, 8)),
)


class TestOneAtomCandidates:
    @given(
        integer_step_densities(max_cells=4, max_value=3),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_member_split_has_member_vertices(self, f, shares):
        # an ET law with its leftover mass split over the atoms is a mixture
        # of the same density with all of that mass on each used atom, and
        # each of those is ET too
        m = 1 - integral(f, 0, f.T)
        assume(m > 0 and sum(shares) > 0)
        atoms = [m * s / sum(shares) for s in shares]
        if not check_class(LocationLaw(f.T, f, *atoms), "ET").is_member:
            return
        for i, a in enumerate(atoms):
            if a > 0:
                vertex = [m if j == i else F(0) for j in range(3)]
                assert check_class(LocationLaw(f.T, f, *vertex), "ET").is_member

    def test_same_verdicts_as_lattice_family(self):
        outcomes = {"member": 0, "non-member": 0, "unknown": 0}
        for law in _small_step_laws(200, seed=20161) + list(FORCED_ENVELOPE_LAWS):
            res = hull_membership_lp(law)
            if _lattice_family_feasible(law):
                assert isinstance(res, HullCertificate), law
                outcomes["member"] += 1
                continue
            assert isinstance(res, MembershipReport), law
            outcomes[res.verdict] += 1
            forced = membership._forced_envelope_witness(law)
            if forced is not None:
                assert res == forced
            else:
                assert res.verdict == "unknown"
                assert res.violated_conditions == ("no-certificate-in-family",)
        assert all(outcomes.values()), outcomes


# --- the same reports and certificates as the law-level reference ---


@st.composite
def laws_with_atoms(draw):
    """Step densities with integer or quarter values and sloped densities,
    the leftover mass spread over a drawn nonempty set of atoms."""
    f = draw(
        st.one_of(
            integer_step_densities(max_cells=4, max_value=2),
            step_densities(max_cells=4, max_value=2),
            piecewise_densities(max_cells=4),
        )
    )
    m = 1 - integral(f, 0, f.T)
    assume(m >= 0)
    used = draw(st.sampled_from([u for u in product((0, 1), repeat=3) if any(u)]))
    shares = [draw(st.integers(1, 3)) * u for u in used]
    return LocationLaw(f.T, f, *(m * s / sum(shares) for s in shares))


class TestMatchesReference:
    @given(laws_with_atoms())
    @settings(max_examples=600, deadline=None)
    def test_class_reports(self, law):
        for cls in ("ET", "E1T", "EMT"):
            assert repr(check_class(law, cls)) == repr(ref.check_class(law, cls))
        assert repr(check_tv(law.density)) == repr(ref.check_tv(law.density))
        assert repr(check_tv_prime(law.density)) == repr(ref.check_tv_prime(law.density))

    def test_class_reports_cover_every_condition(self):
        # each ET condition, the minus-one one included, and a member law
        laws = [
            step_law(F(1, 2), [0, F(1, 2)], [F(3, 2)], atom0=F(1, 4)),
            step_law(1, [0, F(1, 2), 1], [0, 1], atom0=F(1, 2)),
            step_law(F(1, 2), [0, F(1, 8), F(1, 4), F(1, 2)], [1, 2, 1], atomInf=F(3, 8)),
            step_law(F(1, 2), [0, F(1, 4), F(1, 2)], [1, 1], atomInf=F(1, 2)),
            # f - 1 = (0, 1/2, 0) has margin -1: a violation only with the drop of 2
            step_law(F(1, 2), [0, F(1, 6), F(1, 3), F(1, 2)], [1, F(3, 2), 1], atomInf=F(5, 12)),
            step_law(F(1, 2), [0, F(1, 2)], [0], atomInf=1),
            step_law(1, [0, F(1, 4), F(1, 2), 1], [0, 1, 0], atomInf=F(3, 4)),
        ]
        seen = set()
        for law in laws:
            for cls in ("ET", "E1T", "EMT"):
                rep = check_class(law, cls)
                assert repr(rep) == repr(ref.check_class(law, cls))
                seen.update(rep.violated_conditions or ("member",))
        assert {"integer-values", "variation-bound", "lower-bound", "variation-bound-minus-one", "member"} <= seen

    def test_hull_results(self):
        laws = _small_step_laws(60, seed=2016) + list(FORCED_ENVELOPE_LAWS) + [FOUR_CELL_LAW]
        for law in laws:
            assert repr(hull_membership_lp(law)) == repr(ref.hull_membership_lp(law)), law

    def test_capped_hull_results(self, monkeypatch):
        for cap in (0, 1, 300, 601):
            monkeypatch.setattr(membership, "HULL_CANDIDATE_CAP", cap)
            assert repr(hull_membership_lp(FOUR_CELL_LAW)) == repr(ref.hull_membership_lp(FOUR_CELL_LAW))
