import itertools
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import periloc
from periloc.density import PiecewiseDensity, generalized_inverse, integral, make_step_density
from periloc.mixability import (
    Certificate,
    Coupling,
    _check_reconstruction,
    certify_convex,
    certify_gap,
    certify_linear,
    component_distributions,
    optimal_coupling,
    rearrangement_coupling,
    rearrangement_search,
)

# two stacked layers ending in point masses at 1/2 and 1/4
STEP = make_step_density((0, F(1, 4), F(1, 2), F(3, 5)), (2, 1, 0))
# f = 2 - 4x on (0, 1/2): both layers uniform
RAMP = PiecewiseDensity((F(0), F(1, 2), F(3, 5)), ((F(2), F(-4)), (F(0), F(0))))
# f linear on [0, 9/10] with full mass 1
FULL_RAMP = PiecewiseDensity((F(0), F(9, 10)), ((F(20, 9), F(-200, 81)),))
# convex, mass 1, but the inverse-sum criterion fails
STEEP = PiecewiseDensity(
    (F(0), F(1, 5), F(1)), ((F(5), F(-20)), (F(5, 4), F(-5, 4)))
)
# flat shelf then ramp: the bottom layer is wider than the top is low,
# so the row sums are forced past 1
RIGID = PiecewiseDensity(
    (F(0), F(2, 5), F(4, 5)), ((F(2), F(0)), (F(2), F(-5, 2)))
)


class TestComponentDistributions:
    def test_step_layers_are_point_masses(self):
        prob = component_distributions(STEP, F(3, 5))
        assert prob.N == 2
        f1, f2 = prob.components
        assert (f1.lo, f1.hi) == (F(1, 2), F(1, 2))
        assert f1.cdf(F(1, 2)) == 1
        assert f1.cdf(F(49, 100)) == 0
        assert f2.cdf(F(1, 4)) == 1
        assert f2.cdf(F(24, 100)) == 0
        for p in (F(1, 10), F(1, 2), F(9, 10)):
            assert f1.quantile(p) == F(1, 2)
            assert f2.quantile(p) == F(1, 4)
        assert prob.means == (F(1, 2), F(1, 4))

    def test_ramp_layers_are_uniform(self):
        prob = component_distributions(RAMP, F(3, 5))
        assert prob.N == 2
        f1, f2 = prob.components
        assert (f1.lo, f1.hi) == (F(1, 4), F(1, 2))
        assert (f2.lo, f2.hi) == (F(0), F(1, 4))
        assert f1.cdf(F(3, 8)) == F(1, 2)
        assert f2.cdf(F(1, 8)) == F(1, 2)
        assert f1.quantile(F(1, 2)) == F(3, 8)
        assert f2.quantile(F(3, 4)) == F(3, 16)
        assert prob.means == (F(3, 8), F(1, 8))

    def test_means_sum_to_density_mass(self):
        for f, T in ((STEP, F(3, 5)), (RAMP, F(3, 5)), (STEEP, F(1))):
            prob = component_distributions(f, T)
            assert sum(prob.means) == integral(f, 0, f.T)

    def test_zero_density_has_no_components(self):
        prob = component_distributions(make_step_density((0, F(1, 2)), (0,)), F(1, 2))
        assert prob.N == 0 and prob.components == ()

    def test_rejects_increasing_density(self):
        f = make_step_density((0, F(1, 4), F(1, 2)), (1, 2))
        with pytest.raises(ValueError):
            component_distributions(f, F(1, 2))

    def test_rejects_mismatched_domain(self):
        with pytest.raises(ValueError):
            component_distributions(STEP, F(1, 2))

    def test_cdf_outside_domain(self):
        f1 = component_distributions(STEP, F(3, 5)).components[0]
        assert f1.cdf(F(-1, 2)) == 0
        assert f1.cdf(F(3, 5)) == 1

    def test_quantile_needs_interior_level(self):
        f1 = component_distributions(STEP, F(3, 5)).components[0]
        with pytest.raises(ValueError):
            f1.quantile(0)


class TestCertifyConvex:
    def test_full_mass_ramp_certified(self):
        cert = certify_convex(FULL_RAMP, F(9, 10))
        assert cert is not None and cert.kind == "convex_corollary"
        assert cert.evidence["sum"] == F(297, 200)
        assert cert.evidence["bound"] == F(299, 200)

    def test_steep_ramp_fails_inverse_sum(self):
        # sum of layer right endpoints is 3/2 > 1 + 1/5
        assert STEEP.is_convex()
        assert certify_convex(STEEP, F(1)) is None

    def test_non_convex_rejected(self):
        assert not STEP.is_convex()
        assert certify_convex(STEP, F(3, 5)) is None

    def test_flat_unit_density_boundary(self):
        f = make_step_density((0, 1), (1,))
        cert = certify_convex(f, 1)
        assert cert is not None and cert.evidence["sum"] == cert.evidence["bound"]


class TestCertifyLinear:
    def test_ramp_certified_regardless_of_mass(self):
        for f, T in ((FULL_RAMP, F(9, 10)), (RAMP, F(3, 5))):
            cert = certify_linear(f, T)
            assert cert is not None and cert.kind == "linear_corollary"
        assert certify_linear(RAMP, F(3, 5)).evidence["mass"] == F(1, 2)

    def test_rejects_piecewise_support(self):
        assert certify_linear(STEEP, F(1)) is None

    def test_rejects_steps_and_positive_end(self):
        assert certify_linear(STEP, F(3, 5)) is None
        # linear but cut off before reaching zero
        f = PiecewiseDensity((F(0), F(1, 2)), ((F(1), F(-1)),))
        assert certify_linear(f, F(1, 2)) is None


class TestCertifyGap:
    def test_thin_shelf_certified(self):
        f = make_step_density((0, F(1, 2), F(3, 5)), (F(1, 2), 0))
        cert = certify_gap(f, F(3, 5))
        assert cert is not None and cert.kind == "gap_corollary"
        assert cert.evidence["gap"] == F(1, 2)
        assert cert.evidence["budget"] == F(3, 4)

    def test_unit_shelf_certified(self):
        cert = certify_gap(make_step_density((0, F(1, 2), F(3, 5)), (1, 0)), F(3, 5))
        assert cert is not None and cert.evidence["gap"] == 0

    def test_flat_unit_density_zero_gap(self):
        # every layer collapses to the point mass at 1: zero gap, zero budget
        cert = certify_gap(make_step_density((0, 1), (1,)), 1)
        assert cert is not None
        assert cert.evidence["gap"] == 0 and cert.evidence["budget"] == 0

    def test_wide_bottom_layer_rejected(self):
        f = make_step_density((0, F(4, 5), F(9, 10)), (F(3, 4), 0))
        assert certify_gap(f, F(9, 10)) is None
        assert certify_gap(STEEP, 1) is None


class TestRearrangement:
    def test_uniform_layers_reach_constant_sums(self):
        prob = component_distributions(RAMP, F(3, 5))
        coupling = rearrangement_coupling(prob, 4)
        assert coupling.max_row_sum == F(1, 2)
        assert all(sum(row) == F(1, 2) for row in coupling.matrix)

    def test_search_certifies_uniform_layers(self):
        prob = component_distributions(RAMP, F(3, 5))
        assert rearrangement_search(prob, 4) is not None

    def test_columns_are_quantile_sets(self):
        prob = component_distributions(RAMP, F(3, 5))
        coupling = rearrangement_search(prob, 6)
        for i, col in enumerate(prob.quantile_columns(6)):
            assert sorted(row[i] for row in coupling.matrix) == col

    def test_rigid_instance_not_certified(self):
        # the point mass at 2/5 plus the top of the wide layer exceeds
        # 1 + slack at every n
        prob = component_distributions(RIGID, F(4, 5))
        assert rearrangement_search(prob, 8) is None

    def test_slack_telescopes(self):
        prob = component_distributions(RAMP, F(3, 5))
        widths = [c.hi - c.lo for c in prob.components]
        assert prob.slack(5) == sum(widths) / 5 == F(1, 10)

    def test_reproducible(self):
        prob = component_distributions(STEEP, F(1))
        a = rearrangement_coupling(prob, 16, seed=7)
        b = rearrangement_coupling(prob, 16, seed=7)
        assert a == b

    def test_rejects_tiny_n(self):
        prob = component_distributions(RAMP, F(3, 5))
        with pytest.raises(ValueError):
            rearrangement_coupling(prob, 1)


class TestOracle:
    def test_point_mass_layers(self):
        prob = component_distributions(STEP, F(3, 5))
        coupling = optimal_coupling(prob, 4)
        assert coupling.max_row_sum <= 1
        assert coupling.max_row_sum == F(3, 4)
        assert all(row == (F(1, 2), F(1, 4)) for row in coupling.matrix)

    def test_rigid_instance_infeasible(self):
        prob = component_distributions(RIGID, F(4, 5))
        coupling = optimal_coupling(prob, 6)
        assert coupling.max_row_sum > 1
        assert coupling.max_row_sum == F(7, 6)

    def test_pairing_matches_enumeration(self):
        prob = component_distributions(RAMP, F(3, 5))
        col1, col2 = prob.quantile_columns(6)
        best = min(
            max(a + col2[p] for a, p in zip(col1, perm))
            for perm in itertools.permutations(range(6))
        )
        assert optimal_coupling(prob, 6).max_row_sum == best

    def test_three_layers_match_enumeration(self):
        f = PiecewiseDensity((F(0), F(3, 10), F(1, 2)), ((F(3), F(-10)), (F(0), F(0))))
        prob = component_distributions(f, F(1, 2))
        assert prob.N == 3
        c1, c2, c3 = prob.quantile_columns(5)
        best = min(
            max(a + c2[p2[r]] + c3[p3[r]] for r, a in enumerate(c1))
            for p2 in itertools.permutations(range(5))
            for p3 in itertools.permutations(range(5))
        )
        assert optimal_coupling(prob, 5).max_row_sum == best

    def test_limits(self):
        prob = component_distributions(STEEP, F(1))
        with pytest.raises(ValueError):
            optimal_coupling(prob, 4)  # N = 5
        with pytest.raises(ValueError):
            optimal_coupling(component_distributions(RAMP, F(3, 5)), 9)

    def test_empty_problem(self):
        prob = component_distributions(make_step_density((0, F(1, 2)), (0,)), F(1, 2))
        coupling = optimal_coupling(prob, 4)
        assert coupling.max_row_sum <= 1
        assert coupling.max_row_sum == 0


class TestValidation:
    def test_coupling_checks_row_sums(self):
        with pytest.raises(ValueError):
            Coupling(n=2, matrix=((F(1, 2),), (F(1, 4),)), max_row_sum=F(1, 4))
        with pytest.raises(ValueError):
            Coupling(n=3, matrix=((F(1, 2),), (F(1, 4),)), max_row_sum=F(1, 2))

    def test_certificate_kind_checked(self):
        with pytest.raises(ValueError):
            Certificate(kind="hunch", evidence={})


class TestReconstructionCheck:
    # rows sum to their stated maximum, but every entry sits at 1/2: the
    # reconstructed density at 1/4 is 2 where STEP has 1
    SCRIPT = """
import sys
from fractions import Fraction as F
from periloc.density import make_step_density
from periloc.mixability import Coupling, _check_reconstruction, component_distributions
STEP = make_step_density((0, F(1, 4), F(1, 2), F(3, 5)), (2, 1, 0))
bad = Coupling(n=4, matrix=((F(1, 2), F(1, 2)),) * 4, max_row_sum=F(1))
try:
    _check_reconstruction(component_distributions(STEP, F(3, 5)), bad)
except RuntimeError:
    print("raised, optimize =", sys.flags.optimize)
"""

    def test_wrong_reconstruction_raises(self):
        prob = component_distributions(STEP, F(3, 5))
        _check_reconstruction(prob, optimal_coupling(prob, 4))
        bad = Coupling(n=4, matrix=((F(1, 2), F(1, 2)),) * 4, max_row_sum=F(1))
        with pytest.raises(RuntimeError):
            _check_reconstruction(prob, bad)

    def test_raises_under_python_O(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(periloc.__file__)))
        done = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "raised, optimize = 1"


@st.composite
def small_decreasing_steps(draw):
    T = draw(st.sampled_from([F(2, 5), F(1, 2), F(4, 5), F(1)]))
    k = draw(st.integers(1, 3))
    cuts = draw(
        st.lists(st.integers(1, 19), min_size=k - 1, max_size=k - 1, unique=True)
    )
    bps = [F(0)] + sorted(F(c) * T / 20 for c in cuts) + [T]
    vals = sorted(
        (F(draw(st.integers(0, 12)), 4) for _ in range(k)), reverse=True
    )
    f = make_step_density(bps, vals)
    assume(integral(f, 0, T) <= 1)
    assume(f.value(0) > 0)
    return f


class TestQuantileColumns:
    @given(f=small_decreasing_steps(), n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_match_the_checked_inverse(self, f, n):
        # the columns skip the per-call monotonicity check; the values must
        # be those of the public, checked generalized_inverse
        prob = component_distributions(f, f.T)
        want = [
            [generalized_inverse(f, c.i - F(2 * r - 1, 2 * n)) for r in range(1, n + 1)]
            for c in prob.components
        ]
        assert prob.quantile_columns(n) == want

    def test_sloped_density(self):
        f = PiecewiseDensity((F(0), F(1, 4), F(1, 2)), ((F(3), F(-4)), (F(2), F(-4))))
        prob = component_distributions(f, f.T)
        want = [
            [generalized_inverse(f, c.i - F(2 * r - 1, 14)) for r in range(1, 8)]
            for c in prob.components
        ]
        assert prob.quantile_columns(7) == want


class TestSearchVersusOracle:
    @given(f=small_decreasing_steps(), n=st.integers(3, 6))
    @settings(max_examples=60, deadline=None)
    def test_search_never_beats_oracle(self, f, n):
        prob = component_distributions(f, f.T)
        found = rearrangement_coupling(prob, n, restarts=4)
        assert found.max_row_sum >= optimal_coupling(prob, n).max_row_sum


# --- Fraction reference for the integer kernels ---
# Test-only copies of the scans as they ran on Fractions, candidate by
# candidate: the library's integer kernels must pick the same coupling.


def _ref_counter_monotone(values, keys):
    order = sorted(range(len(keys)), key=lambda r: (keys[r], r))
    ranked = sorted(values, reverse=True)
    out = [None] * len(keys)
    for rank, r in enumerate(order):
        out[r] = ranked[rank]
    return out


def _ref_coupling(cols, n):
    rows = tuple(tuple(col[r] for col in cols) for r in range(n))
    worst = max((sum(row) for row in rows), default=F(0))
    return Coupling(n=n, matrix=rows, max_row_sum=worst)


def reference_optimal_coupling(prob, n):
    cols = prob.quantile_columns(n)
    if prob.N <= 1:
        return _ref_coupling(cols, n)
    if prob.N == 2:
        return _ref_coupling([cols[0], _ref_counter_monotone(cols[1], cols[0])], n)
    best = None
    for perm in itertools.permutations(range(n)):
        second = [cols[1][perm[r]] for r in range(n)]
        keys = [cols[0][r] + second[r] for r in range(n)]
        third = _ref_counter_monotone(cols[2], keys)
        cand = _ref_coupling([cols[0], second, third], n)
        if best is None or cand.max_row_sum < best.max_row_sum:
            best = cand
    return best


def reference_rearrangement(prob, n, max_iters, restarts, seed):
    base = prob.quantile_columns(n)
    rng = np.random.Generator(np.random.Philox(seed))
    best = None
    for attempt in range(max(1, restarts)):
        cols = [list(c) for c in base]
        if attempt > 0:
            for col in cols:
                rng.shuffle(col)
        sums = [sum(col[r] for col in cols) for r in range(n)] if cols else []
        for _ in range(max_iters):
            changed = False
            for col in cols:
                keys = [sums[r] - col[r] for r in range(n)]
                new = _ref_counter_monotone(col, keys)
                if new != col:
                    changed = True
                    for r in range(n):
                        sums[r] += new[r] - col[r]
                        col[r] = new[r]
            if not changed:
                break
        cand = _ref_coupling(cols, n)
        if best is None or cand.max_row_sum < best.max_row_sum:
            best = cand
    return best


# a three-layer step density with ties in every column
TIED = make_step_density((0, F(1, 8), F(1, 4), F(1, 2)), (F(5, 2), F(3, 2), F(1, 2)))


class TestIntegerKernelsMatchFractionReference:
    @given(f=small_decreasing_steps(), n=st.integers(1, 7))
    @example(f=TIED, n=7)
    @example(f=PiecewiseDensity((F(0), F(3, 10), F(1, 2)), ((F(3), F(-10)), (F(0), F(0)))), n=6)
    @settings(max_examples=30, deadline=None)
    def test_oracle(self, f, n):
        prob = component_distributions(f, f.T)
        assert optimal_coupling(prob, n) == reference_optimal_coupling(prob, n)

    @given(
        f=small_decreasing_steps(),
        n=st.integers(2, 40),
        max_iters=st.sampled_from([0, 1, 2, 100]),
        restarts=st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(f=STEEP, n=24, max_iters=100, restarts=8, seed=7)
    @example(f=TIED, n=64, max_iters=100, restarts=8, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_rearrangement(self, f, n, max_iters, restarts, seed):
        prob = component_distributions(f, f.T)
        found = rearrangement_coupling(prob, n, max_iters, restarts, seed)
        assert found == reference_rearrangement(prob, n, max_iters, restarts, seed)
