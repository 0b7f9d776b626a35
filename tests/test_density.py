"""Exact density calculus: values, TV, integrals, inverses, blocks, mixing."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from periloc.density import (
    Block,
    LocationLaw,
    PiecewiseDensity,
    as_rat,
    block_decomposition,
    generalized_inverse,
    integral,
    make_step_density,
    mix_laws,
    span_density,
    step_law,
    total_variation,
)
from periloc.paths import INFINITY


# --- strategies ---

rat_01 = st.integers(1, 39).map(lambda n: F(n, 40))


@st.composite
def step_densities(draw, max_cells=8, max_value=4):
    T = draw(st.sampled_from([F(3, 10), F(1, 2), F(3, 5), F(1)]))
    k = draw(st.integers(1, max_cells))
    cuts = draw(
        st.lists(st.integers(1, 39), min_size=k - 1, max_size=k - 1, unique=True)
    )
    bp = [F(0)] + [T * c / 40 for c in sorted(cuts)] + [T]
    vals = draw(
        st.lists(
            st.integers(0, 4 * max_value).map(lambda n: F(n, 4)),
            min_size=k,
            max_size=k,
        )
    )
    return make_step_density(bp, vals)


@st.composite
def integer_step_densities(draw, max_cells=8, max_value=4):
    T = draw(st.sampled_from([F(3, 10), F(1, 2), F(1)]))
    k = draw(st.integers(1, max_cells))
    cuts = draw(
        st.lists(st.integers(1, 39), min_size=k - 1, max_size=k - 1, unique=True)
    )
    bp = [F(0)] + [T * c / 40 for c in sorted(cuts)] + [T]
    vals = draw(st.lists(st.integers(0, max_value), min_size=k, max_size=k))
    return make_step_density(bp, vals)


@st.composite
def piecewise_densities(draw, max_cells=6):
    """Sloped cells with end values in quarters; each breakpoint is a jump or
    continuous at random."""
    T = draw(st.sampled_from([F(3, 10), F(1, 2), F(1)]))
    k = draw(st.integers(1, max_cells))
    cuts = draw(st.lists(st.integers(1, 39), min_size=k - 1, max_size=k - 1, unique=True))
    bp = [F(0)] + [T * c / 40 for c in sorted(cuts)] + [T]
    quarter = st.integers(0, 12).map(lambda n: F(n, 4))
    segs = []
    left = draw(quarter)
    for a, b in zip(bp, bp[1:]):
        right = draw(quarter)
        q = (right - left) / (b - a)
        segs.append((left - q * a, q))
        left = right if draw(st.booleans()) else draw(quarter)
    return PiecewiseDensity(tuple(bp), tuple(segs))


def oracle_tv(f, t1, t2, probes_per_cell=3):
    """Partition-sum total variation over (t1, t2).

    Exact for piecewise-affine f: within a cell the piece is monotone, so any
    refinement telescopes; breakpoints contribute |f(x) - f(x-)| via paired
    left-limit/value probes.
    """
    pts = []
    for j in range(1, f.k):
        x = f.breakpoints[j]
        if t1 < x < t2:
            pts.append(x)
    chain = [(t1, f.value(t1))]
    for x in pts:
        prev = chain[-1][0]
        for i in range(1, probes_per_cell + 1):
            s = prev + (x - prev) * F(i, probes_per_cell + 1)
            chain.append((s, f.value(s)))
        chain.append((x, f.left_limit(x)))
        chain.append((x, f.value(x)))
    prev = chain[-1][0]
    for i in range(1, probes_per_cell + 1):
        s = prev + (t2 - prev) * F(i, probes_per_cell + 1)
        chain.append((s, f.value(s)))
    chain.append((t2, f.left_limit(t2)))
    return sum(abs(b[1] - a[1]) for a, b in zip(chain, chain[1:]))


# --- construction and evaluation ---


class TestPiecewiseDensity:
    def test_counterexample_density(self):
        f = make_step_density([0, F(3, 4), 1], [F(4, 3), 0])
        assert f.value(F(1, 2)) == F(4, 3)
        assert f.value(F(3, 4)) == 0
        assert f.left_limit(F(3, 4)) == F(4, 3)

    def test_uniform(self):
        f = make_step_density([0, 1], [1])
        assert f.value(0) == 1
        assert f.left_limit(1) == 1

    def test_two_cell_integral(self):
        f = make_step_density([0, F(1, 5), F(2, 5)], [2, 1])
        assert integral(f, 0, f.T) == F(3, 5)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            make_step_density([0, 0.5], [1])
        with pytest.raises(TypeError):
            as_rat(0.15)

    def test_as_rat(self):
        x = F(3, 4)
        assert as_rat(x) is x
        for bad in (True, False, 0.5, 1.0):
            with pytest.raises(TypeError):
                as_rat(bad)
        for text, value in (("3/4", F(3, 4)), ("-2", F(-2)), ("0.25", F(1, 4))):
            assert as_rat(text) == value and type(as_rat(text)) is F
        assert as_rat(7) == 7 and type(as_rat(7)) is F

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            make_step_density([0, 1], [-1])
        with pytest.raises(ValueError):
            # affine dipping below zero at the right end
            PiecewiseDensity((F(0), F(1)), ((F(1), F(-2)),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            make_step_density([0, F(2, 3), F(1, 3), 1], [1, 1, 1])

    def test_affine_evaluation(self):
        # f(t) = 2 - 4t on (0, 1/2)
        f = PiecewiseDensity((F(0), F(1, 2)), ((F(2), F(-4)),))
        assert f.value(F(1, 4)) == 1
        assert f.left_limit(F(1, 2)) == 0
        assert f.is_decreasing() and f.is_convex() and not f.is_step()

    def test_monotone_and_convex_flags(self):
        up = make_step_density([0, F(1, 2), 1], [1, 2])
        assert not up.is_decreasing()
        down = make_step_density([0, F(1, 2), 1], [2, 1])
        assert down.is_decreasing()
        assert not down.is_convex()  # jump breaks continuity
        kink = PiecewiseDensity((F(0), F(1, 2), F(1)), ((F(2), F(-3)), (F(1), F(-1))))
        assert kink.is_convex()

    @given(piecewise_densities())
    @settings(max_examples=200)
    def test_jumps_match_value_minus_left_limit(self, f):
        jumps = f.jumps()
        assert len(jumps) == f.k - 1
        for j in range(1, f.k):
            x = f.breakpoints[j]
            assert jumps[j - 1] == f.value(x) - f.left_limit(x)


# --- total variation ---


class TestTotalVariation:
    def test_single_jump(self):
        f = make_step_density([0, F(3, 4), 1], [F(4, 3), 0])
        assert total_variation(f, F(1, 2), F(9, 10)) == F(4, 3)

    def test_constant_is_flat(self):
        f = make_step_density([0, 1], [1])
        assert total_variation(f, F(1, 4), F(3, 4)) == 0

    def test_unit_jump(self):
        f = make_step_density([0, F(1, 5), F(2, 5)], [2, 1])
        assert total_variation(f, F(1, 10), F(3, 10)) == 1

    def test_open_interval_excludes_endpoout_jumps(self):
        f = make_step_density([0, F(1, 2), 1], [2, 1])
        # jump sits exactly at t1: not inside the open interval
        assert total_variation(f, F(1, 2), F(3, 4)) == 0

    def test_affine_slope_contribution(self):
        f = PiecewiseDensity((F(0), F(1, 2), F(1)), ((F(2), F(-4)), (F(1), F(0))))
        # |slope| * length on (1/8, 3/8) = 4 * 1/4
        assert total_variation(f, F(1, 8), F(3, 8)) == 1

    @given(step_densities(), st.integers(1, 38), st.integers(2, 39))
    @settings(max_examples=200)
    def test_matches_partition_oracle(self, f, a, b):
        if a >= b:
            a, b = b, a + 1
        t1, t2 = f.T * a / 40, f.T * b / 40
        assert total_variation(f, t1, t2) == oracle_tv(f, t1, t2)

    @given(step_densities(), st.integers(1, 37), st.integers(2, 38), st.integers(3, 39))
    @settings(max_examples=200)
    def test_chain_rule_at_cadlag_point(self, f, a, b, c):
        a, b, c = sorted({a, b, c} | {a, a + 1, a + 2})[:3]
        t1, mid, t2 = (f.T * x / 40 for x in (a, b, c))
        lhs = total_variation(f, t1, t2)
        rhs = (
            total_variation(f, t1, mid)
            + abs(f.value(mid) - f.left_limit(mid))
            + total_variation(f, mid, t2)
        )
        assert lhs == rhs


# --- generalized inverse ---


class TestGeneralizedInverse:
    def test_step_boundaries(self):
        f = make_step_density([0, F(1, 5), F(2, 5), F(3, 5)], [2, 1, 0])
        assert generalized_inverse(f, 2) == F(1, 5)
        assert generalized_inverse(f, 1) == F(2, 5)
        assert generalized_inverse(f, 0) == F(2, 5)  # support ends there
        assert generalized_inverse(f, 3) == 0  # empty level set

    def test_affine_solve(self):
        f = PiecewiseDensity((F(0), F(1, 2)), ((F(2), F(-4)),))
        assert generalized_inverse(f, 1) == F(1, 4)
        assert generalized_inverse(f, 0) == F(1, 2)

    def test_requires_decreasing(self):
        f = make_step_density([0, F(1, 2), 1], [1, 2])
        for y in (0, 1, 3):  # the support-end branch, a level, an empty level
            with pytest.raises(ValueError):
                generalized_inverse(f, y)

    @given(step_densities(), st.integers(0, 16))
    @settings(max_examples=200)
    def test_inverse_properties(self, f, num):
        vals = sorted((p for p, _ in f.segments), reverse=True)
        if vals != [p for p, _ in f.segments]:
            return  # only decreasing inputs are in scope
        y = F(num, 4)
        t = generalized_inverse(f, y)
        assert 0 <= t <= f.T
        if y > 0 and t > 0:
            eps = min(t, F(1, 1000))
            assert f.value(t - eps) >= y
        # monotone in y
        assert generalized_inverse(f, y + F(1, 4)) <= t


# --- blocks ---


class TestBlockDecomposition:
    def test_single_base(self):
        f = make_step_density([0, F(3, 5)], [1])
        dec = block_decomposition(f)
        assert dec.blocks == (Block(F(0), F(3, 5), "base"),)

    def test_base_plus_left(self):
        f = make_step_density([0, F(3, 10), F(3, 5)], [2, 1])
        dec = block_decomposition(f)
        assert set(dec.blocks) == {
            Block(F(0), F(3, 5), "base"),
            Block(F(0), F(3, 10), "left"),
        }

    def test_base_plus_central(self):
        f = make_step_density([0, F(1, 5), F(2, 5), F(3, 5)], [1, 2, 1])
        dec = block_decomposition(f)
        assert set(dec.blocks) == {
            Block(F(0), F(3, 5), "base"),
            Block(F(1, 5), F(2, 5), "central"),
        }

    def test_right_block_and_multiplicity(self):
        f = make_step_density([0, F(1, 2), 1], [2, 3])
        dec = block_decomposition(f)
        assert dec.count("base") == 2
        assert dec.count("right") == 1
        assert dec.of_kind("right") == [Block(F(1, 2), F(1), "right")]

    def test_zero_density(self):
        f = make_step_density([0, 1], [0])
        assert block_decomposition(f).blocks == ()

    def test_rejects_non_integer(self):
        f = make_step_density([0, 1], [F(3, 2)])
        with pytest.raises(ValueError):
            block_decomposition(f)

    @given(integer_step_densities())
    @settings(max_examples=200)
    def test_reconstruction_identity(self, f):
        dec = block_decomposition(f)
        g = span_density(dec.T, [(b.u, b.v) for b in dec.blocks])
        for j in range(f.k):
            t = (f.breakpoints[j] + f.breakpoints[j + 1]) / 2
            assert g.value(t) == f.value(t)

    @given(integer_step_densities())
    @settings(max_examples=200)
    def test_nested_or_disjoint(self, f):
        dec = block_decomposition(f)
        bs = dec.blocks
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                a, b = bs[i], bs[j]
                nested = (a.u <= b.u and b.v <= a.v) or (b.u <= a.u and a.v <= b.v)
                disjoint = a.v < b.u or b.v < a.u
                assert nested or disjoint


# --- spans to a step density ---

span_ends = st.integers(-10, 50).map(lambda n: F(n, 40)) | st.sampled_from([-INFINITY, INFINITY])


class TestSpanDensity:
    @given(
        T=st.sampled_from([F(3, 10), F(1, 2), F(1)]),
        spans=st.lists(st.tuples(span_ends, span_ends), max_size=8),
    )
    # an empty and a reversed span cut the domain and count nowhere
    @example(T=F(1), spans=[(F(1, 4), F(1, 4)), (F(3, 4), F(1, 2))])
    @example(T=F(1, 2), spans=[(-INFINITY, F(1, 5)), (F(1, 10), INFINITY), (-INFINITY, INFINITY)])
    @settings(max_examples=300)
    def test_counts_covering_spans(self, T, spans):
        f = span_density(T, spans)
        ends = {x for span in spans for x in span if 0 < x < T}
        assert set(f.breakpoints) == {F(0), T} | ends
        assert f.is_step()
        for a, b in zip(f.breakpoints, f.breakpoints[1:]):
            mid = (a + b) / 2
            assert f.value(mid) == sum(1 for lo, hi in spans if lo < mid < hi)


# --- laws and mixing ---


class TestLocationLaw:
    def test_mass_must_be_one(self):
        with pytest.raises(ValueError):
            step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 4))
        law = step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 4), atomT=F(1, 4))
        assert law.total_mass() == 1

    def test_cdf(self):
        law = step_law(F(1, 2), [0, F(1, 2)], [1], atom0=F(1, 4), atomT=F(1, 4))
        assert law.cdf(0) == F(1, 4)
        assert law.cdf(F(1, 4)) == F(1, 2)
        assert law.cdf(F(1, 2)) == 1

    def test_mix_identity(self):
        law = step_law(1, [0, 1], [1])
        assert mix_laws([law], [1]).density.value(F(1, 3)) == 1

    def test_mix_with_infinity_mass(self):
        a = step_law(F(1, 2), [0, F(1, 2)], [2])
        b = step_law(F(1, 2), [0, F(1, 2)], [0], atomInf=1)
        m = mix_laws([a, b], [F(1, 2), F(1, 2)])
        assert m.density.value(F(1, 4)) == 1
        assert m.atomInf == F(1, 2)

    def test_mix_linearity_of_integral(self):
        a = step_law(F(1, 2), [0, F(1, 4), F(1, 2)], [1, 2], atom0=F(1, 8), atomT=F(1, 8))
        b = step_law(F(1, 2), [0, F(1, 2)], [1], atomT=F(1, 2))
        m = mix_laws([a, b], [F(1, 4), F(3, 4)])
        assert m.interior_mass() == F(1, 4) * a.interior_mass() + F(3, 4) * b.interior_mass()
        assert m.total_mass() == 1

    def test_mix_rejects_bad_weights(self):
        law = step_law(1, [0, 1], [1])
        with pytest.raises(ValueError):
            mix_laws([law, law], [F(1, 2), F(1, 3)])

    def test_mix_rejects_mismatched_T(self):
        a = step_law(1, [0, 1], [1])
        b = step_law(F(1, 2), [0, F(1, 2)], [2])
        with pytest.raises(ValueError):
            mix_laws([a, b], [F(1, 2), F(1, 2)])

    @given(
        st.lists(st.integers(0, 8), min_size=2, max_size=2),
    )
    @settings(max_examples=50)
    def test_mix_preserves_mass(self, nums):
        a = step_law(F(1, 2), [0, F(1, 4), F(1, 2)], [1, 2], atom0=F(1, 8), atomT=F(1, 8))
        b = step_law(F(1, 2), [0, F(1, 2)], [0], atomInf=1)
        w = F(nums[0] + 1, nums[0] + nums[1] + 2)
        m = mix_laws([a, b], [w, 1 - w])
        assert m.total_mass() == 1
