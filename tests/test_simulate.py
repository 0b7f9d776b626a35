import random
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sweep_reference as ref
from periloc.density import LocationLaw, PiecewiseDensity, step_law
from periloc.paths import (
    INFINITY,
    PiecewiseLinearPath,
    composite_location,
    first_hit,
    last_hit,
    locator_by_name,
    sup_location,
    truncated_sup_location,
)
from periloc.simulate import (
    _BLOCK,
    EmpiricalLaw,
    _sorted_cdf,
    compare,
    mc_law,
    sweep_law,
)

from test_paths import TRIANGLE, paths, rat_small, tie_paths

UNIFORM = step_law(1, (0, 1), (1,))
horizons = st.integers(1, 40).map(lambda k: F(k, 40))


def laws_equal(a: EmpiricalLaw, b: EmpiricalLaw, tol=1e-9):
    assert a.n == b.n
    assert (a.count0, a.countT, a.countInf) == (b.count0, b.countT, b.countInf)
    assert np.allclose(a.interior, b.interior, atol=tol, rtol=0)


class TestSweepLaw:
    def test_triangle_sup_is_uniform(self):
        emp = sweep_law(TRIANGLE, "sup", 1, 10_000)
        rep = compare(UNIFORM, emp, tol_ks=1e-3, tol_atom=2e-5)
        assert rep.passed, rep

    def test_triangle_first_hit_half_window(self):
        # hits of level 1/2 sit at 1/4 + k/2, so every window of length
        # 1/2 catches exactly one and the location is uniform doubled
        target = step_law(F(1, 2), (0, F(1, 2)), (2,))
        emp = sweep_law(TRIANGLE, "first-hit:1/2", F(1, 2), 10_000)
        assert emp.count0 == emp.countT == emp.countInf == 0
        rep = compare(target, emp)
        assert rep.passed, rep

    def test_low_path_truncated_sup_all_infinite(self):
        g = PiecewiseLinearPath([(0, 0), (F(1, 2), F(1, 4)), (1, 0)])
        emp = sweep_law(g, "truncated-sup", F(1, 2), 1_000)
        assert emp.countInf == emp.n

    def test_constant_path_sup_all_zero(self):
        g = PiecewiseLinearPath([(0, 1), (1, 1)])
        emp = sweep_law(g, "sup", F(1, 2), 500)
        assert emp.count0 == emp.n

    def test_level_never_attained_first_hit(self):
        emp = sweep_law(TRIANGLE, "first-hit:3", F(1, 2), 300)
        assert emp.countInf == emp.n

    def test_last_hit_mirrors_first_hit(self):
        first = sweep_law(TRIANGLE, "first-hit:1/2", F(1, 2), 2_000)
        last = sweep_law(TRIANGLE, "last-hit:1/2", F(1, 2), 2_000)
        # same hit set, windows catching exactly one hit: identical laws
        laws_equal(first, last)

    def test_deterministic(self):
        a = sweep_law(TRIANGLE, "sup", 1, 777)
        b = sweep_law(TRIANGLE, "sup", 1, 777)
        laws_equal(a, b, tol=0)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_law(TRIANGLE, "sup", 1, 0)


class TestCompositeRouting:
    def test_nonnegative_path_routes_to_sup(self):
        laws_equal(
            sweep_law(TRIANGLE, "composite", F(1, 2), 400),
            sweep_law(TRIANGLE, "sup", F(1, 2), 400),
        )

    def test_path_reaching_minus_one_routes_to_first_hit(self):
        g = PiecewiseLinearPath([(0, 1), (F(1, 2), -1), (1, 1)])
        laws_equal(
            sweep_law(g, "composite", F(1, 2), 400),
            sweep_law(g, "first-hit:-1", F(1, 2), 400),
        )

    def test_deep_path_routes_to_last_hit(self):
        g = PiecewiseLinearPath([(0, -4), (F(1, 2), -1 - F(1, 100)), (1, -4)])
        laws_equal(
            sweep_law(g, "composite", F(1, 2), 400),
            sweep_law(g, "last-hit:-2", F(1, 2), 400),
        )


@st.composite
def tie_node_levels(draw):
    """A tie path and one of its node values."""
    g = draw(tie_paths())
    return g, draw(st.sampled_from([y for _, y in g.nodes]))


class TestEngineMatchesExactLocators:
    """The float engine must reproduce the rational locators shift by shift."""

    # tie paths put nodes, window ends and 1/2 on one lattice, so the sup
    # engines meet exact ties between window ends, node values and 1/2
    @given(g=tie_paths(), T=horizons, n=st.sampled_from((1, 2, 20, 53)))
    @settings(max_examples=60, deadline=None)
    def test_sup(self, g, T, n):
        wrapped = lambda g_, a, b: sup_location(g_, a, b)  # hides the fast path
        laws_equal(sweep_law(g, "sup", T, n), sweep_law(g, wrapped, T, n))

    @given(g=tie_paths(), T=horizons, n=st.sampled_from((1, 2, 20, 53)))
    @settings(max_examples=60, deadline=None)
    def test_truncated_sup(self, g, T, n):
        wrapped = lambda g_, a, b: truncated_sup_location(g_, a, b)
        laws_equal(sweep_law(g, "truncated-sup", T, n), sweep_law(g, wrapped, T, n))

    @given(g=paths())
    @settings(max_examples=60, deadline=None)
    def test_first_hit(self, g):
        wrapped = lambda g_, a, b: first_hit(g_, F(-1), a, b)
        laws_equal(
            sweep_law(g, "first-hit:-1", F(4, 5), 53),
            sweep_law(g, wrapped, F(4, 5), 53),
        )

    @given(case=tie_node_levels(), T=horizons, n=st.sampled_from((1, 2, 20, 53)))
    # a plateau at the level from 0 to 3/40: at u = 3/40 the last hit is the
    # window start, which exact evaluation counts as an atom at 0
    @example(
        case=(PiecewiseLinearPath(((0, 0), (F(1, 40), 0), (F(1, 20), 0), (F(3, 40), 0), (F(1, 10), F(1, 4)), (F(1, 5), 0), (1, 0))), F(0)),
        T=F(1, 40),
        n=20,
    )
    @settings(max_examples=60, deadline=None)
    def test_last_hit(self, case, T, n):
        g, level = case
        wrapped = lambda g_, a, b: last_hit(g_, level, a, b)
        fast, slow = sweep_law(g, f"last-hit:{level}", T, n), sweep_law(g, wrapped, T, n)
        # the one known difference, the window-start tie: the engine counts a
        # last hit at u as the interior sample 0, not as the atom at 0
        assert fast.count0 == 0
        interior = np.sort(np.concatenate([np.zeros(slow.count0), slow.interior]))
        laws_equal(fast, EmpiricalLaw(slow.T, slow.n, 0, slow.countT, slow.countInf, interior))

    @given(g=paths())
    @settings(max_examples=60, deadline=None)
    def test_composite(self, g):
        wrapped = lambda g_, a, b: composite_location(g_, a, b)
        laws_equal(
            sweep_law(g, "composite", F(1, 2), 53),
            sweep_law(g, wrapped, F(1, 2), 53),
        )


class TestWindowEndFault:
    # bench/test_bench.py pins the current (wrong) counts of this case as the
    # benchmark's one known failure, so a fix must update both together.
    @pytest.mark.xfail(strict=True, reason="a hit exactly at a window end is classified as interior")
    def test_last_hit_at_window_start_is_an_atom(self):
        g = PiecewiseLinearPath(
            ((0, -2), (F(3, 10), 1), (F(1, 2), 2), (F(11, 15), -1), (1, -2))
        )
        emp = sweep_law(g, "last-hit:2", F(5, 6), 997)
        assert (emp.count0, emp.countT, emp.countInf) == (1, 0, 166)


class TestFirstHitAtWindowEnd:
    # hypothesis draws of TestEngineMatchesExactLocators: on the odd grid 53
    # the shift 1/2 has its window end at a hit, which exact evaluation
    # counts as an atom at T
    def test_composite_first_hit_at_window_end_is_an_atom(self):
        g = PiecewiseLinearPath(((0, -1), (F(1, 40), 0), (1, -1)))
        emp = sweep_law(g, "composite", F(1, 2), 53)
        assert (emp.count0, emp.countT, emp.countInf) == (0, 1, 26)

    def test_first_hit_at_window_end_is_an_atom(self):
        g = PiecewiseLinearPath(((0, F(1, 2)), (F(2, 5), F(-3, 2)), (F(17, 40), 0), (1, F(1, 2))))
        emp = sweep_law(g, "first-hit:-1", F(4, 5), 53)
        assert (emp.count0, emp.countT, emp.countInf) == (0, 1, 4)


class TestSupTies:
    """Exact ties of the sup engines: between the window ends, of a window end
    with a node value, and of the sup with 1/2. Floats broke some of them the
    other way; the engines cut the shifts exactly instead."""

    @pytest.mark.parametrize(
        "nodes, name, T, n, counts",
        [
            (
                ((0, -2), (F(3, 40), F(-1, 2)), (F(13, 20), F(-7, 4)), (F(27, 40), F(1, 2)), (F(7, 8), 0), (F(19, 20), F(3, 2)), (1, -2)),
                "sup", F(2, 5), 53, (12, 3, 0),
            ),
            (
                ((0, F(-11, 4)), (F(9, 20), F(7, 4)), (F(19, 40), 2), (F(11, 20), F(5, 2)), (F(29, 40), F(7, 4)), (F(37, 40), F(-1, 2)), (F(19, 20), F(7, 4)), (1, F(-11, 4))),
                "sup", F(1, 4), 20, (5, 6, 0),
            ),
            (
                ((0, -1), (F(3, 10), F(5, 4)), (F(9, 20), -3), (1, -1)),
                "truncated-sup", F(9, 20), 2, (0, 1, 0),
            ),
        ],
    )
    def test_tie_counts(self, nodes, name, T, n, counts):
        emp = sweep_law(PiecewiseLinearPath(nodes), name, T, n)
        assert (emp.count0, emp.countT, emp.countInf) == counts

    @pytest.mark.parametrize("T", [F(0), F(3, 2), F(-1, 2), F(8, 5), F(5, 2)])
    def test_window_outside_one_period_is_a_value_error(self, T):
        # one rule for every locator form, engine and sampler; the last-hit
        # engine once answered such windows with a wrong law
        g = PiecewiseLinearPath(((0, -2), (F(3, 10), 1), (F(1, 2), 2), (F(11, 15), -1), (1, -2)))
        names = ("sup", "truncated-sup", "composite", "first-hit:1", "last-hit:2")
        locators = [*names, *map(locator_by_name, names), sup_location, lambda g_, a, b: last_hit(g_, 2, a, b)]
        for locator in locators:
            for law in (lambda: sweep_law(g, locator, T, 10), lambda: mc_law(g, locator, T, 10, 1)):
                with pytest.raises(ValueError, match=re.escape(f"window length {T} outside (0, 1]")):
                    law()

    def test_seeded_scan_matches_exact_evaluation(self):
        # tie paths as tests/test_paths.py draws them, T on the 1/40 lattice
        r = random.Random(20)
        values = [F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)]
        exact = {
            "sup": lambda g_, a, b: sup_location(g_, a, b),
            "truncated-sup": lambda g_, a, b: truncated_sup_location(g_, a, b),
        }
        mismatches = []
        for case in range(400):
            cuts = sorted(r.sample(range(1, 40), r.randint(0, 7)))
            y0 = r.choice(values)
            nodes = ((0, y0), *((F(c, 40), r.choice(values)) for c in cuts), (1, y0))
            g = PiecewiseLinearPath(nodes)
            name, T, n = r.choice(sorted(exact)), F(r.randint(1, 40), 40), r.randint(1, 120)
            fast, slow = sweep_law(g, name, T, n), sweep_law(g, exact[name], T, n)
            same = (fast.count0, fast.countT, fast.countInf) == (slow.count0, slow.countT, slow.countInf)
            if not (same and np.allclose(fast.interior, slow.interior, atol=1e-9, rtol=0)):
                mismatches.append((case, nodes, name, T, n))
        assert mismatches == []


# --- the run-based engines against the per-shift reference ---

# odd, even and tiny grids; the shifts of the grid 20 are odd multiples of
# 1/40, on the lattice of the path nodes, so windows often start or end at a
# node or hit
GRIDS = (1, 2, 20, 53, 997)


@st.composite
def sweep_cases(draw):
    """(path, locator name, T, grid) over the five named locators; hit levels
    are often node values of the path."""
    g = draw(paths())
    name = draw(st.sampled_from(("sup", "truncated-sup", "composite", "first-hit", "last-hit")))
    if name.endswith("-hit"):
        name += f":{draw(st.sampled_from([y for _, y in g.nodes]) | rat_small)}"
    return g, name, draw(horizons), draw(st.sampled_from(GRIDS))


@st.composite
def laws(draw, T):
    """Piecewise-linear density on the T/40 lattice with values in [0, 1],
    the rest of the mass at 0."""
    cuts = draw(st.lists(st.integers(1, 39), max_size=5, unique=True))
    bps = [F(0)] + [T * F(c, 40) for c in sorted(cuts)] + [T]
    segs = []
    for a, b in zip(bps, bps[1:]):
        va, vb = draw(st.integers(0, 8)) / F(8), draw(st.integers(0, 8)) / F(8)
        q = (vb - va) / (b - a)
        segs.append((va - q * a, q))
    f = PiecewiseDensity(tuple(bps), tuple(segs))
    mass = sum((p * (b - a) + q * (b * b - a * a) / 2 for (a, b), (p, q) in zip(zip(bps, bps[1:]), segs)), F(0))
    return LocationLaw(T, f, atom0=1 - mass)


def sorted_cdf(law, x):
    """The blocks of _sorted_cdf gathered into one array."""
    out = np.empty(len(x))
    for s, block in _sorted_cdf(law, x):
        out[s : s + len(block)] = block
    return out


def assert_same_bytes(a: EmpiricalLaw, b: EmpiricalLaw):
    # repr also tells a numpy integer from a Python int
    assert repr((a.T, a.n, a.count0, a.countT, a.countInf)) == repr((b.T, b.n, b.count0, b.countT, b.countInf))
    assert a.interior.dtype == b.interior.dtype
    assert a.interior.tobytes() == b.interior.tobytes()


class TestEnginesMatchPerShiftReference:
    """sweep_law, mc_law, compare and _sorted_cdf reproduce the per-shift
    engines of tests/sweep_reference.py byte for byte."""

    @given(case=sweep_cases())
    # a first hit exactly at the window end, at the single shift 1/2
    @example(case=(PiecewiseLinearPath(((0, 3), (F(37, 40), F(-5, 2)), (1, 3))), "first-hit:-5/2", F(17, 40), 1))
    @settings(max_examples=400, deadline=None)
    def test_sweep_law(self, case):
        g, name, T, n = case
        assert_same_bytes(sweep_law(g, name, T, n), ref.sweep_law(g, name, T, n))

    @given(case=sweep_cases(), seed=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_mc_law(self, case, seed):
        g, name, T, n = case
        assert_same_bytes(mc_law(g, name, T, n, seed), ref.mc_law(g, name, T, n, seed))

    @given(case=sweep_cases(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_compare(self, case, data):
        g, name, T, n = case
        law = data.draw(laws(T))
        emp = sweep_law(g, name, T, n)
        got, want = compare(law, emp), ref.compare(law, emp)
        assert got == want
        assert np.float64(got.ks).tobytes() == np.float64(want.ks).tobytes()

    @given(T=horizons, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_interior_cdf_on_sorted_x(self, T, data):
        law = data.draw(laws(T))
        points = st.sampled_from([float(b) for b in law.density.breakpoints]) | st.floats(-1, 2)
        x = np.sort(np.array(data.draw(st.lists(points, max_size=40)), dtype=float))
        assert sorted_cdf(law, x).tobytes() == ref.interior_cdf(law, x).tobytes()


class TestBlocks:
    """compare and the grid fill work a block of _BLOCK floats at a time; on
    interiors that span several blocks they keep the bytes of one pass."""

    @staticmethod
    def linear_law(T):
        # density 2t / T^2 with a breakpoint at T / 2: a quadratic CDF in two cells
        return LocationLaw(T, PiecewiseDensity((F(0), T / 2, T), ((0, 2 / T**2),) * 2))

    @staticmethod
    def triangle_fill(T, n):
        """The sup interior of TRIANGLE, filled as one pass would: the peak at
        1/2 less the shifts below 1/2, and for T = 1 the peak at 3/2 less
        the shifts above 1/2 (n even, so no shift sits at 1/2)."""
        pieces = [(0.5, 0, n // 2)] + ([(1.5, n // 2, n)] if T == 1 else [])
        x = np.concatenate([t - (np.arange(s, e) + 0.5) / n for t, s, e in pieces])
        x.sort(kind="stable")
        return x

    @pytest.mark.parametrize(
        "T, n, m",
        [
            (F(1, 2), 2 * _BLOCK, _BLOCK),  # exactly one block
            (F(1, 2), 2 * _BLOCK + 2, _BLOCK + 1),  # one block and one sample, in one piece
            (F(1), 2 * _BLOCK, 2 * _BLOCK),  # the cell cut at 1/2 falls on the block boundary
        ],
    )
    def test_blocks_keep_the_bytes(self, T, n, m):
        emp = sweep_law(TRIANGLE, "sup", T, n)
        assert len(emp.interior) == m
        assert emp.interior.tobytes() == self.triangle_fill(T, n).tobytes()
        if T == 1:
            assert np.searchsorted(emp.interior, 0.5) == _BLOCK
        for law in (step_law(T, (0, T), (1 / T,)), self.linear_law(T)):
            got, want = compare(law, emp).ks, ref.compare(law, emp).ks
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_memory_stays_a_few_blocks(self):
        # at grid 10^6 the interior is 8 MB; neither call allocates an
        # array as long as it
        tracemalloc.start()
        try:
            emp = sweep_law(TRIANGLE, "sup", 1, 10**6)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - emp.interior.nbytes < 1 << 20
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            rep = compare(UNIFORM, emp)
            _, peak = tracemalloc.get_traced_memory()
            assert peak - base < 2 << 20
        finally:
            tracemalloc.stop()
        assert rep.passed


class TestLocatorDispatch:
    """A Locator and its name take the same engine; any other callable, the
    bare locator functions included, is evaluated exactly per shift."""

    @given(case=sweep_cases())
    @settings(max_examples=100, deadline=None)
    def test_sweep_law_locator_matches_name(self, case):
        g, name, T, n = case
        assert_same_bytes(sweep_law(g, locator_by_name(name), T, n), sweep_law(g, name, T, n))

    @given(case=sweep_cases(), seed=st.integers(0, 2**32))
    @settings(max_examples=50, deadline=None)
    def test_mc_law_locator_matches_name(self, case, seed):
        g, name, T, n = case
        assert_same_bytes(mc_law(g, locator_by_name(name), T, n, seed), mc_law(g, name, T, n, seed))

    @pytest.mark.parametrize("fn", [sup_location, truncated_sup_location, composite_location])
    @given(g=paths())
    @settings(max_examples=20, deadline=None)
    def test_plain_function_is_evaluated_exactly(self, fn, g):
        wrapped = lambda g_, a, b: fn(g_, a, b)
        assert_same_bytes(sweep_law(g, fn, F(2, 5), 53), sweep_law(g, wrapped, F(2, 5), 53))
        assert_same_bytes(mc_law(g, fn, F(2, 5), 40, 3), mc_law(g, wrapped, F(2, 5), 40, 3))

    def test_bare_sup_location_keeps_an_exact_tie(self):
        # a path with an exact tie that float comparisons broke the other way
        # (they counted (12, 4, 0)); the bare function is evaluated exactly
        g = PiecewiseLinearPath(
            ((0, -2), (F(3, 40), F(-1, 2)), (F(13, 20), F(-7, 4)), (F(27, 40), F(1, 2)), (F(7, 8), 0), (F(19, 20), F(3, 2)), (1, -2))
        )
        emp = sweep_law(g, sup_location, F(2, 5), 53)
        assert (emp.count0, emp.countT, emp.countInf) == (12, 3, 0)

    def test_bad_level_is_a_value_error(self):
        with pytest.raises(ValueError):
            sweep_law(TRIANGLE, "first-hit:1/0", F(1, 2), 10)


class TestMonteCarlo:
    def test_seed_reproducible(self):
        a = mc_law(TRIANGLE, "sup", 1, 5_000, seed=42)
        b = mc_law(TRIANGLE, "sup", 1, 5_000, seed=42)
        laws_equal(a, b, tol=0)

    def test_seeds_differ(self):
        a = mc_law(TRIANGLE, "sup", 1, 1_000, seed=1)
        b = mc_law(TRIANGLE, "sup", 1, 1_000, seed=2)
        assert not np.array_equal(a.interior, b.interior)

    @given(g=tie_paths(), T=horizons, seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_named_and_wrapped_sup_classify_the_same_shifts(self, g, T, seed):
        # both read each float shift as the binary rational it is
        wrapped = lambda g_, a, b: sup_location(g_, a, b)
        laws_equal(mc_law(g, "sup", T, 200, seed), mc_law(g, wrapped, T, 200, seed))

    def test_triangle_sup_near_uniform(self):
        emp = mc_law(TRIANGLE, "sup", 1, 100_000, seed=7)
        rep = compare(UNIFORM, emp, tol_ks=2e-2, tol_atom=1e-3)
        assert rep.passed, rep


class TestCompare:
    def test_atom_mismatch_fails(self):
        target = step_law(1, (0, 1), (F(1, 2),), atom0=F(1, 2))
        emp = sweep_law(TRIANGLE, "sup", 1, 2_000)
        rep = compare(target, emp)
        assert not rep.passed
        assert rep.atom_errors["zero"] == pytest.approx(0.5)

    def test_wrong_continuous_shape_fails(self):
        skewed = step_law(1, (0, F(1, 2), 1), (F(3, 2), F(1, 2)))
        emp = sweep_law(TRIANGLE, "sup", 1, 2_000)
        rep = compare(skewed, emp)
        assert not rep.passed
        assert rep.ks == pytest.approx(0.25, abs=1e-3)

    def test_all_infinite_against_point_mass(self):
        target = step_law(F(1, 2), (0, F(1, 2)), (0,), atomInf=1)
        g = PiecewiseLinearPath([(0, 0), (F(1, 2), F(1, 4)), (1, 0)])
        emp = sweep_law(g, "truncated-sup", F(1, 2), 1_000)
        assert compare(target, emp).passed

    def test_mismatched_horizon_rejected(self):
        emp = sweep_law(TRIANGLE, "sup", 1, 100)
        with pytest.raises(ValueError):
            compare(step_law(F(1, 2), (0, F(1, 2)), (2,)), emp)


class TestInteriorCdf:
    def test_step_density(self):
        law = step_law(1, (0, F(1, 4), 1), (2, F(2, 3)))
        x = np.array([0.0, 0.25, 0.5, 1.0])
        np.testing.assert_allclose(sorted_cdf(law, x), [0, 0.5, 2 / 3, 1])

    def test_clips_outside_support(self):
        law = step_law(F(1, 2), (0, F(1, 2)), (2,))
        np.testing.assert_allclose(sorted_cdf(law, np.array([-1.0, 2.0])), [0, 1])


class TestEmpiricalLaw:
    def test_counts_must_add_up(self):
        with pytest.raises(ValueError):
            EmpiricalLaw(T=1.0, n=10, count0=1, countT=1, countInf=1, interior=np.zeros(3))

    def test_ecdf(self):
        emp = EmpiricalLaw(
            T=1.0, n=4, count0=1, countT=1, countInf=0,
            interior=np.array([0.25, 0.75]),
        )
        grid = np.array([0.0, 0.3, 1.0])
        np.testing.assert_allclose(emp.ecdf(grid), [0.25, 0.5, 1.0])
