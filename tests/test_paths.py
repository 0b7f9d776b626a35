"""Path evaluation and the location functionals' defining properties."""

import pickle
from fractions import Fraction as F
from math import ceil

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import locator_reference as ref
from periloc.jsonio import dumps_canonical, path_to_obj
from periloc.paths import (
    INFINITY,
    Locator,
    PiecewiseLinearPath,
    composite_location,
    eval_path,
    first_hit,
    hit_intervals,
    last_hit,
    locator_by_name,
    shift,
    sup_location,
    truncated_sup_location,
)

TRIANGLE = PiecewiseLinearPath(((F(0), F(0)), (F(1, 2), F(1)), (F(1), F(0))))


# --- strategies ---

rat_small = st.integers(-12, 12).map(lambda n: F(n, 4))


@st.composite
def paths(draw, max_interior=6):
    k = draw(st.integers(0, max_interior))
    cuts = draw(st.lists(st.integers(1, 39), min_size=k, max_size=k, unique=True))
    times = [F(0)] + [F(c, 40) for c in sorted(cuts)] + [F(1)]
    y0 = draw(rat_small)
    ys = [y0] + [draw(rat_small) for _ in range(k)] + [y0]
    return PiecewiseLinearPath(tuple(zip(times, ys)))


@st.composite
def windows(draw):
    a = draw(st.integers(-40, 40).map(lambda n: F(n, 40)))
    width = draw(st.integers(1, 40).map(lambda n: F(n, 40)))
    return a, a + width


ALL_LOCATORS = [
    sup_location,
    truncated_sup_location,
    composite_location,
    locator_by_name("first-hit:-1"),
    locator_by_name("last-hit:-2"),
]


# --- construction and evaluation ---


class TestPath:
    def test_invalid_paths(self):
        with pytest.raises(ValueError):
            PiecewiseLinearPath(((F(0), F(0)), (F(1), F(1))))  # seam mismatch
        with pytest.raises(ValueError):
            PiecewiseLinearPath(((F(0), F(0)), (F(1, 2), F(1))))  # no endpoint 1
        with pytest.raises(ValueError):
            PiecewiseLinearPath(
                ((F(0), F(0)), (F(1, 2), F(1)), (F(1, 2), F(0)), (F(1), F(0)))
            )

    def test_triangle_interpolation(self):
        assert eval_path(TRIANGLE, F(1, 4)) == F(1, 2)
        assert eval_path(TRIANGLE, F(3, 2)) == 1
        assert eval_path(TRIANGLE, F(-1, 4)) == F(1, 2)

    def test_shift_identity_and_period(self):
        assert shift(TRIANGLE, 0).nodes == TRIANGLE.nodes
        assert shift(TRIANGLE, 1).nodes == TRIANGLE.nodes

    def test_shift_moves_peak(self):
        peaked = shift(TRIANGLE, F(1, 2))
        assert eval_path(peaked, 0) == 1
        assert eval_path(peaked, F(1, 2)) == 0

    @given(paths(), st.integers(-20, 20), st.integers(0, 39))
    @settings(max_examples=150)
    def test_shift_evaluates_consistently(self, g, cnum, tnum):
        c = F(cnum, 8)
        t = F(tnum, 40)
        assert eval_path(shift(g, c), t) == eval_path(g, t + c)


# --- individual locators ---


class TestSupLocation:
    def test_triangle_peak(self):
        assert sup_location(TRIANGLE, F(1, 5), F(4, 5)) == F(1, 2)

    def test_constant_path_leftmost(self):
        flat = PiecewiseLinearPath(((F(0), F(1)), (F(1), F(1))))
        assert sup_location(flat, F(1, 3), F(2, 3)) == F(1, 3)

    def test_equal_peaks_take_leftmost(self):
        twin = PiecewiseLinearPath(
            ((F(0), F(0)), (F(3, 10), F(1)), (F(1, 2), F(0)), (F(7, 10), F(1)), (F(1), F(0)))
        )
        assert sup_location(twin, 0, 1) == F(3, 10)

    def test_window_longer_than_period_rejected(self):
        with pytest.raises(ValueError):
            sup_location(TRIANGLE, 0, F(3, 2))

    def test_rising_to_window_edge(self):
        assert sup_location(TRIANGLE, F(1, 10), F(2, 5)) == F(2, 5)


class TestHits:
    def test_first_hit_solves_affine(self):
        assert first_hit(TRIANGLE, F(1, 2), 0, 1) == F(1, 4)

    def test_unattained_level(self):
        assert first_hit(TRIANGLE, 2, 0, 1) == INFINITY
        assert last_hit(TRIANGLE, 2, 0, 1) == INFINITY

    def test_hit_only_at_period_edge(self):
        assert first_hit(TRIANGLE, 0, F(1, 10), F(9, 10)) == INFINITY
        assert first_hit(TRIANGLE, 0, 0, 1) == 0

    def test_last_hit_mirror(self):
        assert last_hit(TRIANGLE, F(1, 2), 0, 1) == F(3, 4)

    def test_last_hit_on_flat_returns_right_end(self):
        flat = PiecewiseLinearPath(((F(0), F(0)), (F(1), F(0))))
        assert last_hit(flat, 0, F(1, 4), F(3, 4)) == F(3, 4)

    def test_hits_across_period_seam(self):
        assert first_hit(TRIANGLE, F(1, 2), F(4, 5), F(13, 10)) == F(5, 4)
        assert first_hit(TRIANGLE, F(1, 2), F(4, 5), F(6, 5)) == INFINITY


class TestTruncatedSup:
    def test_above_threshold(self):
        assert truncated_sup_location(TRIANGLE, 0, 1) == F(1, 2)

    def test_below_threshold(self):
        low = PiecewiseLinearPath(((F(0), F(0)), (F(1, 2), F(1, 4)), (F(1), F(0))))
        assert truncated_sup_location(low, 0, 1) == INFINITY

    def test_exactly_at_threshold_counts(self):
        half = PiecewiseLinearPath(((F(0), F(0)), (F(1, 2), F(1, 2)), (F(1), F(0))))
        assert truncated_sup_location(half, 0, 1) == F(1, 2)

    def test_window_may_miss_the_peak(self):
        assert truncated_sup_location(TRIANGLE, F(1, 10), F(1, 5)) == INFINITY


class TestComposite:
    def test_nonnegative_routes_to_sup(self):
        assert composite_location(TRIANGLE, 0, 1) == F(1, 2)

    def test_dip_to_minus_one_routes_to_first_hit(self):
        dip = PiecewiseLinearPath(((F(0), F(0)), (F(3, 10), F(-1)), (F(1), F(0))))
        assert composite_location(dip, 0, 1) == F(3, 10)

    def test_depth_without_minus_one_routes_to_last_hit(self):
        deep = PiecewiseLinearPath(
            ((F(0), F(-3, 2)), (F(2, 5), F(-2)), (F(1), F(-3, 2)))
        )
        assert composite_location(deep, 0, 1) == F(2, 5)

    def test_unattained_fallback_level(self):
        # min in (-1, 0): neither -1 nor -2 is ever attained
        shallow = PiecewiseLinearPath(((F(0), F(1)), (F(1, 2), F(-1, 2)), (F(1), F(1))))
        assert composite_location(shallow, 0, 1) == INFINITY


# --- the defining axioms, property-tested ---


class TestLocatorAxioms:
    @given(paths(), windows(), st.integers(-16, 16).map(lambda n: F(n, 8)))
    @settings(max_examples=200)
    def test_shift_compatibility(self, g, window, c):
        a, b = window
        for loc in ALL_LOCATORS:
            direct = loc(g, a, b)
            shifted = loc(shift(g, c), a - c, b - c)
            if direct == INFINITY:
                assert shifted == INFINITY
            else:
                assert shifted + c == direct

    @given(paths(), windows(), st.data())
    @settings(max_examples=200)
    def test_range_axiom(self, g, window, data):
        a, b = window
        for loc in ALL_LOCATORS:
            out = loc(g, a, b)
            if out != INFINITY:
                assert a <= out <= b

    @given(paths(), windows(), st.data())
    @settings(max_examples=200)
    def test_stability_under_restrictions(self, g, window, data):
        a, b = window
        quarters = [a + (b - a) * F(i, 4) for i in range(5)]
        a2 = data.draw(st.sampled_from(quarters[:3]))
        b2 = data.draw(st.sampled_from(quarters[2:]))
        if a2 >= b2:
            return
        for loc in ALL_LOCATORS:
            out = loc(g, a, b)
            if out != INFINITY and a2 <= out <= b2:
                assert loc(g, a2, b2) == out

    @given(paths(), windows(), st.data())
    @settings(max_examples=200)
    def test_consistency_of_existence(self, g, window, data):
        a, b = window
        quarters = [a + (b - a) * F(i, 4) for i in range(5)]
        a2 = data.draw(st.sampled_from(quarters[:3]))
        b2 = data.draw(st.sampled_from(quarters[2:]))
        if a2 >= b2:
            return
        for loc in ALL_LOCATORS:
            if loc(g, a2, b2) != INFINITY:
                assert loc(g, a, b) != INFINITY


def test_locator_names():
    sup = locator_by_name("sup")
    assert sup == Locator("sup")
    assert sup(TRIANGLE, F(1, 5), F(4, 5)) == sup_location(TRIANGLE, F(1, 5), F(4, 5)) == F(1, 2)
    fh = locator_by_name("first-hit:1/2")
    assert fh == Locator("first-hit", F(1, 2))
    assert fh(TRIANGLE, 0, 1) == F(1, 4)
    with pytest.raises(ValueError):
        locator_by_name("nope")


class TestLocator:
    @pytest.mark.parametrize("name", ["nope", "first-hit", "last-hit", "sup:1", "composite:-1", "first-hit:abc", "first-hit:", "first-hit:1/0", "Sup"])
    def test_parser_rejects(self, name):
        with pytest.raises(ValueError):
            locator_by_name(name)

    @pytest.mark.parametrize("kind, level", [("nope", None), ("first-hit", None), ("last-hit", None), ("sup", 1), ("truncated-sup", F(1, 2)), ("composite", -1)])
    def test_fields_checked(self, kind, level):
        with pytest.raises(ValueError):
            Locator(kind, level)

    def test_level_is_a_fraction(self):
        loc = Locator("last-hit", "-3/2")
        assert loc == locator_by_name("last-hit:-3/2") == Locator("last-hit", F(-3, 2))
        assert type(loc.level) is F

    def test_composite_route(self):
        dip = PiecewiseLinearPath(((F(0), F(0)), (F(3, 10), F(-1)), (F(1), F(0))))
        deep = PiecewiseLinearPath(((F(0), F(-3, 2)), (F(2, 5), F(-2)), (F(1), F(-3, 2))))
        composite = Locator("composite")
        assert composite.route(TRIANGLE) == Locator("sup")
        assert composite.route(dip) == Locator("first-hit", -1)
        assert composite.route(deep) == Locator("last-hit", -2)
        for loc in (Locator("sup"), Locator("first-hit", 1)):
            assert loc.route(dip) is loc

    @given(paths(), windows())
    @settings(max_examples=100)
    def test_evaluates_like_its_function(self, g, window):
        a, b = window
        assert Locator("sup")(g, a, b) == sup_location(g, a, b)
        assert Locator("truncated-sup")(g, a, b) == truncated_sup_location(g, a, b)
        assert Locator("first-hit", F(1, 2))(g, a, b) == first_hit(g, F(1, 2), a, b)
        assert Locator("last-hit", -1)(g, a, b) == last_hit(g, -1, a, b)


# --- the per-path tables against the piece scan ---

# few values, so that flat pieces, equal maxima and hits at nodes are common
tie_values = st.sampled_from([F(-2), F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)])


@st.composite
def tie_paths(draw):
    k = draw(st.integers(0, 7))
    cuts = draw(st.lists(st.integers(1, 39), min_size=k, max_size=k, unique=True))
    times = [F(0)] + [F(c, 40) for c in sorted(cuts)] + [F(1)]
    y0 = draw(tie_values)
    ys = [y0] + [draw(tie_values) for _ in range(k)] + [y0]
    return PiecewiseLinearPath(tuple(zip(times, ys)))


def same(x, y):
    return x == y and type(x) is type(y)


class TestTablesMatchPieceScan:
    """The tabled locators against the piece scan of tests/locator_reference.py,
    in value and in type."""

    @given(tie_paths(), st.data())
    @settings(max_examples=400)
    def test_same_value_and_type(self, g, data):
        node_times = [t for t, _ in g.nodes]
        # window ends on a node of some period, on the 1/40 lattice or off it
        end = st.one_of(
            st.builds(lambda t, k: t + k, st.sampled_from(node_times), st.integers(-2, 2)),
            st.integers(-80, 120).map(lambda n: F(n, 40)),
            st.integers(-140, 210).map(lambda n: F(n, 70)),
        )
        a, b = sorted((data.draw(end), data.draw(end)))
        assume(a < b)
        a += max(0, ceil(b - a) - 3)  # hit windows up to three periods long
        level = data.draw(st.one_of(st.sampled_from([y for _, y in g.nodes]), st.just(F(1, 2)), tie_values, rat_small))
        assert same(first_hit(g, level, a, b), ref.first_hit(g, level, a, b))
        assert same(last_hit(g, level, a, b), ref.last_hit(g, level, a, b))
        if b - a <= 1:
            assert same(sup_location(g, a, b), ref.sup_location(g, a, b))
            assert same(truncated_sup_location(g, a, b), ref.truncated_sup_location(g, a, b))
            assert same(composite_location(g, a, b), ref.composite_location(g, a, b))

    def test_flat_max_and_flat_level(self):
        plateau = PiecewiseLinearPath(
            ((F(0), F(0)), (F(1, 4), F(1)), (F(1, 2), F(1)), (F(3, 4), F(1, 2)), (F(1), F(0)))
        )
        for a, b in ((F(3, 8), F(7, 8)), (F(1, 4), F(1, 2)), (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2))):
            assert same(sup_location(plateau, a, b), ref.sup_location(plateau, a, b))
        assert sup_location(plateau, F(3, 8), F(7, 8)) == F(3, 8)
        assert first_hit(plateau, 1, F(3, 8), 3) == F(3, 8)
        assert last_hit(plateau, 1, -3, F(3, 8)) == F(3, 8)
        assert first_hit(plateau, 1, F(5, 8), F(21, 8)) == F(5, 4)
        assert last_hit(plateau, 1, F(-5, 8), F(1, 8)) == F(-1, 2)
        assert last_hit(plateau, 1, F(-1, 4), F(1, 8)) == INFINITY

    def test_hit_intervals(self):
        plateau = PiecewiseLinearPath(((F(0), F(1)), (F(1, 4), F(0)), (F(1, 2), F(0)), (F(1), F(1))))
        assert hit_intervals(plateau, 0) == ([F(1, 4)], [F(1, 2)])
        assert hit_intervals(plateau, F(1, 2)) == ([F(1, 8), F(3, 4)], [F(1, 8), F(3, 4)])
        assert hit_intervals(plateau, 1) == ([F(0), F(1)], [F(0), F(1)])
        assert hit_intervals(plateau, 2) == ([], [])


def table_queries(g):
    """Sup and hit queries at four levels, which fill the path's tables."""
    out = []
    for level in (F(-1), F(1, 2), F(1), F(3)):
        out += [first_hit(g, level, -1, 2), last_hit(g, level, F(1, 3), F(4, 3))]
    out += [sup_location(g, F(1, 3), F(4, 3)), truncated_sup_location(g, 0, F(1, 2))]
    return out + [composite_location(g, 0, 1), eval_path(g, F(1, 3)), g.min_value(), g.max_value()]


class TestTablesAreInvisible:
    def test_used_path_equals_fresh_path(self):
        nodes = ((F(0), F(-1)), (F(1, 5), F(1)), (F(2, 5), F(1)), (F(7, 10), F(-2)), (F(1), F(-1)))
        used = PiecewiseLinearPath(nodes)
        answers = table_queries(used)
        fresh = PiecewiseLinearPath(nodes)
        back = pickle.loads(pickle.dumps(used))
        for other in (fresh, back):
            assert used == other
            assert hash(used) == hash(other)
            assert repr(used) == repr(other)
            assert dumps_canonical(path_to_obj(used)) == dumps_canonical(path_to_obj(other))
        assert table_queries(back) == table_queries(fresh) == answers
