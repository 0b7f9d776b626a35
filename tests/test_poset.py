"""Point-system orders: reach distances, window maxima, counting density,
and agreement with the exact shift-sweep oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poset_reference as ref
from periloc.paths import INFINITY
from periloc.poset import PointSystem, Reach, counting_density, poset_location, reach, sweep_oracle


def laws_agree(a, b):
    if (a.T, a.atom0, a.atomT, a.atomInf) != (b.T, b.atom0, b.atomT, b.atomInf):
        return False
    grid = sorted(set(a.density.breakpoints) | set(b.density.breakpoints))
    return all(
        a.density.value((lo + hi) / 2) == b.density.value((lo + hi) / 2)
        for lo, hi in zip(grid, grid[1:])
    )


@st.composite
def point_systems(draw, max_points=6, den=40):
    n = draw(st.integers(0, min(max_points, den)))
    nums = draw(st.lists(st.integers(0, den - 1), min_size=n, max_size=n, unique=True))
    points = tuple(F(c, den) for c in sorted(nums))
    kind = draw(st.sampled_from(["first_time", "last_time", "explicit"]))
    if kind == "explicit":
        ranks = tuple(draw(st.permutations(range(n))))
        return PointSystem(points, kind, ranks)
    return PointSystem(points, kind)


class TestPointSystem:
    def test_validation(self):
        with pytest.raises(ValueError):
            PointSystem((F(1, 2), F(1, 2)), "first_time")
        with pytest.raises(ValueError):
            PointSystem((F(3, 2),), "first_time")
        with pytest.raises(ValueError):
            PointSystem((F(1, 2),), "sideways")
        with pytest.raises(ValueError):
            PointSystem((F(1, 2),), "explicit")  # missing ranks
        with pytest.raises(ValueError):
            PointSystem((F(1, 2), F(1, 4)), "explicit", (1, 1))  # rank clash
        with pytest.raises(ValueError):
            PointSystem((F(1, 2),), "first_time", (1,))  # stray ranks

    def test_rank(self):
        ps = PointSystem((F(1, 5), F(7, 10)), "explicit", (2, 1))
        assert ps.rank(F(1, 5)) == 2 and ps.rank(F(7, 10)) == 1
        with pytest.raises(ValueError):
            ps.rank(F(1, 2))  # not a point of the system


class TestReach:
    def test_single_point_first_time(self):
        ps = PointSystem((F(3, 10),), "first_time")
        r = reach(ps, F(3, 10))
        assert r == Reach(F(1), INFINITY)

    def test_two_points_first_time(self):
        ps = PointSystem((F(1, 5), F(3, 5)), "first_time")
        assert reach(ps, F(3, 5)) == Reach(F(2, 5), INFINITY)
        assert reach(ps, F(1, 5)) == Reach(F(3, 5), INFINITY)

    def test_last_time_mirror(self):
        ps = PointSystem((F(1, 5), F(3, 5)), "last_time")
        assert reach(ps, F(1, 5)) == Reach(INFINITY, F(2, 5))
        assert reach(ps, F(3, 5)) == Reach(INFINITY, F(3, 5))

    def test_explicit_top_blocked_by_own_copies(self):
        ps = PointSystem((F(1, 5), F(7, 10)), "explicit", (2, 1))
        assert reach(ps, F(1, 5)) == Reach(F(1), F(1))

    def test_explicit_low_point_blocked_by_top(self):
        ps = PointSystem((F(1, 5), F(7, 10)), "explicit", (2, 1))
        assert reach(ps, F(7, 10)) == Reach(F(1, 2), F(1, 2))

    def test_unknown_point_rejected(self):
        ps = PointSystem((F(1, 5), F(3, 5)), "first_time")
        # before, between and after the points, and a periodic copy of one
        for s in (F(0), F(1, 3), F(4, 5), F(6, 5)):
            with pytest.raises(ValueError, match="is not a point of the system"):
                reach(ps, s)

    @given(point_systems())
    @settings(max_examples=150)
    def test_first_time_right_reach_is_infinite(self, ps):
        if ps.order_kind != "first_time":
            return
        for s in ps.points:
            assert reach(ps, s).b == INFINITY

    @given(point_systems())
    @settings(max_examples=150)
    def test_reach_positive(self, ps):
        for s in ps.points:
            r = reach(ps, s)
            assert r.a > 0 and r.b > 0


class TestPosetLocation:
    def test_first_time_takes_min(self):
        ps = PointSystem((F(1, 5), F(3, 5)), "first_time")
        assert poset_location(ps, F(1, 10), F(9, 10)) == F(1, 5)

    def test_last_time_takes_max(self):
        ps = PointSystem((F(1, 5), F(3, 5)), "last_time")
        assert poset_location(ps, F(1, 10), F(9, 10)) == F(3, 5)

    def test_empty_window(self):
        ps = PointSystem((F(1, 2),), "first_time")
        assert poset_location(ps, F(3, 5), F(9, 10)) == INFINITY

    def test_explicit_rank_wins(self):
        ps = PointSystem((F(1, 5), F(7, 10)), "explicit", (1, 2))
        assert poset_location(ps, 0, 1) == F(7, 10)

    def test_duplicate_copies_tie_is_an_error(self):
        ps = PointSystem((F(1, 2),), "explicit", (1,))
        with pytest.raises(ValueError):
            poset_location(ps, F(1, 2), F(3, 2))

    def test_periodic_copies_found(self):
        ps = PointSystem((F(1, 10),), "first_time")
        assert poset_location(ps, F(1, 2), F(6, 5)) == F(11, 10)


class TestCountingDensity:
    def test_single_point(self):
        ps = PointSystem((F(3, 10),), "first_time")
        law = counting_density(ps, F(2, 5))
        assert law.atomInf == F(3, 5)
        assert law.density.value(F(1, 5)) == 1
        assert law.atom0 == 0 and law.atomT == 0

    def test_antipodal_points(self):
        ps = PointSystem((F(0), F(1, 2)), "first_time")
        law = counting_density(ps, F(2, 5))
        assert law.density.value(F(1, 10)) == 2
        assert law.density.value(F(3, 10)) == 2
        assert law.atomInf == F(1, 5)

    def test_empty_system(self):
        law = counting_density(PointSystem((), "first_time"), F(2, 5))
        assert law.atomInf == 1
        assert law.density.value(F(1, 5)) == 0

    def test_oracle_agreement_worked_example(self):
        ps = PointSystem((F(0), F(1, 2), F(3, 5)), "explicit", (3, 2, 1))
        law = counting_density(ps, F(3, 10))
        assert law.density.value(F(1, 20)) == 3
        assert law.density.value(F(1, 5)) == 2
        assert law.atomInf == F(3, 10)
        assert laws_agree(law, sweep_oracle(ps, F(3, 10)))

    @given(point_systems(), st.sampled_from([F(3, 10), F(2, 5), F(1, 2), F(4, 5), F(1)]))
    @settings(max_examples=300, deadline=None)
    def test_oracle_agreement(self, ps, T):
        assert laws_agree(counting_density(ps, T), sweep_oracle(ps, T))

    @given(point_systems(), st.sampled_from([F(3, 10), F(1, 2), F(1)]))
    @settings(max_examples=150, deadline=None)
    def test_first_time_density_decreasing(self, ps, T):
        if ps.order_kind != "first_time":
            return
        law = counting_density(ps, T)
        assert law.density.is_decreasing()


def same(x, y):
    return x == y and type(x) is type(y)


def outcome(locate, ps, a, b):
    try:
        return locate(ps, a, b)
    except ValueError as err:
        return str(err)


class TestKeyMatchesPartialOrder:
    """reach and poset_location against the partial-order scan of
    tests/poset_reference.py, in value, in type and in error text."""

    @given(st.sampled_from([7, 10, 40, 120]), st.data())
    @settings(max_examples=400, deadline=None)
    def test_same_reach_and_window_maximum(self, den, data):
        ps = data.draw(point_systems(max_points=8, den=den))
        for s in ps.points:
            mine, theirs = reach(ps, s), ref.reach(ps, s)
            assert same(mine.a, theirs.a) and same(mine.b, theirs.b)
        # window ends on a point of some period, on the points' lattice or off it
        ends = [
            st.integers(-2 * den, 2 * den).map(lambda n: F(n, den)),
            st.integers(-140, 140).map(lambda n: F(n, 70)),
        ]
        if ps.points:
            ends.append(st.builds(lambda t, k: t + k, st.sampled_from(ps.points), st.integers(-2, 1)))
        lengths = st.one_of(
            st.just(F(1)),
            st.integers(1, den).map(lambda n: F(n, den)),
            st.just(F(1, 2 * den)),
        )
        for _ in range(10):
            a = data.draw(st.one_of(ends))
            b = a + data.draw(lengths)
            assert same(outcome(poset_location, ps, a, b), outcome(ref.poset_location, ps, a, b))

    @pytest.mark.parametrize("kind", ["first_time", "last_time", "explicit"])
    def test_unit_windows_with_the_top_point_at_both_ends(self, kind):
        points = (F(1, 10), F(2, 5), F(4, 5))
        ps = PointSystem(points, kind, (1, 3, 2) if kind == "explicit" else None)
        for p in points:
            for a in (p - 2, p - 1, p, p + 1):
                assert same(outcome(poset_location, ps, a, a + 1), outcome(ref.poset_location, ps, a, a + 1))
        # the explicit top point 2/5 sits at both ends: its two copies tie
        if kind == "explicit":
            assert outcome(poset_location, ps, F(-3, 5), F(2, 5)) == "order admits 2 maximal elements on [-3/5, 2/5]"
