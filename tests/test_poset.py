"""Point-system orders: reach distances, window maxima, counting density,
and agreement with the exact shift-sweep oracle."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
def point_systems(draw, max_points=6):
    n = draw(st.integers(0, max_points))
    nums = draw(st.lists(st.integers(0, 39), min_size=n, max_size=n, unique=True))
    points = tuple(F(c, 40) for c in sorted(nums))
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
        ps = PointSystem((F(1, 5),), "first_time")
        with pytest.raises(ValueError):
            reach(ps, F(1, 3))

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
