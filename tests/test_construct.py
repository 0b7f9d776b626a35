from fractions import Fraction as F

import pytest

from periloc.construct import (
    ComponentPlan,
    ConstructionPlan,
    bound_attaining_law,
    construct_first_time,
    construct_invariant,
    construct_invariant_with_escape,
    plan_invariant,
    realize_plan,
)
from periloc.density import LocationLaw, step_law
from periloc.membership import check_class
from periloc.paths import INFINITY, first_hit, sup_location, truncated_sup_location
from periloc.simulate import compare, sweep_law

# lattice denominators stay inside 2^a 5^b so a 4000-point midpoint grid
# counts every zone exactly
GRID = 4000
TOL = dict(tol_ks=4e-3, tol_atom=1e-6)


def sweep_ok(g, locator, law, grid=GRID, **tol):
    rep = compare(law, sweep_law(g, locator, law.T, grid), **(tol or TOL))
    assert rep.passed, rep
    return rep


# fixture laws: one per structural feature of the valley layout
LEFT_ONLY = step_law(F(1, 2), (0, F(3, 10), F(1, 2)), (2, 1), atom0=F(1, 10), atomT=F(1, 10))
CENTRAL = step_law(
    F(1, 2), (0, F(3, 20), F(7, 20), F(1, 2)), (1, 2, 1), atom0=F(3, 20), atomT=F(3, 20)
)
RIGHT_ONLY = step_law(F(1, 2), (0, F(3, 10), F(1, 2)), (1, 2), atom0=F(3, 20), atomT=F(3, 20))
TWO_BASES = step_law(F(2, 5), (0, F(2, 5)), (2,), atom0=F(1, 10), atomT=F(1, 10))
TWO_LEFTS = step_law(
    F(1, 2),
    (0, F(3, 20), F(1, 4), F(1, 2)),
    (3, 2, 1),
    atom0=F(1, 20),
    atomT=F(1, 20),
)
MIXED = step_law(
    F(3, 10),
    (0, F(1, 10), F(1, 4), F(3, 10)),
    (3, 2, 3),
    atom0=F(3, 20),
    atomT=F(1, 10),
)  # two bases, one left (0, 1/10], one right (1/4, 3/10]

ALL_INVARIANT = [LEFT_ONLY, CENTRAL, RIGHT_ONLY, TWO_BASES, TWO_LEFTS, MIXED]


class TestPlan:
    def test_components_tile_the_circle(self):
        for law in ALL_INVARIANT:
            plan = plan_invariant(law)
            assert sum(c.length for c in plan.components) == 1
            assert plan.m1 == min(int(p) for p, _ in law.density.segments)

    def test_round_robin_assignment(self):
        plan = plan_invariant(MIXED)
        assert plan.m1 == 2
        widths = sorted(w for c in plan.components for w in c.left + c.right)
        assert widths == [F(1, 20), F(1, 10)]

    def test_bad_tiling_rejected(self):
        comp = ComponentPlan(
            T=F(1, 2), d1=F(1, 10), d2=F(1, 10), left=(), right=(), central=None
        )
        with pytest.raises(ValueError):
            ConstructionPlan(m1=1, components=(comp,))


class TestConstructInvariant:
    @pytest.mark.parametrize("law", ALL_INVARIANT)
    def test_sweep_recovers_law(self, law):
        g = construct_invariant(law)
        sweep_ok(g, "sup", law)

    def test_left_only_zones_exactly(self):
        g = construct_invariant(LEFT_ONLY)
        T = F(1, 2)

        def loc(u):
            out = sup_location(g, u, u + T)
            return out - u if out != INFINITY else out

        assert loc(F(1, 80)) == 0  # descending connector before the pair
        assert loc(F(7, 20)) == 0  # connector between pair and valley floor
        # inside the stake pair: the right stake wins, location in (0, 3/10)
        assert loc(F(1, 5)) == F(13, 40) - F(1, 5)
        assert loc(F(9, 20)) == T  # window ends on the final ascent
        assert loc(F(7, 10)) == F(3, 10)  # base sweep toward the anchor

    def test_central_zones_exactly(self):
        g = construct_invariant(CENTRAL)
        T = F(1, 2)

        def loc(u):
            return sup_location(g, u, u + T) - u

        # valley floor triple at 3/20, 1/2, 17/20; central block (3/20, 7/20]
        assert loc(F(1, 4)) == F(1, 2) - F(1, 4)  # middle stake wins: λ in (u, v)
        assert loc(F(2, 5)) == T
        assert loc(F(3, 5)) == F(2, 5)  # base sweep
        assert loc(F(1, 10)) == 0

    def test_t_equal_one_is_uniform(self):
        law = step_law(1, (0, 1), (1,))
        g = construct_invariant(law)
        sweep_ok(g, "sup", law)

    def test_rejects_non_member(self):
        law = step_law(F(1, 2), (0, F(1, 2)), (1,), atom0=F(1, 4), atomInf=F(1, 4))
        with pytest.raises(ValueError, match="not in E1T"):
            construct_invariant(law)

    def test_rejects_zero_boundary_atoms(self):
        law = step_law(F(1, 2), (0, F(1, 2)), (1,), atom0=F(1, 2))
        with pytest.raises(ValueError, match="positive atoms"):
            construct_invariant(law)

    def test_path_stays_above_quarter(self):
        for law in ALL_INVARIANT:
            g = construct_invariant(law)
            assert g.min_value() >= F(1, 4)


class TestEscape:
    LAW = step_law(
        F(1, 2), (0, F(1, 2)), (1,), atom0=F(1, 10), atomT=F(1, 10), atomInf=F(3, 10)
    )

    def test_truncated_sweep_recovers_law(self):
        g = construct_invariant_with_escape(self.LAW)
        sweep_ok(g, "truncated-sup", self.LAW)

    def test_windows_in_widened_valley_escape(self):
        g = construct_invariant_with_escape(self.LAW)
        # valley floor spans (1/10, 9/10): windows inside have sup below 1/2
        assert truncated_sup_location(g, F(1, 4), F(3, 4)) == INFINITY
        assert truncated_sup_location(g, F(1, 20), F(11, 20)) != INFINITY

    def test_all_mass_at_infinity(self):
        law = step_law(F(1, 2), (0, F(1, 2)), (0,), atomInf=1)
        g = construct_invariant_with_escape(law)
        sweep_ok(g, "truncated-sup", law, grid=500)

    def test_no_infinity_mass_delegates(self):
        g = construct_invariant_with_escape(LEFT_ONLY)
        sweep_ok(g, "truncated-sup", LEFT_ONLY)

    def test_central_block_goes_to_second_component(self):
        law = step_law(
            F(3, 10),
            (0, F(1, 10), F(1, 5), F(3, 10)),
            (2, 3, 2),
            atom0=F(1, 10),
            atomT=F(1, 10),
            atomInf=F(1, 10),
        )
        plan = plan_invariant(law)
        assert plan.components[0].central is None
        assert plan.components[0].extra == F(1, 10)
        assert plan.components[1].central == (F(1, 10), F(1, 5))
        g = realize_plan(plan)
        sweep_ok(g, "truncated-sup", law)


class TestFirstTime:
    LAW = step_law(
        F(2, 5), (0, F(1, 5), F(2, 5)), (3, 1), atom0=F(1, 20), atomInf=F(3, 20)
    )

    def test_sweep_recovers_law(self):
        g = construct_first_time(self.LAW)
        sweep_ok(g, "first-hit:-1", self.LAW)

    def test_hit_schedule(self):
        g = construct_first_time(self.LAW)
        T = F(2, 5)
        # hits at 0, 1/5, 2/5 then flat to 9/20; wrap gap 11/20 > T
        assert first_hit(g, F(-1), F(1, 10), F(1, 10) + T) == F(1, 5)
        assert first_hit(g, F(-1), F(41, 100), F(41, 100) + T) == F(41, 100)  # on the flat
        assert first_hit(g, F(-1), F(1, 2), F(1, 2) + T) == INFINITY

    def test_truncated_law(self):
        law = step_law(
            F(2, 5), (0, F(1, 5), F(2, 5)), (2, 0), atom0=F(3, 5), atomT=0
        )
        g = construct_first_time(law)
        sweep_ok(g, "first-hit:-1", law)

    def test_point_mass_at_zero(self):
        law = step_law(F(1, 2), (0, F(1, 2)), (0,), atom0=1)
        g = construct_first_time(law)
        emp = sweep_law(g, "first-hit:-1", law.T, 500)
        assert emp.count0 == emp.n

    def test_point_mass_at_infinity(self):
        law = step_law(F(1, 2), (0, F(1, 2)), (0,), atomInf=1)
        g = construct_first_time(law)
        assert g.min_value() > -1
        emp = sweep_law(g, "first-hit:-1", law.T, 500)
        assert emp.countInf == emp.n

    def test_rejects_increasing_density(self):
        law = step_law(F(1, 2), (0, F(1, 4), F(1, 2)), (1, 2), atom0=F(1, 4), atomT=0)
        with pytest.raises(ValueError, match="not in EMT"):
            construct_first_time(law)


class TestBoundAttainingLaw:
    def test_reference_point(self):
        law = bound_attaining_law(F(1, 5), F(1, 2))
        assert law.density.value(F(1, 5)) == 4  # floor(0.5/0.2) + 2
        assert check_class(law, "E1T").is_member
        assert law.atom0 == law.atomT > 0

    def test_constructible(self):
        law = bound_attaining_law(F(1, 5), F(1, 2))
        g = construct_invariant(law)
        sweep_ok(g, "sup", law, grid=8000, tol_ks=5e-3, tol_atom=1e-3)

    def test_mirrored_point(self):
        law = bound_attaining_law(F(7, 20), F(1, 2))
        # side = 3/20, K = 3: plateau of height 5 just left of t
        assert law.density.left_limit(F(7, 20)) == 5
        assert check_class(law, "E1T").is_member

    def test_explicit_eps(self):
        law = bound_attaining_law(F(1, 5), F(1, 2), eps=F(1, 100))
        assert law.density.value(F(1, 5)) == 4
        assert law.total_mass() == 1

    def test_degenerate_eps_zero(self):
        law = bound_attaining_law(F(1, 4), F(1, 2))  # K * side == 1 - T exactly
        assert law.density.value(F(1, 4)) == 3
        assert law.atom0 == 0

    def test_t_equal_one(self):
        law = bound_attaining_law(F(1, 4), 1)
        assert law.density.value(F(1, 8)) == law.density.value(F(1, 2)) == 1
        assert law.atom0 == law.atomT == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_attaining_law(F(3, 5), F(1, 2))
        with pytest.raises(ValueError):
            bound_attaining_law(F(1, 5), F(1, 2), eps=F(1, 2))
