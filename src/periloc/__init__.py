"""Distributions of intrinsic location functionals of periodic processes.

Exact rational representation of location laws (piecewise-affine densities
plus atoms at 0, T, and infinity), membership checks for the realizable
classes, constructive realizations as periodic piecewise-linear paths,
sweep/Monte-Carlo verification, a finite poset oracle, and joint-mixability
certificates for decreasing densities.
"""

from .construct import (
    bound_attaining_law,
    construct_first_time,
    construct_invariant,
    construct_invariant_with_escape,
)
from .density import (
    Block,
    BlockDecomposition,
    LocationLaw,
    PiecewiseDensity,
    block_decomposition,
    generalized_inverse,
    integral,
    make_step_density,
    mix_laws,
    step_law,
    total_variation,
)
from .membership import (
    HullCertificate,
    MembershipReport,
    check_class,
    check_tv,
    check_tv_prime,
    hull_membership_lp,
)
from .mixability import (
    Certificate,
    Coupling,
    MixProblem,
    certify_convex,
    certify_gap,
    certify_linear,
    component_distributions,
    optimal_coupling,
    rearrangement_coupling,
    rearrangement_search,
)
from .paths import (
    INFINITY,
    Locator,
    PiecewiseLinearPath,
    composite_location,
    first_hit,
    last_hit,
    locator_by_name,
    shift,
    sup_location,
    truncated_sup_location,
)
from .poset import PointSystem, counting_density, poset_location, reach, sweep_oracle

__version__ = "0.1.0"

# The float engines load numpy, so `periloc.simulate` is imported on first use
# of these names. Each access reads the name from `simulate` afresh and nothing
# is cached here, so a wrapper bound in `simulate` later is what callers get.
_SIMULATE_NAMES = ("EmpiricalLaw", "compare", "mc_law", "sweep_law")


def __getattr__(name):
    if name in _SIMULATE_NAMES:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SIMULATE_NAMES))


__all__ = [
    "Block",
    "BlockDecomposition",
    "Certificate",
    "Coupling",
    "EmpiricalLaw",
    "HullCertificate",
    "INFINITY",
    "LocationLaw",
    "Locator",
    "MembershipReport",
    "MixProblem",
    "PiecewiseDensity",
    "PiecewiseLinearPath",
    "PointSystem",
    "block_decomposition",
    "bound_attaining_law",
    "certify_convex",
    "certify_gap",
    "certify_linear",
    "check_class",
    "check_tv",
    "check_tv_prime",
    "compare",
    "component_distributions",
    "composite_location",
    "construct_first_time",
    "construct_invariant",
    "construct_invariant_with_escape",
    "counting_density",
    "first_hit",
    "generalized_inverse",
    "hull_membership_lp",
    "integral",
    "last_hit",
    "locator_by_name",
    "make_step_density",
    "mc_law",
    "mix_laws",
    "optimal_coupling",
    "poset_location",
    "reach",
    "rearrangement_coupling",
    "rearrangement_search",
    "step_law",
    "shift",
    "sup_location",
    "sweep_law",
    "sweep_oracle",
    "total_variation",
    "truncated_sup_location",
]
