"""Divergence measures on the probability simplex, their unified type-s
families, and numerically verified convexity bounds."""

from .simplex import (
    Distribution,
    DistributionPair,
    RatioBounds,
    random_pair,
    ratio_bounds,
    validate,
)
from .divergences import (
    ag_mean_divergence,
    bhattacharyya,
    chi_squared,
    hellinger,
    j_divergence,
    jensen_shannon,
    relative_ag_divergence,
    relative_information,
    relative_j_divergence,
    relative_js_divergence,
    symmetric_chi_squared,
    total_variation,
    triangular_discrimination,
    vajda_abs_chi,
)
from .means import lp_power
from .csiszar import (
    GapBounds,
    GapTarget,
    GeneratorFunction,
    bound_a,
    bound_b,
    csiszar_divergence,
    dragomir_e,
    dragomir_e_star,
    theorem33_bounds,
)
from .type_s import (
    SParameter,
    generator,
    omega_s,
    phi_s,
    psi_s,
    psi_s_d1,
    psi_s_d2,
    psi_s_d3,
)
from .bounds import (
    BoundEntry,
    BoundReport,
    a_omega,
    b_omega,
    delta_omega,
    e_omega,
    e_star_omega,
    psi3_sup,
    theorem42_bounds,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "Distribution", "DistributionPair", "RatioBounds",
    "validate", "ratio_bounds", "random_pair",
    "chi_squared", "relative_information", "relative_j_divergence",
    "relative_js_divergence", "relative_ag_divergence",
    "triangular_discrimination", "bhattacharyya", "hellinger",
    "total_variation", "vajda_abs_chi", "symmetric_chi_squared",
    "j_divergence", "jensen_shannon", "ag_mean_divergence", "lp_power",
    "GeneratorFunction", "GapBounds", "GapTarget",
    "csiszar_divergence", "dragomir_e", "dragomir_e_star",
    "bound_a", "bound_b", "theorem33_bounds",
    "SParameter", "phi_s", "omega_s", "psi_s", "psi_s_d1",
    "psi_s_d2", "psi_s_d3", "generator",
    "BoundEntry", "BoundReport",
    "e_omega", "e_star_omega", "a_omega", "b_omega",
    "delta_omega", "psi3_sup", "theorem42_bounds", "verify_all",
]
