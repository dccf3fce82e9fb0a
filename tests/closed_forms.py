"""Closed forms the tests compare the package against.

``omega_special_cases`` sets the five closed special cases of omega_s next
to independent base-measure evaluations.  ``lp_mean`` is the p-logarithmic
power mean whose p-th power ``divbounds.lp_power`` computes; the bound
formulas need only the power.
"""

import math
from dataclasses import dataclass

from divbounds import (
    Distribution,
    DistributionPair,
    chi_squared,
    hellinger,
    lp_power,
    omega_s,
    relative_ag_divergence,
    relative_js_divergence,
    triangular_discrimination,
)
from divbounds.means import (
    BRANCH_SWITCH,
    ENDPOINT_SWITCH,
    _check_endpoints,
    _pow,
)


@dataclass(frozen=True)
class SpecialCaseRow:
    """One special-case check: the family evaluation next to the
    independent base-measure evaluation it must reproduce."""

    s: float
    family_value: float
    reference_value: float


def omega_special_cases(pair: DistributionPair) -> tuple[SpecialCaseRow, ...]:
    """The five closed special cases of omega_s with their independent
    base-measure evaluations (quarter triangular discrimination, directed
    JS, Hellinger to the midpoint, directed AG, eighth of the swapped
    chi-square).  Both columns agree within 1e-12 relative.
    """
    midpoint = Distribution(tuple(
        0.5 * (p + q) for p, q in zip(pair.p.values, pair.q.values)))
    to_mid = DistributionPair(pair.p, midpoint)
    rows = (
        SpecialCaseRow(-1.0, omega_s(pair, -1.0),
                       0.25 * triangular_discrimination(pair)),
        SpecialCaseRow(0.0, omega_s(pair, 0.0), relative_js_divergence(pair)),
        SpecialCaseRow(0.5, omega_s(pair, 0.5), 4.0 * hellinger(to_mid)),
        SpecialCaseRow(1.0, omega_s(pair, 1.0), relative_ag_divergence(pair)),
        SpecialCaseRow(2.0, omega_s(pair, 2.0),
                       chi_squared(pair.swapped()) / 8.0),
    )
    return rows


def lp_mean(p: float, a: float, b: float) -> float:
    """L_p(a, b): the p-logarithmic power mean of two positive reals.

    The p = -1 branch is the logarithmic mean, the p = 0 branch the
    identric mean; for equal endpoints the mean is the endpoint itself.
    The result always lies between min(a, b) and max(a, b).
    """
    _check_endpoints(a, b)
    if abs(b - a) <= ENDPOINT_SWITCH * max(a, b):
        return 0.5 * (a + b)
    if abs(p) < BRANCH_SWITCH:
        # identric mean: (1/e) (b^b / a^a)^(1/(b-a))
        return math.exp((b * math.log(b) - a * math.log(a)) / (b - a) - 1.0)
    if abs(p + 1.0) < BRANCH_SWITCH:
        return (b - a) / (math.log(b) - math.log(a))
    return _pow(lp_power(p, a, b), 1.0 / p)
