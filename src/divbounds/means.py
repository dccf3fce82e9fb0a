"""Two-point logarithmic power means.

``lp_power`` is the p-th power L_p^p of the p-logarithmic power mean
L_p(a, b), in the convention where the p = 0 case is the constant 1.  It has
removable singularities at p = -1 and p = 0 and at a = b, handled by routing
to the limit branch near those points: the generic difference quotient loses
all significance as (p + 1)(b - a) -> 0.
"""

from __future__ import annotations

import math

#: |p| (resp. |p + 1|) below this routes to the p = 0 (resp. p = -1) branch.
BRANCH_SWITCH = 1e-8

#: |b - a| below this times max(a, b) routes to the equal-endpoint extension.
ENDPOINT_SWITCH = 1e-12


class NonPositiveEndpoint(ValueError):
    """An endpoint is zero, negative, or not finite."""


def _check_endpoints(a: float, b: float) -> None:
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise NonPositiveEndpoint(
            f"endpoints must be positive finite reals, got a={a!r}, b={b!r}")


def _pow(x: float, e: float) -> float:
    # Small integral exponents by multiplication; everything else through
    # the library power (exponential of logarithm).
    if float(e).is_integer() and abs(e) <= 4.0:
        k = int(e)
        y = 1.0
        for _ in range(abs(k)):
            y *= x
        return y if k > 0 else 1.0 / y
    return math.pow(x, e)


def lp_power(p: float, a: float, b: float) -> float:
    """L_p^p(a, b): (b^(p+1) - a^(p+1)) / ((p+1)(b-a)), with limit branches
    (ln b - ln a)/(b - a) at p = -1 and the constant 1 at p = 0."""
    _check_endpoints(a, b)
    if abs(p) < BRANCH_SWITCH:
        return 1.0
    if abs(b - a) <= ENDPOINT_SWITCH * max(a, b):
        return _pow(0.5 * (a + b), p)
    if abs(p + 1.0) < BRANCH_SWITCH:
        return (math.log(b) - math.log(a)) / (b - a)
    return (_pow(b, p + 1.0) - _pow(a, p + 1.0)) / ((p + 1.0) * (b - a))

