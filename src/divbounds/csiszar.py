"""Generic f-divergence engine.

Any convex normalized generator with derivatives through order three drives
one trusted code path: the divergence itself, the first-derivative bound
functionals, the ratio-interval bounds A and B, and the third-derivative
gap bounds.  Every closed form elsewhere in the package can be cross-checked
against this engine.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import fsum
from typing import Callable

from .divergences import chi_squared, total_variation, vajda_abs_chi
from .simplex import DistributionPair, RatioBounds

#: Points where convexity of a new generator is probed at construction.
CONVEXITY_PROBES = (0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0)

NORMALIZATION_TOL = 1e-12

#: Grid size of the third-derivative scan for the supremum and the sign.
SUP_GRID = 1025

#: |f'''| below this counts as zero in the sign scan.
D3_ZERO_TOL = 1e-14

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class GeneratorNotNormalized(ValueError):
    """f(1) differs from zero beyond tolerance."""


class GeneratorNotConvex(ValueError):
    """f'' is negative at a probe point."""


class IntervalNotStraddlingOne(ValueError):
    """Ratio interval does not satisfy r < 1 < R."""


class NonMonotoneSecondDerivative(ValueError):
    """f''' changes sign on the ratio interval."""


@dataclass(frozen=True)
class GeneratorFunction:
    """A convex normalized generator f with derivatives through order 3.

    Derivatives are analytic maps supplied by the caller, not numeric
    differentiation: the bound formulas amplify derivative error.
    Normalization f(1) = 0 and convexity at the probe grid are checked at
    construction.
    """

    fn: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    d3: Callable[[float], float]
    label: str

    def __post_init__(self) -> None:
        at_one = self.fn(1.0)
        if abs(at_one) > NORMALIZATION_TOL:
            raise GeneratorNotNormalized(
                f"{self.label}: f(1) = {at_one!r}, must vanish")
        d2 = self.d2
        for x in CONVEXITY_PROBES:
            curvature = d2(x)
            if curvature < 0.0:
                raise GeneratorNotConvex(
                    f"{self.label}: f''({x}) = {curvature!r} < 0")


class GapTarget(enum.Enum):
    """Which first-derivative functional the gap bound is measured against."""

    HALF_E = "half_e"
    E_STAR = "e_star"


# The members as module names, as type_s binds the Regime members: a read
# through the class costs about 0.2 us on CPython 3.11.
_HALF_E, _E_STAR = GapTarget


@dataclass(frozen=True)
class GapBounds:
    """Bundle of third-derivative gap bounds for one target.

    ``candidates`` are the three data-dependent bound terms (curvature
    term, third-derivative term, first-derivative term); ``cap_candidates``
    replace the data factors by their ratio-interval caps.  ``observed`` is
    the actual gap, which must not exceed ``minimum``.
    """

    observed: float
    candidates: tuple[float, float, float]
    minimum: float
    cap_candidates: tuple[float, float, float]
    curvature_sign: int


@dataclass(frozen=True)
class PairMoments:
    """The pair-level sums the gap bounds read: chi-square, the cubic
    absolute moment |chi|^3 and the total variation V.  They do not depend
    on the generator, so a caller checking many generators or s-values
    builds them once per pair."""

    chi2: float
    abs_chi3: float
    variation: float

    @classmethod
    def of(cls, pair: DistributionPair) -> "PairMoments":
        return cls(chi_squared(pair), vajda_abs_chi(pair, 3.0),
                   total_variation(pair))


def _require_straddle(rb: RatioBounds) -> None:
    if not (rb.r < 1.0 < rb.R):
        raise IntervalNotStraddlingOne(
            f"requires r < 1 < R, got ({rb.r!r}, {rb.R!r})")


def csiszar_divergence(pair: DistributionPair, gen: GeneratorFunction) -> float:
    """sum of q f(p/q); nonnegative for convex normalized f."""
    return fsum(q * gen.fn(p / q)
                for p, q in zip(pair.p.values, pair.q.values) if p != q)


def dragomir_e(pair: DistributionPair, gen: GeneratorFunction) -> float:
    """First-derivative upper functional: sum of (p - q) f'(p/q)."""
    d1 = gen.d1
    return fsum([(p - q) * d1(p / q)
                 for p, q in zip(pair.p.values, pair.q.values) if p != q])


def dragomir_e_star(pair: DistributionPair, gen: GeneratorFunction) -> float:
    """Midpoint-argument variant: sum of (p - q) f'((p + q)/(2q))."""
    d1 = gen.d1
    return fsum([(p - q) * d1((p + q) / (2.0 * q))
                 for p, q in zip(pair.p.values, pair.q.values) if p != q])


def bound_a(rb: RatioBounds, gen: GeneratorFunction) -> float:
    """Ratio-interval bound (R - r)(f'(R) - f'(r))/4, requires r < 1 < R."""
    _require_straddle(rb)
    return 0.25 * (rb.R - rb.r) * (gen.d1(rb.R) - gen.d1(rb.r))


def bound_b(rb: RatioBounds, gen: GeneratorFunction) -> float:
    """Chord bound ((R-1) f(r) + (1-r) f(R))/(R - r), requires r < 1 < R."""
    _require_straddle(rb)
    return ((rb.R - 1.0) * gen.fn(rb.r)
            + (1.0 - rb.r) * gen.fn(rb.R)) / (rb.R - rb.r)


def _golden_max(g: Callable[[float], float], lo: float, hi: float) -> float:
    """Golden-section maximization of g on [lo, hi]."""
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    g1, g2 = g(x1), g(x2)
    for _ in range(80):
        if hi - lo <= 1e-13 * max(1.0, abs(lo), abs(hi)):
            break
        if g1 < g2:
            lo, x1, g1 = x1, x2, g2
            x2 = lo + _GOLDEN * (hi - lo)
            g2 = g(x2)
        else:
            hi, x2, g2 = x2, x1, g1
            x1 = hi - _GOLDEN * (hi - lo)
            g1 = g(x1)
    return max(g1, g2, g(lo), g(hi))


def _d3_scan(gen: GeneratorFunction, r: float,
             R: float) -> tuple[float, bool, bool]:
    """(sup of |f'''| over [r, R] from a dense grid plus golden-section
    refinement of the best cell, whether the grid saw f''' > 0, whether it
    saw f''' < 0).  |f'''| below D3_ZERO_TOL has no sign."""
    step = (R - r) / (SUP_GRID - 1)
    best_val = -1.0
    best_i = 0
    saw_pos = saw_neg = False
    for i in range(SUP_GRID):
        v = gen.d3(r + i * step)
        size = abs(v)
        if not size < D3_ZERO_TOL:
            if v > 0.0:
                saw_pos = True
            else:
                saw_neg = True
        if size > best_val:
            best_val, best_i = size, i
    lo = r + max(best_i - 1, 0) * step
    hi = r + min(best_i + 1, SUP_GRID - 1) * step
    refined = _golden_max(lambda x: abs(gen.d3(x)), lo, hi)
    return max(best_val, refined), saw_pos, saw_neg


def _gap_functional(pair: DistributionPair, gen: GeneratorFunction,
                    target: GapTarget) -> float:
    # the functional a target's gap is measured against: E for HALF_E,
    # E* for E_STAR
    if target is _HALF_E:
        return dragomir_e(pair, gen)
    return dragomir_e_star(pair, gen)


def _gap_bounds(rb: RatioBounds, gen: GeneratorFunction, target: GapTarget,
                div: float, functional: float, k: int, sup3: float,
                moments: PairMoments) -> GapBounds:
    # The one body of the gap bounds; it builds the curvature spread
    # k * (f''(R) - f''(r)) from gen.  The caller gives the divergence, the
    # target's functional (E or E*), the curvature sign k and the sup of
    # |f'''| on [r, R].
    if target is _HALF_E:
        observed = abs(div - 0.5 * functional)
        third_factor, first_factor = 1.0 / 12.0, 1.0
    else:
        observed = abs(div - functional)
        third_factor, first_factor = 1.0 / 24.0, 0.5
    d1_spread = gen.d1(rb.R) - gen.d1(rb.r)
    curvature = k * (gen.d2(rb.R) - gen.d2(rb.r))
    candidates = (
        curvature * moments.chi2 / 8.0,
        third_factor * sup3 * moments.abs_chi3,
        first_factor * d1_spread * moments.variation,
    )
    width = rb.R - rb.r
    caps = (
        curvature * (width * width / 4.0) / 8.0,
        third_factor * sup3 * (width ** 3 / 8.0),
        first_factor * d1_spread * (width / 2.0),
    )
    return GapBounds(observed, candidates, min(candidates), caps, k)


def theorem33_bounds(pair: DistributionPair, rb: RatioBounds,
                     gen: GeneratorFunction, target: GapTarget) -> GapBounds:
    """Third-derivative bounds on the gap between the divergence and its
    first-derivative functional (half of E, or the midpoint variant E*).

    Requires r < 1 < R and a monotone second derivative (checked by sign
    sampling of f'''; bounded variation and essential boundedness of f'''
    remain the caller's responsibility).  Returns the three data-dependent
    bound candidates, their minimum, and the ratio-interval-only caps.
    """
    target = GapTarget(target)
    _require_straddle(rb)
    r, R = rb.r, rb.R
    sup3, saw_pos, saw_neg = _d3_scan(gen, r, R)
    if saw_pos and saw_neg:
        raise NonMonotoneSecondDerivative(
            f"{gen.label}: f''' changes sign on [{r}, {R}]")
    k = -1 if saw_neg else 1
    moments = PairMoments.of(pair)
    return _gap_bounds(rb, gen, target, csiszar_divergence(pair, gen),
                       _gap_functional(pair, gen, target), k, sup3, moments)

