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
from dataclasses import dataclass, field
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
    """f(1) differs from zero beyond tolerance, is NaN, or cannot be
    evaluated."""


class GeneratorNotConvex(ValueError):
    """f'' is negative or NaN at a probe point, or cannot be evaluated
    there."""


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
        # a value that cannot be evaluated fails its check, as NaN does
        try:
            at_one = self.fn(1.0)
        except ArithmeticError as exc:
            raise GeneratorNotNormalized(
                f"{self.label}: f(1) cannot be evaluated "
                f"({type(exc).__name__}: {exc})") from None
        if not abs(at_one) <= NORMALIZATION_TOL:
            raise GeneratorNotNormalized(
                f"{self.label}: f(1) = {at_one!r}, must vanish")
        d2 = self.d2
        for x in CONVEXITY_PROBES:
            try:
                curvature = d2(x)
            except ArithmeticError as exc:
                raise GeneratorNotConvex(
                    f"{self.label}: f''({x}) cannot be evaluated "
                    f"({type(exc).__name__}: {exc})") from None
            if not curvature >= 0.0:
                raise GeneratorNotConvex(
                    f"{self.label}: f''({x}) = {curvature!r}, must be >= 0")


class GapTarget(enum.Enum):
    """Which first-derivative functional the gap bound is measured against."""

    HALF_E = "half_e"
    E_STAR = "e_star"


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
class _EvaluatedPair(DistributionPair):
    """A pair that keeps in ``terms`` the last value of each term it is
    read for: its s-independent terms, and omega, E and E* at the s being
    checked.  verify_all makes one per call and sweep one per pair and
    group, so the caller's pair keeps nothing."""

    terms: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)


def _term(pair: DistributionPair, build, *args):
    # build(pair, *args), kept on an _EvaluatedPair with its args (one
    # value per build, made again for other args), or built afresh on any
    # other pair
    if type(pair) is not _EvaluatedPair:
        return build(pair, *args)
    kept = pair.terms.get(build)
    if kept is None or kept[0] != args:
        kept = pair.terms[build] = (args, build(pair, *args))
    return kept[1]


def _gap_sums(pair: DistributionPair) -> tuple[float, float, float]:
    # the sums the gap bounds scale: chi-square, |chi|^3 and V
    return (chi_squared(pair), vajda_abs_chi(pair, 3.0),
            total_variation(pair))


def _e_columns(pair: DistributionPair) -> list[tuple[float, float, float]]:
    return [(p - q, p / q, (p + q) / (2.0 * q))
            for p, q in zip(pair.p.values, pair.q.values) if p != q]


def csiszar_divergence(pair: DistributionPair, gen: GeneratorFunction) -> float:
    """sum of q f(p/q); nonnegative for convex normalized f."""
    return fsum(q * gen.fn(p / q)
                for p, q in zip(pair.p.values, pair.q.values) if p != q)


def dragomir_e(pair: DistributionPair, gen: GeneratorFunction) -> float:
    """First-derivative upper functional: sum of (p - q) f'(p/q)."""
    d1 = gen.d1
    return fsum([d * d1(x) for d, x, _ in _term(pair, _e_columns)])


def dragomir_e_star(pair: DistributionPair, gen: GeneratorFunction) -> float:
    """Midpoint-argument variant: sum of (p - q) f'((p + q)/(2q))."""
    d1 = gen.d1
    return fsum([d * d1(x) for d, _, x in _term(pair, _e_columns)])


def bound_a(rb: RatioBounds, gen: GeneratorFunction) -> float:
    """Ratio-interval bound (R - r)(f'(R) - f'(r))/4."""
    return 0.25 * (rb.R - rb.r) * (gen.d1(rb.R) - gen.d1(rb.r))


def bound_b(rb: RatioBounds, gen: GeneratorFunction) -> float:
    """Chord bound ((R-1) f(r) + (1-r) f(R))/(R - r)."""
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


def _gap_bounds(pair: DistributionPair, rb: RatioBounds,
                gen: GeneratorFunction, target: GapTarget, div: float,
                functional: float, k: int, sup3: float) -> GapBounds:
    # The one body of the gap bounds; it builds the curvature spread
    # k * (f''(R) - f''(r)) from gen.  The caller gives the divergence, the
    # target's functional (E or E*), the curvature sign k and the sup of
    # |f'''| on [r, R].  Each term is a coefficient times one of the pair's
    # _gap_sums (chi^2, |chi|^3, V); its cap puts the sum's bound on [r, R]
    # in its place.
    if target is GapTarget.HALF_E:
        observed = abs(div - 0.5 * functional)
        third_factor, first_factor = 1.0 / 12.0, 1.0
    else:
        observed = abs(div - functional)
        third_factor, first_factor = 1.0 / 24.0, 0.5
    c2 = k * (gen.d2(rb.R) - gen.d2(rb.r)) / 8.0
    c3 = third_factor * sup3
    c1 = first_factor * (gen.d1(rb.R) - gen.d1(rb.r))
    chi2, abs_chi3, variation = _term(pair, _gap_sums)
    candidates = (c2 * chi2, c3 * abs_chi3, c1 * variation)
    width = rb.R - rb.r
    caps = (c2 * (width * width / 4.0), c3 * (width ** 3 / 8.0),
            c1 * (width / 2.0))
    return GapBounds(observed, candidates, min(candidates), caps, k)


def theorem33_bounds(pair: DistributionPair, rb: RatioBounds,
                     gen: GeneratorFunction, target: GapTarget) -> GapBounds:
    """Third-derivative bounds on the gap between the divergence and its
    first-derivative functional (half of E, or the midpoint variant E*).

    Requires a monotone second derivative (checked by sign sampling of
    f'''; bounded variation and essential boundedness of f''' remain the
    caller's responsibility).  Returns the three data-dependent bound
    candidates, their minimum, and the ratio-interval-only caps.
    """
    target = GapTarget(target)
    r, R = rb.r, rb.R
    sup3, saw_pos, saw_neg = _d3_scan(gen, r, R)
    if saw_pos and saw_neg:
        raise NonMonotoneSecondDerivative(
            f"{gen.label}: f''' changes sign on [{r}, {R}]")
    k = -1 if saw_neg else 1
    functional = (dragomir_e if target is GapTarget.HALF_E
                  else dragomir_e_star)
    return _gap_bounds(pair, rb, gen, target, csiszar_divergence(pair, gen),
                       functional(pair, gen), k, sup3)

