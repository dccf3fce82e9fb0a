"""Domain types for the probability simplex.

A distribution here is a point of the open simplex: strictly positive
components summing to one, dimension at least two.  Zero components are
rejected rather than clamped because several divergence kernels (ratios,
logarithms of ratios) are singular there.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

#: Absolute tolerance on |sum - 1| accepted by validation.  Far above the
#: accumulation error of compensated sums for any realistic dimension, far
#: below any meaningful probability mass.
SUM_TOLERANCE = 1e-9

_MIX_ITERATIONS = 200


class SimplexError(ValueError):
    """Base class for simplex-domain violations."""


class DimensionTooSmall(SimplexError):
    """Fewer than two components."""


class NonPositiveComponent(SimplexError):
    """A component is zero, negative, or not a finite real."""


class SumOutOfTolerance(SimplexError):
    """Components do not sum to one within SUM_TOLERANCE."""


class DimensionMismatch(SimplexError):
    """Paired distributions have different dimensions."""


class InvalidDimension(SimplexError):
    """Requested generation dimension is below two."""


class InvalidRatioBounds(SimplexError):
    """Ratio bounds violating 0 < r <= 1 <= R."""


def _check_components(values: tuple[float, ...]) -> None:
    if len(values) < 2:
        raise DimensionTooSmall(
            f"need at least 2 components, got {len(values)}")
    for i, v in enumerate(values):
        if not (math.isfinite(v) and v > 0.0):
            raise NonPositiveComponent(
                f"component {i} is {v!r}; every component must be a "
                "strictly positive finite real")


def _sum(values: tuple[float, ...]) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise SumOutOfTolerance("component sum overflows a float") from None


@dataclass(frozen=True)
class Distribution:
    """A validated point of the open probability simplex."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _check_components(self.values)
        total = _sum(self.values)
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise SumOutOfTolerance(
                f"components sum to {total!r}, outside 1 +/- {SUM_TOLERANCE}")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class DistributionPair:
    """An ordered pair (P, Q) of equal-dimension distributions."""

    p: Distribution
    q: Distribution

    def __post_init__(self) -> None:
        if self.p.n != self.q.n:
            raise DimensionMismatch(
                f"P has dimension {self.p.n}, Q has dimension {self.q.n}")

    @property
    def n(self) -> int:
        return self.p.n

    def swapped(self) -> "DistributionPair":
        """The pair with the roles of P and Q exchanged."""
        return DistributionPair(self.q, self.p)


@dataclass(frozen=True)
class RatioBounds:
    """Constants r <= p_i/q_i <= R bracketing all component ratios.

    Since both members sum to one, the smallest ratio cannot exceed one and
    the largest cannot fall below it, so 0 < r <= 1 <= R always.
    """

    r: float
    R: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r <= 1.0 <= self.R and math.isfinite(self.R)):
            raise InvalidRatioBounds(
                f"require 0 < r <= 1 <= R, got r={self.r!r}, R={self.R!r}")


def validate(raw: Sequence[float] | Iterable[float],
             renormalize: bool = False) -> Distribution:
    """Check a raw sequence against the simplex invariants.

    With ``renormalize`` set, components are divided by their sum before the
    invariant check; otherwise the sum must already lie within
    ``SUM_TOLERANCE`` of one.  Strict positivity is required either way,
    and every failure raises a ``SimplexError``.
    """
    try:
        values = tuple(float(v) for v in raw)
    except (TypeError, ValueError, OverflowError):
        # no value in the message: repr of a huge int raises in turn
        raise NonPositiveComponent("components must be finite reals") from None
    if renormalize:
        # Dividing by a negative sum would make all-negative components
        # positive, so the raw values are checked first.
        _check_components(values)
        total = _sum(values)
        values = tuple(v / total for v in values)
    return Distribution(values)


def ratio_bounds(pair: DistributionPair) -> RatioBounds:
    """Tightest (r, R) with r <= p_i/q_i <= R for every component."""
    quotients = [p / q for p, q in zip(pair.p.values, pair.q.values)]
    return RatioBounds(min(quotients), max(quotients))


def _draw_point(rng: random.Random, n: int) -> tuple[float, ...]:
    # Normalized i.i.d. exponentials are uniform over the simplex.  A zero
    # draw (probability 2**-53 per variate) would break positivity; redraw.
    while True:
        g = [rng.expovariate(1.0) for _ in range(n)]
        if min(g) > 0.0:
            break
    total = math.fsum(g)
    return tuple(v / total for v in g)


def random_pair(n: int, seed: int,
                min_ratio_floor: float | None = None) -> DistributionPair:
    """Deterministically generate a valid pair, uniform over the simplex.

    The same (n, seed) always yields bit-identical output.  When
    ``min_ratio_floor`` is given, both members are repeatedly mixed toward
    the uniform distribution until min_i p_i/q_i reaches the floor; the
    floor must lie in (0, 1) since the smallest ratio never exceeds one.
    """
    if n < 2:
        raise InvalidDimension(f"need dimension >= 2, got {n}")
    if min_ratio_floor is not None and not (0.0 < min_ratio_floor < 1.0):
        raise ValueError(
            f"min_ratio_floor must lie in (0, 1), got {min_ratio_floor!r}")
    rng = random.Random(seed)
    p_values = _draw_point(rng, n)
    q_values = _draw_point(rng, n)
    if min_ratio_floor is not None:
        uniform = 1.0 / n
        for _ in range(_MIX_ITERATIONS):
            if min(p / q for p, q in zip(p_values, q_values)) >= min_ratio_floor:
                break
            p_values = tuple(0.5 * (v + uniform) for v in p_values)
            q_values = tuple(0.5 * (v + uniform) for v in q_values)
        else:
            raise RuntimeError("ratio floor not reached; floor too close to 1")
    return DistributionPair(validate(p_values), validate(q_values))
