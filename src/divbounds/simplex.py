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


class SimplexError(ValueError):
    """Base class for simplex-domain violations."""


class DimensionTooSmall(SimplexError):
    """Fewer than two components, or a generation dimension below two."""


class NonPositiveComponent(SimplexError):
    """A component is zero, negative, or not a finite real."""


class SumOutOfTolerance(SimplexError):
    """Components do not sum to one within SUM_TOLERANCE."""


class DimensionMismatch(SimplexError):
    """Paired distributions have different dimensions."""


class InvalidRatioBounds(SimplexError):
    """Ratio bounds violating 0 < r < 1 < R with R finite."""


def _check_components(values: tuple[float, ...]) -> None:
    if len(values) < 2:
        raise DimensionTooSmall(
            f"need at least 2 components, got {len(values)}")
    for i, v in enumerate(values):
        try:
            valid = math.isfinite(v) and v > 0.0
        except (TypeError, OverflowError):
            # not a real, or an int too large for a float: no value in the
            # message, since repr of a huge int raises in turn
            raise NonPositiveComponent(
                "components must be finite reals") from None
        if not valid:
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

    def swapped(self) -> "DistributionPair":
        """The pair with the roles of P and Q exchanged."""
        return DistributionPair(self.q, self.p)


@dataclass(frozen=True)
class RatioBounds:
    """Constants r <= p_i/q_i <= R bracketing all component ratios, with
    0 < r < 1 < R < inf as every ratio-interval result requires."""

    r: float
    R: float

    def __post_init__(self) -> None:
        if not (0.0 < self.r < 1.0 < self.R < math.inf):
            raise InvalidRatioBounds(
                f"require 0 < r < 1 < R, got r={self.r!r}, R={self.R!r}")


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


def ratio_bounds(pair: DistributionPair) -> RatioBounds | None:
    """Tightest (r, R) with r <= p_i/q_i <= R for every component, or None
    when r or R is exactly 1: on the simplex, P = Q or P equals Q up to
    rounding.  Other bounds outside 0 < r < 1 < R raise InvalidRatioBounds.
    """
    quotients = [p / q for p, q in zip(pair.p.values, pair.q.values)]
    r, R = min(quotients), max(quotients)
    if R == 1.0 or (r == 1.0 and R < math.inf):
        return None
    return RatioBounds(r, R)


def _draw_point(rng: random.Random, n: int) -> tuple[float, ...]:
    # Normalized i.i.d. exponentials are uniform over the simplex.  A zero
    # draw (probability 2**-53 per variate) would break positivity; redraw.
    while True:
        g = [rng.expovariate(1.0) for _ in range(n)]
        if min(g) > 0.0:
            break
    total = math.fsum(g)
    return tuple(v / total for v in g)


def random_pair(n: int, seed: int) -> DistributionPair:
    """Deterministically generate a valid pair, uniform over the simplex.

    The same (n, seed) always yields bit-identical output.
    """
    if n < 2:
        raise DimensionTooSmall(f"dimension must be >= 2, got {n}")
    rng = random.Random(seed)
    p_values = _draw_point(rng, n)
    q_values = _draw_point(rng, n)
    return DistributionPair(validate(p_values), validate(q_values))
