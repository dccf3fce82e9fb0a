"""Concrete divergence measures and their symmetric combinations.

All logarithms are natural, so log-based measures are reported in nats.
Sums run in input order through ``math.fsum`` (an error-free-transformation
accumulator), which keeps the tight identity checks between measures honest
at large dimension.  Components where p_i equals q_i contribute exactly
zero to the difference-weighted sums and are skipped outright.
"""

from __future__ import annotations

from math import fsum, isfinite, log, sqrt

from .simplex import DistributionPair


class MOutOfRange(ValueError):
    """Exponent below one, or not finite, passed to a moment divergence."""


def _items(pair: DistributionPair):
    return zip(pair.p.values, pair.q.values)


def chi_squared(pair: DistributionPair) -> float:
    """Pearson chi-square divergence: sum of (p - q)^2 / q."""
    return fsum((p - q) * (p - q) / q for p, q in _items(pair))


def relative_information(pair: DistributionPair) -> float:
    """Kullback-Leibler relative information: sum of p ln(p/q)."""
    return fsum(p * log(p / q) for p, q in _items(pair) if p != q)


def relative_j_divergence(pair: DistributionPair) -> float:
    """Directed J-divergence: sum of (p - q) ln((p + q)/(2q))."""
    return fsum((p - q) * log((p + q) / (2.0 * q))
                for p, q in _items(pair) if p != q)


def relative_js_divergence(pair: DistributionPair) -> float:
    """Directed Jensen-Shannon divergence: sum of p ln(2p/(p + q))."""
    return fsum(p * log(2.0 * p / (p + q)) for p, q in _items(pair) if p != q)


def relative_ag_divergence(pair: DistributionPair) -> float:
    """Directed arithmetic-geometric divergence:
    sum of ((p + q)/2) ln((p + q)/(2p))."""
    return fsum(0.5 * (p + q) * log((p + q) / (2.0 * p))
                for p, q in _items(pair) if p != q)


def triangular_discrimination(pair: DistributionPair) -> float:
    """Triangular discrimination: sum of (p - q)^2 / (p + q).  Symmetric."""
    return fsum((p - q) * (p - q) / (p + q) for p, q in _items(pair))


def bhattacharyya(pair: DistributionPair) -> float:
    """Bhattacharyya coefficient: sum of sqrt(p q), in (0, 1]."""
    return fsum(sqrt(p * q) for p, q in _items(pair))


def hellinger(pair: DistributionPair) -> float:
    """Hellinger discrimination, one minus the Bhattacharyya coefficient."""
    return 1.0 - bhattacharyya(pair)


def total_variation(pair: DistributionPair) -> float:
    """Total variation: sum of |p - q|."""
    return fsum(abs(p - q) for p, q in _items(pair))


def _check_exponent(m: float) -> None:
    if not m >= 1.0:
        raise MOutOfRange(f"exponent must satisfy m >= 1, got {m!r}")
    if not isfinite(m):
        raise MOutOfRange(f"exponent must be finite, got {m!r}")


def vajda_abs_chi(pair: DistributionPair, m: float) -> float:
    """Absolute-moment divergence: sum of |p - q|^m / q^(m-1), m >= 1.

    m = 1 is total variation, m = 2 the Pearson chi-square, m = 3 the cubic
    absolute moment used by the third-derivative bounds.
    """
    _check_exponent(m)
    if m == 1.0:
        return total_variation(pair)
    if m == 2.0:
        return chi_squared(pair)
    diffs = [(abs(p - q), q) for p, q in _items(pair) if p != q]
    if m == 3.0:
        return fsum(ad * ad * ad / (q * q) for ad, q in diffs)
    return fsum(ad ** m / q ** (m - 1.0) for ad, q in diffs)


def power_difference_divergence(pair: DistributionPair, m: float) -> float:
    """Power-difference moment: sum of |p^m - q^m| / q^(m-1), m >= 1.

    This is the quantity the total-variation chain brackets between
    ((1 - r^m)/(1 - r)) V and ((R^m - 1)/(R - 1)) V: termwise,
    |x^m - 1|/|x - 1| is increasing in x.  m = 1 is total variation.
    """
    _check_exponent(m)
    if m == 1.0:
        return total_variation(pair)
    items = [(p, q) for p, q in _items(pair) if p != q]
    if m == 2.0:
        return fsum(abs(p * p - q * q) / q for p, q in items)
    if m == 3.0:
        return fsum(abs(p * p * p - q * q * q) / (q * q) for p, q in items)
    return fsum(abs(p ** m - q ** m) / q ** (m - 1.0) for p, q in items)


def symmetric_chi_squared(pair: DistributionPair) -> float:
    """chi2(P||Q) + chi2(Q||P)."""
    return chi_squared(pair) + chi_squared(pair.swapped())


def j_divergence(pair: DistributionPair) -> float:
    """Jeffreys J-divergence, K(P||Q) + K(Q||P)."""
    return relative_information(pair) + relative_information(pair.swapped())


def jensen_shannon(pair: DistributionPair) -> float:
    """Jensen-Shannon divergence, the mean of the two directed JS values."""
    return 0.5 * (relative_js_divergence(pair)
                  + relative_js_divergence(pair.swapped()))


def ag_mean_divergence(pair: DistributionPair) -> float:
    """Arithmetic-geometric mean divergence, the mean of the two directed
    AG values."""
    return 0.5 * (relative_ag_divergence(pair)
                  + relative_ag_divergence(pair.swapped()))

