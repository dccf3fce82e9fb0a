"""Closed-form bound functionals for the unified AG/JS family and the
consolidated inequality verification report.

The generic f-divergence engine is authoritative: every closed form here is
evaluated against it as a cross-check, and the one display whose printed
orientation disagrees with the generic evaluation (the s = 1 branch of the
directed first-derivative functional) is implemented in the corrected,
swapped-argument form with the correction stated in ``REPORT_NOTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, log
from operator import attrgetter
from typing import NamedTuple

from . import csiszar
from .csiszar import (
    GapBounds,
    GapTarget,
    PairMoments,
    _E_STAR,
    _HALF_E,
    _gap_bounds,
    _gap_functional,
    _require_straddle,
)
from .divergences import (
    chi_squared,
    power_difference_divergence,
    relative_j_divergence,
    triangular_discrimination,
)
from .means import lp_power
from .simplex import DistributionPair, RatioBounds, ratio_bounds
from .type_s import (_GENERIC, _LIMIT_AT_ONE, _LIMIT_AT_ZERO, SParameter,
                     _sparam, generator, omega_s, psi_s_d2, psi_s_d3)

#: An inequality entry passes when slack = rhs - lhs >= -VIOLATION_TOLERANCE.
#: An order of magnitude above worst observed rounding slack in double
#: precision at dimension 64, well below any genuine violation.
VIOLATION_TOLERANCE = 1e-10

#: Relative tolerance for closed-form versus generic-engine agreement.
CROSS_CHECK_REL = 1e-12

#: |1 - r| (or |R - 1|) below this routes the total-variation chain factors
#: (1 - r^m)/(1 - r) and (R^m - 1)/(R - 1) to their limit value m.
_FACTOR_LIMIT_SWITCH = 1e-12

_ORIENTATION_NOTE = (
    "closed-form cross-check at s=1 evaluates (chi2(Q||P) - rel_j(Q||P))/2 "
    "for the directed first-derivative functional; the swapped-argument "
    "orientation is the one consistent with the generic derivative "
    "evaluation and with the chain half_delta <= rel_j(Q||P) <= chi2(Q||P)."
)

_TV_CHAIN_NOTE = (
    "the total-variation chain ((1-r^m)/(1-r)) V <= . <= ((R^m-1)/(R-1)) V "
    "brackets the power-difference moment sum |p^m - q^m|/q^(m-1), whose "
    "termwise ratio |x^m-1|/|x-1| is increasing in x; applied to the "
    "absolute moment sum |p-q|^m/q^(m-1) the lower half is false (already "
    "at P=(1/2,1/2), Q=(1/4,3/4), m=2 it reads 5/6 <= 1/3), so only the "
    "ceiling, which holds termwise, is checked for the absolute moment."
)

#: The notes behind the cross-checks, in the order ``verify`` prints them.
REPORT_NOTES = (_ORIENTATION_NOTE, _TV_CHAIN_NOTE)


class SOutOfRange(ValueError):
    """Parameter below -1 where the third-derivative machinery needs
    s >= -1."""


class InvalidTolerance(ValueError):
    """Violation tolerance that is NaN, infinite or negative."""


def _check_tolerance(tolerance: float) -> float:
    """The violation tolerance, if it is finite and >= 0."""
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise InvalidTolerance(f"violation tolerance must be finite and >= 0, "
                               f"got {tolerance!r}")
    return tolerance


def _gap_parameter(s: float | SParameter) -> SParameter:
    sp = _sparam(s)
    if sp.s < -1.0:
        raise SOutOfRange(f"requires s >= -1, got {sp.s!r}")
    return sp


def e_omega(pair: DistributionPair, s: float | SParameter) -> float:
    """Directed first-derivative functional of the family at s; the
    generic engine evaluation is authoritative."""
    return csiszar.dragomir_e(pair, generator(s))


def e_omega_closed_form(pair: DistributionPair, s: float | SParameter) -> float:
    """Closed form of e_omega, used as a cross-check.

    The s = 1 branch uses chi2 with swapped arguments; see the report note.
    """
    sp = _sparam(s)
    if sp.regime is _LIMIT_AT_ZERO:
        return (relative_j_divergence(pair.swapped())
                - 0.5 * triangular_discrimination(pair))
    if sp.regime is _LIMIT_AT_ONE:
        return 0.5 * (chi_squared(pair.swapped())
                      - relative_j_divergence(pair.swapped()))
    sv = sp.s
    core = fsum([((p - q) / (p + q)) * math.pow((p + q) / (2.0 * p), sv)
                 * (p + (1.0 - sv) * q)
                 for p, q in zip(pair.p.values, pair.q.values) if p != q])
    return core / (sv * (sv - 1.0))


def e_star_omega(pair: DistributionPair, s: float | SParameter) -> float:
    """Midpoint-argument first-derivative functional of the family at s."""
    return csiszar.dragomir_e_star(pair, generator(s))


def e_star_omega_closed_form(pair: DistributionPair,
                             s: float | SParameter) -> float:
    """Closed form of e_star_omega, used as a cross-check."""
    sp = _sparam(s)
    items = tuple(zip(pair.p.values, pair.q.values))
    if sp.regime is not _GENERIC:
        # both limits share J* = sum (p - q) log((p + 3q)/(2(p + q)))
        j = fsum((p - q) * log((p + 3.0 * q) / (2.0 * (p + q)))
                 for p, q in items if p != q)
        if sp.regime is _LIMIT_AT_ZERO:
            return -j - 0.5 * fsum((p - q) * (p - q) / (p + 3.0 * q)
                                   for p, q in items)
        return 0.5 * triangular_discrimination(pair) + 0.5 * j
    sv = sp.s
    core = fsum([(p - q) * math.pow((p + 3.0 * q) / (2.0 * (p + q)), sv)
                 * ((p + (3.0 - 2.0 * sv) * q) / (p + 3.0 * q))
                 for p, q in items if p != q])
    return core / (sv * (sv - 1.0))


def a_omega(rb: RatioBounds, s: float | SParameter) -> float:
    """Ratio-interval bound for the family at s, via the power-mean form
    ((R-r)^2/(4rR)) 2^-s [L^(s-1) - L^(s-2)] on ((r+1)/r, (R+1)/R).

    Equals the generic bound_a with the family generator.
    """
    _require_straddle(rb)
    sc = _sparam(s).canonical
    r, R = rb.r, rb.R
    end_a, end_b = (r + 1.0) / r, (R + 1.0) / R
    scale = ((R - r) * (R - r) / (4.0 * r * R)) * math.pow(2.0, -sc)
    return scale * (lp_power(sc - 1.0, end_a, end_b)
                    - lp_power(sc - 2.0, end_a, end_b))


def b_omega(rb: RatioBounds, s: float | SParameter) -> float:
    """Chord bound for the family at s; the generic chord of the family
    generator is authoritative."""
    return csiszar.bound_b(rb, generator(s))


def b_omega_closed_form(rb: RatioBounds, s: float | SParameter) -> float:
    """Closed form of b_omega, used as a cross-check."""
    _require_straddle(rb)
    sp = _sparam(s)
    r, R = rb.r, rb.R
    end_a, end_b = (r + 1.0) / (2.0 * r), (R + 1.0) / (2.0 * R)
    if sp.regime is _LIMIT_AT_ZERO:
        return ((r * log(end_a) - R * log(end_b)) / (R - r)
                - 0.5 * lp_power(-1.0, end_a, end_b))
    if sp.regime is _LIMIT_AT_ONE:
        return ((r * R - 1.0) / (4.0 * r * R) * lp_power(-1.0, end_a, end_b)
                + 0.5 * log((R + 1.0) * (r + 1.0) / (4.0 * r * R)))
    sv = sp.s
    return (lp_power(sv - 1.0, end_a, end_b) / (2.0 * (sv - 1.0))
            + (R * (math.pow(end_b, sv) - 1.0) - r * (math.pow(end_a, sv) - 1.0))
            / (sv * (sv - 1.0) * (R - r)))


def delta_omega(rb: RatioBounds, s: float | SParameter) -> float:
    """Second-derivative spread of the family generator over the ratio
    interval: psi''(r) - psi''(R), read from psi_s_d2.  Requires r < 1 < R;
    positive for s >= -1, where the second derivative strictly decreases."""
    sp = _gap_parameter(s)
    _require_straddle(rb)
    return psi_s_d2(rb.r, sp) - psi_s_d2(rb.R, sp)


def psi3_sup(rb: RatioBounds, s: float | SParameter) -> float:
    """Supremum of |psi'''| over the ratio interval for s >= -1.

    |psi'''| is monotonically decreasing there, so the supremum is attained
    at the left endpoint and has the closed form |psi'''(r)| =
    (s + 1 + 3r) / (r^2 (r+1)^3) ((r+1)/(2r))^s.
    """
    return abs(psi_s_d3(rb.r, _gap_parameter(s)))


def theorem42_bounds(pair: DistributionPair, rb: RatioBounds,
                     s: float | SParameter, target: GapTarget, *,
                     moments: PairMoments | None = None,
                     omega: float | None = None,
                     functional: float | None = None) -> GapBounds:
    """Third-derivative gap bounds specialized to the family generator:
    theorem33_bounds for psi_s, fed with the closed form psi3_sup and the
    curvature sign -1: ``theorem33_bounds(pair, rb, generator(s), target)``
    bit for bit in every field but ``observed``, which reads omega_s.

    The sign needs no sampling: psi'' is monotonically decreasing for every
    s >= -1 (psi''' <= 0 there), so the curvature candidate is the positive
    spread delta/8 times chi-square.

    A caller that already holds ``PairMoments.of(pair)``,
    ``omega_s(pair, s)`` or the target's functional (``e_omega(pair, s)``
    for HALF_E, ``e_star_omega(pair, s)`` for E_STAR) may pass it as
    ``moments``, ``omega`` or ``functional``; each is computed here when
    omitted.
    """
    if type(target) is not GapTarget:
        target = GapTarget(target)
    sp = _gap_parameter(s)
    _require_straddle(rb)
    sup3 = psi3_sup(rb, sp)
    if moments is None:
        moments = PairMoments.of(pair)
    value = omega_s(pair, sp) if omega is None else omega
    gen = generator(sp)
    if functional is None:
        functional = _gap_functional(pair, gen, target)
    return _gap_bounds(rb, gen, target, value, functional, -1, sup3, moments)


def _family_at(pair: DistributionPair, rb: RatioBounds,
               moments: PairMoments, sp: SParameter):
    """(omega, e, e_star, a, b, gaps) of the family at sp for one pair.

    a, b and gaps are None unless r < 1 < R (on the simplex r or R is 1
    only when P = Q, or P equals Q up to rounding); gaps is also None for
    s < -1.  Otherwise gaps holds the theorem42_bounds bundles for HALF_E
    and E_STAR, in that order.
    """
    omega = omega_s(pair, sp)
    e = e_omega(pair, sp)
    e_star = e_star_omega(pair, sp)
    if not rb.r < 1.0 < rb.R:
        return omega, e, e_star, None, None, None
    a, b = a_omega(rb, sp), b_omega(rb, sp)
    gaps = None if sp.s < -1.0 else tuple(
        theorem42_bounds(pair, rb, sp, target, moments=moments, omega=omega,
                         functional=functional)
        for target, functional in ((_HALF_E, e), (_E_STAR, e_star)))
    return omega, e, e_star, a, b, gaps


class BoundEntry(NamedTuple):
    """One row of the verification report, in the CLI's column order.

    A checked inequality lhs <= rhs carries slack = rhs - lhs, verdict
    "pass" or "fail" and no reason; a skipped check carries no lhs, rhs or
    slack, verdict "skip" and the reason.  s is None for pair-level rows.
    """

    pair_id: str
    s: float | None
    inequality_id: str
    lhs: float | None
    rhs: float | None
    slack: float | None
    verdict: str
    reason: str | None

    @property
    def context(self) -> BoundEntry:
        """The record itself, read as ``context.s`` or ``context.pair_id``."""
        return self


@dataclass(frozen=True)
class BoundReport:
    """Consolidated check results for one pair: ``records`` in report order,
    and its checked (``entries``) and skipped (``skipped``) views."""

    records: tuple[BoundEntry, ...]

    @property
    def entries(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.records if e.verdict != "skip")

    @property
    def skipped(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.records if e.verdict == "skip")

    @property
    def all_pass(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.records if e.verdict == "fail")


# Builds a BoundEntry from its eight fields without the Python frame of the
# NamedTuple's generated __new__; verify_all makes 137 records per pair.
_record = tuple.__new__


def _entries(checks, where: tuple[str, float | None],
             tolerance: float) -> list[BoundEntry]:
    """One record per (inequality_id, lhs, rhs) check at where =
    (pair_id, s), s None for pair-level checks, built in one comprehension.
    The one site of the pass rule: slack = rhs - lhs >= -tolerance."""
    pair_id, s = where
    floor = -tolerance
    return [_record(BoundEntry, (pair_id, s, inequality_id, lhs, rhs,
                                 (slack := rhs - lhs),
                                 "pass" if slack >= floor else "fail", None))
            for inequality_id, lhs, rhs in checks]


def _agreement(inequality_id: str, closed: float, generic: float):
    # relative to the authoritative generic value, absolute near zero
    return (inequality_id, abs(generic - closed),
            CROSS_CHECK_REL * (1.0 + abs(generic)))


def _tv_chain_factors(r: float, R: float, m: float) -> tuple[float, float]:
    # (1 - r^m)/(1 - r) and (R^m - 1)/(R - 1); both tend to m as the
    # endpoint tends to 1, the value used inside the guard band.
    lower = m if abs(1.0 - r) < _FACTOR_LIMIT_SWITCH else (
        (1.0 - r ** m) / (1.0 - r))
    upper = m if abs(R - 1.0) < _FACTOR_LIMIT_SWITCH else (
        (R ** m - 1.0) / (R - 1.0))
    return lower, upper


def _s_key(s: float | None):
    # pair-level rows (no s) come before the per-s rows
    return (0, 0.0) if s is None else (1, s)


_by_id = attrgetter("inequality_id")

# why interval entries skip when r < 1 < R fails (P = Q up to rounding)
_DEGENERATE = "ratio interval degenerate (P = Q)"

# Every id a report can carry, built once: all records share these strings.
_MOMENT_ORDERS = (1.0, 2.0, 3.0)
_MOMENT_IDS = tuple(
    (f"abs_chi[m={m:g}]_le_interval", f"abs_chi[m={m:g}]_interval_le_cap",
     f"abs_chi[m={m:g}]_le_tv_ceiling", f"power_diff[m={m:g}]_ge_tv_floor",
     f"power_diff[m={m:g}]_le_tv_ceiling") for m in _MOMENT_ORDERS)
_MOMENT_SKIPS = tuple((f"abs_chi[m={m:g}]", _DEGENERATE)
                      for m in _MOMENT_ORDERS)
_GAP_IDS = tuple((f"{tag}_le_min", tuple(f"{tag}_{name}_le_cap" for name in (
    "curvature", "third_derivative", "first_derivative")))
    for tag in ("gap_half_e", "gap_e_star"))


def _pair_checks(pair: DistributionPair, rb: RatioBounds,
                 moments: PairMoments):
    """verify_all's pair-level checks, as (inequality_id, lhs, rhs), and
    skips, as (inequality_id, reason)."""
    # Chain: half triangular <= directed J (swapped) <= chi-square (swapped).
    half_tri = 0.5 * triangular_discrimination(pair)
    rel_j_swap = relative_j_divergence(pair.swapped())
    chi2_swap = chi_squared(pair.swapped())
    checks = [("tri_half_le_rel_j_swap", half_tri, rel_j_swap),
              ("rel_j_swap_le_chi2_swap", rel_j_swap, chi2_swap)]
    if not rb.r < 1.0 < rb.R:
        return checks, _MOMENT_SKIPS
    # Absolute-moment chains for m in {1, 2, 3}.  The m = 2 moment is the
    # chi-square: the same nonzero terms, so fsum returns the same value.
    r, R = rb.r, rb.R
    variation = moments.variation
    for m, moment, ids in zip(_MOMENT_ORDERS, (variation, moments.chi2,
                                               moments.abs_chi3), _MOMENT_IDS):
        (le_interval, interval_le_cap, le_ceiling, power_ge_floor,
         power_le_ceiling) = ids
        power_diff = power_difference_divergence(pair, m)
        interval = ((1.0 - r) * (R - 1.0) / (R - r)) * (
            (1.0 - r) ** (m - 1.0) + (R - 1.0) ** (m - 1.0))
        lower_factor, upper_factor = _tv_chain_factors(r, R, m)
        ceiling = upper_factor * variation
        checks += [
            (le_interval, moment, interval),
            (interval_le_cap, interval, (0.5 * (R - r)) ** m),
            (le_ceiling, moment, ceiling),
            (power_ge_floor, lower_factor * variation, power_diff),
            (power_le_ceiling, power_diff, ceiling),
        ]
    return checks, []


def _family_checks(pair: DistributionPair, rb: RatioBounds,
                   moments: PairMoments, sp: SParameter):
    """verify_all's checks at one s, as (inequality_id, lhs, rhs), and
    skips, as (inequality_id, reason)."""
    value, e_val, e_star_val, a_val, b_val, gaps = _family_at(
        pair, rb, moments, sp)
    checks = [
        ("omega_nonneg", 0.0, value),
        ("omega_le_e", value, e_val),
        _agreement("e_closed_form_agrees", e_omega_closed_form(pair, sp),
                   e_val),
        _agreement("e_star_closed_form_agrees",
                   e_star_omega_closed_form(pair, sp), e_star_val),
    ]
    if a_val is None:
        return checks, [("gap_bounds", _DEGENERATE),
                        ("interval_bounds", _DEGENERATE)]
    checks += [
        ("e_le_a", e_val, a_val),
        ("omega_le_a", value, a_val),
        ("omega_le_b", value, b_val),
        ("b_le_a", b_val, a_val),
        ("b_gap_nonneg", 0.0, b_val - value),
        ("b_gap_le_a", b_val - value, a_val),
        _agreement("a_closed_form_agrees", a_val,
                   csiszar.bound_a(rb, generator(sp))),
        _agreement("b_closed_form_agrees", b_omega_closed_form(rb, sp),
                   b_val),
    ]
    if gaps is None:
        return checks, [("gap_bounds",
                         "third-derivative bounds restricted to s >= -1")]
    for (min_id, cap_ids), bundle in zip(_GAP_IDS, gaps):
        checks.append((min_id, bundle.observed, bundle.minimum))
        checks += zip(cap_ids, bundle.candidates, bundle.cap_candidates)
    return checks, []


def verify_all(pair: DistributionPair, s_values, *,
               violation_tolerance: float = VIOLATION_TOLERANCE,
               pair_id: str = "pair") -> BoundReport:
    """Evaluate every inequality the package asserts for one pair.

    Pair-level entries cover the absolute-moment chains (m in {1, 2, 3})
    and the triangular/J/chi-square chain; per-s entries cover the
    nonnegativity, first-derivative, ratio-interval and chord bounds, the
    closed-form/generic agreement checks, and the third-derivative gap
    bounds (the latter only for s >= -1; other s are skipped, not
    extrapolated).  Every interval-dependent entry is skipped with a
    recorded reason unless r < 1 < R, which fails when P = Q or P equals Q
    up to rounding, so that r or R is exactly 1.  Each distinct s is checked
    once, and -0.0 and 0.0 are one s, reported as 0.0.  Records, checked and
    skipped alike, are ordered by (s, inequality_id), each key once, with
    pair-level records first.  The tolerance must be finite and >= 0.
    """
    _check_tolerance(violation_tolerance)
    rb = ratio_bounds(pair)
    moments = PairMoments.of(pair)
    blocks = [((pair_id, None), *_pair_checks(pair, rb, moments))]
    # one block per distinct s, in s order; SParameter reads -0.0 as 0.0
    params = {sp.s: sp for sp in map(_sparam, s_values)}
    blocks += [((pair_id, s), *_family_checks(pair, rb, moments, params[s]))
               for s in sorted(params)]
    # Each block is sorted by inequality id and the blocks come in s order,
    # so the report is ordered by (s, inequality_id).
    records = []
    for where, checks, skips in blocks:
        block = _entries(checks, where, violation_tolerance)
        block += [_record(BoundEntry, (*where, inequality_id, None, None,
                                       None, "skip", reason))
                  for inequality_id, reason in skips]
        block.sort(key=_by_id)
        records += block
    return BoundReport(tuple(records))
