"""Closed-form bound functionals for the unified AG/JS family and the
consolidated inequality verification report.

The generic f-divergence engine is authoritative: every closed form here is
evaluated against it as a cross-check, and the one display whose printed
orientation disagrees with the generic evaluation (the s = 1 branch of the
directed first-derivative functional) is implemented in the corrected,
swapped-argument form with the correction surfaced in the report notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import fsum, log

from . import csiszar
from .csiszar import (
    GapBounds,
    GapTarget,
    PairMoments,
    _gap_bounds,
    _require_distinct,
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
from .type_s import Regime, SParameter, _sparam, generator, omega_s, psi_s_d3

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

#: The notes every report carries, in report order.
REPORT_NOTES = (_ORIENTATION_NOTE, _TV_CHAIN_NOTE)


class SOutOfRange(ValueError):
    """Parameter below -1 where the third-derivative machinery needs
    s >= -1."""


class InvalidTolerance(ValueError):
    """Violation tolerance that is NaN, infinite or negative."""


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
    if sp.regime is Regime.LIMIT_AT_ZERO:
        return (relative_j_divergence(pair.swapped())
                - 0.5 * triangular_discrimination(pair))
    if sp.regime is Regime.LIMIT_AT_ONE:
        return 0.5 * (chi_squared(pair.swapped())
                      - relative_j_divergence(pair.swapped()))
    sv = sp.s
    core = fsum(((p - q) / (p + q)) * math.pow((p + q) / (2.0 * p), sv)
                * (p + (1.0 - sv) * q)
                for p, q in zip(pair.p.values, pair.q.values) if p != q)
    return core / (sv * (sv - 1.0))


def e_star_omega(pair: DistributionPair, s: float | SParameter) -> float:
    """Midpoint-argument first-derivative functional of the family at s."""
    return csiszar.dragomir_e_star(pair, generator(s))


def e_star_omega_closed_form(pair: DistributionPair,
                             s: float | SParameter) -> float:
    """Closed form of e_star_omega, used as a cross-check."""
    sp = _sparam(s)
    items = tuple(zip(pair.p.values, pair.q.values))
    if sp.regime is Regime.LIMIT_AT_ZERO:
        return (fsum((q - p) * log((p + 3.0 * q) / (2.0 * (p + q)))
                     for p, q in items if p != q)
                - 0.5 * fsum((p - q) * (p - q) / (p + 3.0 * q)
                             for p, q in items))
    if sp.regime is Regime.LIMIT_AT_ONE:
        return (0.5 * triangular_discrimination(pair)
                + 0.5 * fsum((p - q) * log((p + 3.0 * q) / (2.0 * (p + q)))
                             for p, q in items if p != q))
    sv = sp.s
    core = fsum((p - q) * math.pow((p + 3.0 * q) / (2.0 * (p + q)), sv)
                * ((p + (3.0 - 2.0 * sv) * q) / (p + 3.0 * q))
                for p, q in items if p != q)
    return core / (sv * (sv - 1.0))


def a_omega(rb: RatioBounds, s: float | SParameter) -> float:
    """Ratio-interval bound for the family at s, via the power-mean form
    ((R-r)^2/(4rR)) 2^-s [L^(s-1) - L^(s-2)] on ((r+1)/r, (R+1)/R).

    Equals the generic bound_a with the family generator.
    """
    _require_distinct(rb)
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
    if sp.regime is Regime.LIMIT_AT_ZERO:
        return ((r * log(end_a) - R * log(end_b)) / (R - r)
                - 0.5 * lp_power(-1.0, end_a, end_b))
    if sp.regime is Regime.LIMIT_AT_ONE:
        return ((r * R - 1.0) / (4.0 * r * R) * lp_power(-1.0, end_a, end_b)
                + 0.5 * log((R + 1.0) * (r + 1.0) / (4.0 * r * R)))
    sv = sp.s
    return (lp_power(sv - 1.0, end_a, end_b) / (2.0 * (sv - 1.0))
            + (R * (math.pow(end_b, sv) - 1.0) - r * (math.pow(end_a, sv) - 1.0))
            / (sv * (sv - 1.0) * (R - r)))


def delta_omega(rb: RatioBounds, s: float | SParameter) -> float:
    """Second-derivative spread of the family generator over the ratio
    interval: psi''(r) - psi''(R).  Positive for r < R and s >= -1 because
    the second derivative is strictly decreasing there."""
    sp = _gap_parameter(s)
    _require_distinct(rb)
    sc = sp.canonical
    r, R = rb.r, rb.R
    return 0.25 * ((1.0 / (r * r * r)) * math.pow((r + 1.0) / (2.0 * r), sc - 2.0)
                   - (1.0 / (R * R * R)) * math.pow((R + 1.0) / (2.0 * R), sc - 2.0))


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
                     omega: float | None = None) -> GapBounds:
    """Third-derivative gap bounds specialized to the family generator:
    theorem33_bounds for psi_s, fed with the closed forms delta_omega and
    psi3_sup and the curvature sign -1.

    The sign needs no sampling: psi'' is monotonically decreasing for every
    s >= -1 (psi''' <= 0 there), so the curvature candidate is the positive
    spread delta/8 times chi-square.

    A caller that already holds ``PairMoments.of(pair)`` or
    ``omega_s(pair, s)`` may pass it as ``moments`` or ``omega``; each is
    computed here when omitted.
    """
    target = GapTarget(target)
    sp = _gap_parameter(s)
    _require_straddle(rb)
    spread = delta_omega(rb, sp)
    sup3 = psi3_sup(rb, sp)
    if moments is None:
        moments = PairMoments.of(pair)
    value = omega_s(pair, sp) if omega is None else omega
    return _gap_bounds(pair, rb, generator(sp), target, value, spread, -1,
                       sup3, moments)


@dataclass(frozen=True)
class CheckContext:
    """Where an inequality entry was evaluated."""

    pair_id: str
    s: float | None
    r: float
    R: float


@dataclass(frozen=True)
class BoundEntry:
    """One verified inequality: lhs <= rhs with slack = rhs - lhs."""

    inequality_id: str
    lhs: float
    rhs: float
    slack: float
    verdict: str
    context: CheckContext


@dataclass(frozen=True)
class SkippedCheck:
    """An inequality not evaluated, with the reason."""

    inequality_id: str
    reason: str
    context: CheckContext


@dataclass(frozen=True)
class BoundReport:
    """Consolidated inequality check results for one pair."""

    entries: tuple[BoundEntry, ...]
    skipped: tuple[SkippedCheck, ...]
    violation_tolerance: float
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.verdict == "pass" for e in self.entries)

    @property
    def failures(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.verdict != "pass")


def _entry(inequality_id: str, lhs: float, rhs: float,
           context: CheckContext, tolerance: float) -> BoundEntry:
    slack = rhs - lhs
    verdict = "pass" if slack >= -tolerance else "fail"
    return BoundEntry(inequality_id, lhs, rhs, slack, verdict, context)


def _agreement(inequality_id: str, closed: float, generic: float,
               context: CheckContext, tolerance: float) -> BoundEntry:
    # relative to the authoritative generic value, absolute near zero
    return _entry(inequality_id, abs(generic - closed),
                  CROSS_CHECK_REL * (1.0 + abs(generic)), context, tolerance)


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


def _sort_key(item):
    return _s_key(item.context.s), item.inequality_id


def verify_all(pair: DistributionPair, s_values, *,
               violation_tolerance: float = VIOLATION_TOLERANCE,
               pair_id: str = "pair") -> BoundReport:
    """Evaluate every inequality the package asserts for one pair.

    Pair-level entries cover the absolute-moment chains (m in {1, 2, 3})
    and the triangular/J/chi-square chain; per-s entries cover the
    nonnegativity, first-derivative, ratio-interval and chord bounds, the
    closed-form/generic agreement checks, and the third-derivative gap
    bounds (the latter only for s >= -1; other s are skipped, not
    extrapolated).  Degenerate pairs (P = Q, so r = R = 1) skip every
    interval-dependent entry with a recorded reason.  Entries are ordered
    by (s, inequality_id); pair-level entries sort first.  The violation
    tolerance must be finite and nonnegative.
    """
    if not (math.isfinite(violation_tolerance) and violation_tolerance >= 0.0):
        raise InvalidTolerance(f"violation tolerance must be finite and >= 0, "
                               f"got {violation_tolerance!r}")
    rb = ratio_bounds(pair)
    r, R = rb.r, rb.R
    degenerate = r == R
    entries: list[BoundEntry] = []
    skipped: list[SkippedCheck] = []
    pair_ctx = CheckContext(pair_id, None, r, R)

    def skip(inequality_id: str, reason: str, ctx: CheckContext) -> None:
        skipped.append(SkippedCheck(inequality_id, reason, ctx))

    # Chain: half triangular <= directed J (swapped) <= chi-square (swapped).
    half_tri = 0.5 * triangular_discrimination(pair)
    rel_j_swap = relative_j_divergence(pair.swapped())
    chi2_swap = chi_squared(pair.swapped())
    entries.append(_entry("tri_half_le_rel_j_swap", half_tri, rel_j_swap,
                          pair_ctx, violation_tolerance))
    entries.append(_entry("rel_j_swap_le_chi2_swap", rel_j_swap, chi2_swap,
                          pair_ctx, violation_tolerance))

    # Absolute-moment chains for m in {1, 2, 3}.  The m = 2 moment is the
    # chi-square: the same nonzero terms, so fsum returns the same value.
    moments = None if degenerate else PairMoments.of(pair)
    for m in (1.0, 2.0, 3.0):
        prefix = f"abs_chi[m={m:g}]"
        if moments is None:
            skip(prefix, "ratio interval degenerate (P = Q)", pair_ctx)
            continue
        variation = moments.variation
        moment = {1.0: variation, 2.0: moments.chi2,
                  3.0: moments.abs_chi3}[m]
        power_diff = power_difference_divergence(pair, m)
        interval = ((1.0 - r) * (R - 1.0) / (R - r)) * (
            (1.0 - r) ** (m - 1.0) + (R - 1.0) ** (m - 1.0))
        cap = (0.5 * (R - r)) ** m
        lower_factor, upper_factor = _tv_chain_factors(r, R, m)
        entries.append(_entry(f"{prefix}_le_interval", moment, interval,
                              pair_ctx, violation_tolerance))
        entries.append(_entry(f"{prefix}_interval_le_cap", interval, cap,
                              pair_ctx, violation_tolerance))
        entries.append(_entry(f"{prefix}_le_tv_ceiling", moment,
                              upper_factor * variation,
                              pair_ctx, violation_tolerance))
        entries.append(_entry(f"power_diff[m={m:g}]_ge_tv_floor",
                              lower_factor * variation, power_diff,
                              pair_ctx, violation_tolerance))
        entries.append(_entry(f"power_diff[m={m:g}]_le_tv_ceiling",
                              power_diff, upper_factor * variation,
                              pair_ctx, violation_tolerance))

    for s in sorted({float(s) for s in s_values}):
        sp = SParameter.from_value(s)
        ctx = CheckContext(pair_id, s, r, R)
        value = omega_s(pair, sp)
        e_val = e_omega(pair, sp)
        e_closed = e_omega_closed_form(pair, sp)
        e_star_val = e_star_omega(pair, sp)
        e_star_closed = e_star_omega_closed_form(pair, sp)
        entries.append(_entry("omega_nonneg", 0.0, value, ctx,
                              violation_tolerance))
        entries.append(_entry("omega_le_e", value, e_val, ctx,
                              violation_tolerance))
        entries.append(_agreement("e_closed_form_agrees", e_closed, e_val,
                                  ctx, violation_tolerance))
        entries.append(_agreement("e_star_closed_form_agrees", e_star_closed,
                                  e_star_val, ctx, violation_tolerance))
        if degenerate:
            skip("interval_bounds", "ratio interval degenerate (P = Q)", ctx)
            skip("gap_bounds", "ratio interval degenerate (P = Q)", ctx)
            continue
        gen = generator(sp)
        a_val = a_omega(rb, sp)
        a_generic = csiszar.bound_a(rb, gen)
        b_val = b_omega(rb, sp)
        b_closed = b_omega_closed_form(rb, sp)
        entries.append(_entry("e_le_a", e_val, a_val, ctx,
                              violation_tolerance))
        entries.append(_entry("omega_le_a", value, a_val, ctx,
                              violation_tolerance))
        entries.append(_entry("omega_le_b", value, b_val, ctx,
                              violation_tolerance))
        entries.append(_entry("b_le_a", b_val, a_val, ctx,
                              violation_tolerance))
        entries.append(_entry("b_gap_nonneg", 0.0, b_val - value, ctx,
                              violation_tolerance))
        entries.append(_entry("b_gap_le_a", b_val - value, a_val, ctx,
                              violation_tolerance))
        entries.append(_agreement("a_closed_form_agrees", a_val, a_generic,
                                  ctx, violation_tolerance))
        entries.append(_agreement("b_closed_form_agrees", b_closed, b_val,
                                  ctx, violation_tolerance))
        if sp.s < -1.0:
            skip("gap_bounds",
                 "third-derivative bounds restricted to s >= -1", ctx)
            continue
        for target, tag in ((GapTarget.HALF_E, "gap_half_e"),
                            (GapTarget.E_STAR, "gap_e_star")):
            bundle = theorem42_bounds(pair, rb, sp, target, moments=moments,
                                      omega=value)
            entries.append(_entry(f"{tag}_le_min", bundle.observed,
                                  bundle.minimum, ctx, violation_tolerance))
            for name, data_term, cap_term in zip(
                    ("curvature", "third_derivative", "first_derivative"),
                    bundle.candidates, bundle.cap_candidates):
                entries.append(_entry(f"{tag}_{name}_le_cap", data_term,
                                      cap_term, ctx, violation_tolerance))

    entries.sort(key=_sort_key)
    skipped.sort(key=_sort_key)
    return BoundReport(tuple(entries), tuple(skipped), violation_tolerance,
                       REPORT_NOTES)
