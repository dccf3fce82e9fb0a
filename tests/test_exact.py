"""Exact-rational referee for the sums that are rational in the float inputs.

Each float component is a dyadic rational, so ``Fraction`` evaluates the
defining sum exactly, and the float result is held to an error bound derived
from the rounding model, not fitted to data.

The model: each float operation on normal numbers returns the exact result
times (1 + d) with |d| <= u = 2^-53, and ``math.fsum`` returns the correctly
rounded sum of its float terms.  A term built with j roundings is its exact
value times a product of j such factors.  Every term here is nonnegative, so
the float terms sum to at most ((1 + u)^j - 1) * exact away from the exact
sum, and the rounding of fsum adds one more factor.  The bound is therefore
((1 + u)^k - 1) * exact with k = j + 1, which is k * u * exact to first order.
A difference p - q that enters a term squared or cubed counts once per power:

- ``chi_squared``, (p - q) * (p - q) / q: the difference twice, the product,
  the quotient: j = 4, k = 5.
- ``triangular_discrimination``, (p - q) * (p - q) / (p + q): the same four
  and the sum p + q: j = 5, k = 6.
- ``total_variation``, abs(p - q): the difference: j = 1, k = 2.
- ``vajda_abs_chi(., 3)``, ad * ad * ad / (q * q) with ad = abs(p - q): the
  difference three times, two products, q * q and the quotient: j = 7,
  k = 8.

The model assumes no underflow.  Every component drawn here exceeds 2^-64
(``random_pair`` normalizes exponential draws of at least about 2^-53), so
a nonzero |p - q| is at least the float spacing there, 2^-116, and its cube,
2^-348, stays far above the subnormal range below 2^-1022.
"""

from fractions import Fraction
from math import fsum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divbounds import (
    DistributionPair,
    chi_squared,
    random_pair,
    ratio_bounds,
    total_variation,
    triangular_discrimination,
    vajda_abs_chi,
    validate,
    verify_all,
)
from divbounds.bounds import VIOLATION_TOLERANCE

U = Fraction(1, 2**53)


@st.composite
def renormalized_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=64))
    raw = st.lists(st.floats(min_value=1e-12, max_value=1.0),
                   min_size=n, max_size=n)
    return DistributionPair(validate(draw(raw), renormalize=True),
                            validate(draw(raw), renormalize=True))


pairs = st.one_of(
    renormalized_pairs(),
    st.builds(random_pair, st.sampled_from((2, 3, 5, 17, 64)),
              st.integers(min_value=0, max_value=2**32)))

# (name, float evaluation, exact term of (p, q), k)
SUMS = (
    ("chi_squared", chi_squared, lambda p, q: (p - q) ** 2 / q, 5),
    ("triangular_discrimination", triangular_discrimination,
     lambda p, q: (p - q) ** 2 / (p + q), 6),
    ("total_variation", total_variation, lambda p, q: abs(p - q), 2),
    ("vajda_abs_chi[m=3]", lambda pair: vajda_abs_chi(pair, 3.0),
     lambda p, q: abs(p - q) ** 3 / (q * q), 8),
)


@given(pair=pairs)
@settings(max_examples=300, deadline=None)
def test_float_sums_within_rounding_bound(pair):
    components = [(Fraction(p), Fraction(q))
                  for p, q in zip(pair.p.values, pair.q.values)]
    for name, evaluate, term, k in SUMS:
        exact = sum(term(p, q) for p, q in components)
        error = abs(Fraction(evaluate(pair)) - exact)
        assert error <= ((1 + U) ** k - 1) * exact, (
            name, float(error / (U * exact)) if exact else error)


# Exact verdicts.  At an integer s outside {0, 1}, psi_s and its
# derivatives are rational, with u = (x + 1)/(2x):
#   psi_s(x)     = (x u^s - x - s (1 - x)/2)/(s (s - 1)),
#   psi_s'(x)    = ((u^s - 1)/s + (1 - u^(s-1)/x)/2)/(s - 1),
#   psi_s''(x)   = u^(s-2)/(4 x^3),
#   psi_s'''(x)  = -(s + 1 + 3x) u^s/(x^2 (1 + x)^3).
# So are the moments and power differences at m in {1, 2, 3}, the
# total-variation chain factors (1 - r^m)/(1 - r) = 1 + r + ... + r^(m-1)
# and (R^m - 1)/(R - 1), a_omega (equal to bound_a's (R - r)(psi'(R) -
# psi'(r))/4), the chord b, delta_omega = psi''(r) - psi''(R) and psi3_sup =
# |psi'''(r)|.  That makes 15 pair-level records and 16 per s rational in
# the exactly normalized inputs: 47 at the CLI's default s-list {-1, 2}.
# The referee decides each for the distribution the float components hold,
# read as Fractions and divided by their exact sum, whatever validate does
# with them.
EXACT_S = (-1, 2)


def _psi(x, s):
    u = (x + 1) / (2 * x)
    return (x * u**s - x - Fraction(s, 2) * (1 - x)) / (s * (s - 1))


def _psi_d1(x, s):
    u = (x + 1) / (2 * x)
    return ((u**s - 1) / s + (1 - u ** (s - 1) / x) / 2) / (s - 1)


def _psi_d2(x, s):
    return ((x + 1) / (2 * x)) ** (s - 2) / (4 * x**3)


def _psi_d3(x, s):
    return -(s + 1 + 3 * x) * ((x + 1) / (2 * x)) ** s / (x**2 * (1 + x) ** 3)


def _chord(psi, r, R, s):
    return ((R - 1) * psi(r, s) + (1 - r) * psi(R, s)) / (R - r)


def _interval(r, R, m):
    # the order-m moment interval
    return (1 - r) * (R - 1) / (R - r) * ((1 - r) ** (m - 1)
                                           + (R - 1) ** (m - 1))


def _chain_factor(x, m):
    # (1 - x^m)/(1 - x) as its polynomial, defined at x = 1 too
    return sum(x**j for j in range(m))


GAP_TARGETS = (("gap_half_e", Fraction(1, 12), 1),
               ("gap_e_star", Fraction(1, 24), Fraction(1, 2)))
GAP_TERMS = ("curvature", "third_derivative", "first_derivative")


def _exact_slacks(pair, s_values):
    """{(s, inequality_id): rhs - lhs} of each record of verify_all(pair,
    s_values) that is rational at the integer s of s_values.  The gap
    observed values, candidates and caps are built as csiszar._gap_bounds
    builds them.  The interval records exist when ratio_bounds(pair) is not
    None, as in the report; on the simplex that implies exact r < R."""
    straddles = ratio_bounds(pair) is not None
    p = [Fraction(v) for v in pair.p.values]
    q = [Fraction(v) for v in pair.q.values]
    p_sum, q_sum = sum(p), sum(q)
    p = [v / p_sum for v in p]
    q = [v / q_sum for v in q]
    ratios = [a / b for a, b in zip(p, q)]
    r, R = min(ratios), max(ratios)
    moments = {m: sum(abs(a - b) ** m / b ** (m - 1) for a, b in zip(p, q))
               for m in (1, 2, 3)}
    variation = moments[1]
    slacks = {}
    for m in (1, 2, 3) if straddles else ():
        power_diff = sum(abs(a**m - b**m) / b ** (m - 1)
                         for a, b in zip(p, q))
        interval = _interval(r, R, m)
        ceiling = _chain_factor(R, m) * variation
        slacks.update({
            (None, f"abs_chi[m={m}]_le_interval"): interval - moments[m],
            (None, f"abs_chi[m={m}]_interval_le_cap"):
                ((R - r) / 2) ** m - interval,
            (None, f"abs_chi[m={m}]_le_tv_ceiling"): ceiling - moments[m],
            (None, f"power_diff[m={m}]_ge_tv_floor"):
                power_diff - _chain_factor(r, m) * variation,
            (None, f"power_diff[m={m}]_le_tv_ceiling"): ceiling - power_diff,
        })
    for s in s_values:
        at = float(s)
        omega = sum(b * _psi(x, s) for b, x in zip(q, ratios))
        e = sum((a - b) * _psi_d1(x, s) for a, b, x in zip(p, q, ratios))
        slacks[at, "omega_nonneg"] = omega
        slacks[at, "omega_le_e"] = e - omega
        if not straddles:
            continue
        d1_spread = _psi_d1(R, s) - _psi_d1(r, s)
        a_val = (R - r) * d1_spread / 4
        b_val = _chord(_psi, r, R, s)
        slacks.update({
            (at, "e_le_a"): a_val - e,
            (at, "omega_le_a"): a_val - omega,
            (at, "omega_le_b"): b_val - omega,
            (at, "b_le_a"): a_val - b_val,
            (at, "b_gap_nonneg"): b_val - omega,
            (at, "b_gap_le_a"): a_val - (b_val - omega),
        })
        e_star = sum((a - b) * _psi_d1((a + b) / (2 * b), s)
                     for a, b in zip(p, q))
        curvature = _psi_d2(r, s) - _psi_d2(R, s)
        sup3 = abs(_psi_d3(r, s))
        width = R - r
        for (tag, third, first), observed in zip(
                GAP_TARGETS, (abs(omega - e / 2), abs(omega - e_star))):
            candidates = (curvature * moments[2] / 8,
                          third * sup3 * moments[3],
                          first * d1_spread * variation)
            caps = (curvature * (width * width / 4) / 8,
                    third * sup3 * (width**3 / 8),
                    first * d1_spread * (width / 2))
            slacks[at, f"{tag}_le_min"] = min(candidates) - observed
            for term, candidate, cap in zip(GAP_TERMS, candidates, caps):
                slacks[at, f"{tag}_{term}_le_cap"] = cap - candidate
    return slacks


#: The m = 1 total-variation identities, exact on every pair with r < R.
TV_ZEROS = {(None, "abs_chi[m=1]_le_tv_ceiling"),
            (None, "power_diff[m=1]_ge_tv_floor"),
            (None, "power_diff[m=1]_le_tv_ceiling")}


def _binary_zeros(s_values):
    # On a binary pair every ratio is r or R, so the moment intervals, the
    # chord and the chord gap B - omega are attained.
    return ({(None, f"abs_chi[m={m}]_le_interval") for m in (1, 2, 3)}
            | {(float(s), name) for s in s_values
               for name in ("omega_le_b", "b_gap_nonneg")})


def _exact_verdicts(pair, s_values):
    """Referee one report.  Asserts that the referee decides exactly the
    report's records with its ids, that no exact slack is negative (that
    would be a counterexample to the paper or a wrong formula), and that
    the identities are exact: the m = 1 chain on every pair, and on binary
    pairs the moment intervals, the chord and B - omega.  Returns the number
    of records refereed and the (key, exact slack) of each positive exact
    slack whose verdict is not ``pass``.  A float ``fail`` at exact slack 0
    (seed 7's pair-0648, abs_chi[m=3]) is not reported here."""
    slacks = _exact_slacks(pair, s_values)
    ids = {inequality_id for _, inequality_id in slacks}
    verdicts = {(e.s, e.inequality_id): e.verdict
                for e in verify_all(pair, s_values).records
                if e.inequality_id in ids}
    assert verdicts.keys() == slacks.keys()
    zeros = TV_ZEROS & slacks.keys()
    if len(pair.p.values) == 2:
        zeros |= _binary_zeros(s_values) & slacks.keys()
    assert {key: float(slack) for key, slack in slacks.items()
            if slack < 0 or key in zeros and slack != 0} == {}
    return len(slacks), [(key, float(slack)) for key, slack in slacks.items()
                         if slack > 0 and verdicts[key] != "pass"]


def _raw_interval_slack(pair):
    """rhs - lhs of abs_chi[m=3]_le_interval on the float inputs as they
    are, not divided by their sums: the interval at the exact minimum r and
    maximum R of p/q, less the sum of |p - q|^3/q^2."""
    p = [Fraction(v) for v in pair.p.values]
    q = [Fraction(v) for v in pair.q.values]
    ratios = [a / b for a, b in zip(p, q)]
    return _interval(min(ratios), max(ratios), 3) - sum(
        abs(a - b) ** 3 / (b * b) for a, b in zip(p, q))


def test_known_interval_failures_decided_exactly():
    """The two abs_chi[m=3]_le_interval cases of
    test_known_false_failures.py: seed 7's pair-0648 holds on its float
    inputs (exact slack +1.127e-9), so its fail is rounding alone; seed
    1729's pair-0885 fails on them by more than the tolerance (-2.048e-10),
    since they sum to more than one as rationals while fsum reads 1.0.  An
    allowance sized on rounding alone cannot pass the second."""
    assert _raw_interval_slack(random_pair(2, 655)) > 0
    pair = random_pair(2, 2614)
    assert _raw_interval_slack(pair) < -VIOLATION_TOLERANCE
    for dist in (pair.p, pair.q):
        assert fsum(dist.values) == 1.0 < sum(map(Fraction, dist.values))


@pytest.mark.parametrize("n, count", [(2, 1000), (64, 100)])
def test_exact_slack_decides_rational_verdicts(n, count):
    """All 47 rational records at the default s-list, on the pairs
    ``divbounds gen --seed 7`` writes: a positive exact slack gets the
    verdict ``pass``."""
    for i in range(count):
        pair = random_pair(n, 7 + i)
        assert _exact_verdicts(pair, EXACT_S) == (47, []), i


PROPERTY_S = (-1, 2, 3, 4)

#: A pair whose P equals Q up to rounding: only the last ratio differs from 1,
#: so r = 1.0 and R = 1.0000000000000002, and the interval does not
#: straddle 1.
_NEAR = (0.06249999999999219,) * 9 + (6.24999999999922e-14,) + (
    0.06249999999999219,) * 7
ULP_PAIR = DistributionPair(validate(_NEAR + (6.24999999999922e-14,)),
                            validate(_NEAR + (6.249999999999219e-14,)))


@given(pair=pairs)
@example(pair=ULP_PAIR)
@settings(max_examples=200, deadline=None)
def test_exact_slack_referees_rational_records(pair):
    """The referee's keys, signs and zeros at every integer s in [-1, 4]
    other than 0 and 1.  Hypothesis found ULP_PAIR: its interval does not
    straddle 1, so the report and the referee skip every interval record."""
    _exact_verdicts(pair, PROPERTY_S)


#: A pair on which a positive exact slack gets ``fail``: every ratio but
#: one is R up to rounding, so omega_le_b and b_gap_nonneg at s = 2 are
#: near-equalities (exact slack 5.6e-12) on values of about 3.7e5, and the
#: float slack, -2.3e-10, is 4 ulps judged against the absolute 1e-10.
NEAR_BINARY = DistributionPair(
    validate((0.11111110914881832, 0.2962962910635155, 0.2962962910635155,
              0.2962962910635155, 1.766063517710659e-08)),
    validate((0.08571428571428572, 0.22857142857142856, 0.22857142857142856,
              0.22857142857142856, 0.22857142857142856)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: the absolute tolerance")
@given(pair=pairs)
@example(pair=NEAR_BINARY)
@settings(max_examples=100, deadline=None)
def test_positive_exact_slack_passes(pair):
    """A positive exact slack gets the verdict ``pass`` at every integer s
    in [-1, 4] other than 0 and 1.  Hypothesis found NEAR_BINARY, a false
    failure of the absolute tolerance; a scale-aware pass rule mends it
    and must remove the marker."""
    assert _exact_verdicts(pair, PROPERTY_S)[1] == []


# Side by side.  A verdict alone is weak: a wrong right-hand side that stays
# above the left-hand side still passes.  So each printed right-hand side is
# also held to the exact value of the same expression on the float r and R
# that ratio_bounds gives, within the rounding bound of its evaluation.  Two
# more facts enter the count besides the model above: libm's pow is
# accurate to within 1 ulp, at most 2u relative, so each pow counts as two
# roundings; and a rounded divisor contributes a factor (1 + d)^-1, which
# differs from 1 by up to u/(1 - u), just above u, so one spare rounding
# covers these excesses and every second-order term.
#
# The interval, ((1 - r)(R - 1)/(R - r)) ((1 - r)**2 + (R - 1)**2): 1 - r,
# R - 1, their product, R - r and the quotient give 5; each square carries
# its difference twice and the pow (4), and their sum one more (5); the
# final product 1; the spare 1: k = 12.  Every factor is >= 0, so the scale
# is the exact value.
#
# The chord, ((R - 1) psi(r) + (1 - r) psi(R))/(R - r) with psi(x) =
# (x * u**s - x - s * 0.5 * (1 - x))/(s (s - 1)) and u = (x + 1)/(2x): u
# carries 2 (the sum and the quotient; 2x is exact), u**s at |s| <= 2 twice
# that and the pow (6), times x (7), minus x (8), minus the s term (one
# rounding for 1 - x and one for its product, then the subtraction: 9),
# divided by s (s - 1), which is exact at s in {-1, 2} (10).  Each weight
# R - 1 or 1 - r and its product with psi add 2 (12), their sum 1 (13), R -
# r and the quotient 2 (15), the spare 1: k = 16.  The terms of psi have
# mixed signs, so the scale is the chord of their magnitudes, |x u^s| + |x|
# + |s (1 - x)/2| over |s (s - 1)|, whose weights are >= 0.
#
# The curvature cap of gap_half_e, delta ((R - r) * (R - r)/4)/8 with
# delta = psi''(r) - psi''(R) and psi''(x) = 0.25 ((1/(x x x)) u**(s - 2)):
# u carries 2, u**(s - 2) at |s - 2| <= 3 three times that and the pow (8);
# x x x 2 and its reciprocal 1 (11); their product 1 (12), and 0.25 is
# exact.  The difference of the two psi'' adds 1 (13); R - r twice and the
# square 3 (16), and /4, /8 are exact; the product 1 (17), the spare 1: k =
# 18.  delta is a difference of positive terms, so the scale is their sum
# times the rest, (psi''(r) + psi''(R)) (R - r)^2/32.
K_INTERVAL = 12
K_CHORD = 16
K_CURVATURE_CAP = 18


def _psi_magnitude(x, s):
    u = (x + 1) / (2 * x)
    return (abs(x * u**s) + abs(x) + abs(Fraction(s, 2) * (1 - x))) / abs(
        s * (s - 1))


@pytest.mark.parametrize("n, count", [(2, 1000), (64, 100)])
def test_printed_bounds_match_exact_expression(n, count):
    """On the same seed-7 pairs: the printed rhs of
    abs_chi[m=3]_le_interval, and of omega_le_b and
    gap_half_e_curvature_le_cap at s in {-1, 2}, is within
    ((1 + u)^k - 1) * scale of its expression evaluated exactly on the
    float r and R."""
    for i in range(count):
        pair = random_pair(n, 7 + i)
        rb = ratio_bounds(pair)
        r, R = Fraction(rb.r), Fraction(rb.R)
        rhs = {(e.s, e.inequality_id): e.rhs
               for e in verify_all(pair, EXACT_S).records}
        interval = _interval(r, R, 3)
        expected = [((None, "abs_chi[m=3]_le_interval"), interval, interval,
                     K_INTERVAL)]
        expected += [((float(s), "omega_le_b"), _chord(_psi, r, R, s),
                      _chord(_psi_magnitude, r, R, s), K_CHORD)
                     for s in EXACT_S]
        expected += [((float(s), "gap_half_e_curvature_le_cap"),
                      (_psi_d2(r, s) - _psi_d2(R, s)) * ((R - r) ** 2 / 4) / 8,
                      (_psi_d2(r, s) + _psi_d2(R, s)) * (R - r) ** 2 / 32,
                      K_CURVATURE_CAP)
                     for s in EXACT_S]
        for key, exact, scale, k in expected:
            error = abs(Fraction(rhs[key]) - exact)
            assert error <= ((1 + U) ** k - 1) * scale, (
                i, key, float(error / (U * scale)))
