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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbounds import (
    DistributionPair,
    chi_squared,
    random_pair,
    total_variation,
    triangular_discrimination,
    vajda_abs_chi,
    validate,
    verify_all,
)

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


# Exact verdicts.  At an integer s outside {0, 1}, psi_s is rational:
# psi_s(x) = (x u^s - x - s (1 - x) / 2) / (s (s - 1)) with u = (x + 1)/(2x).
# So two entries of verify_all are rational in the exactly normalized
# inputs: abs_chi[m=3]_le_interval, and omega_le_b at s = -1 and s = 2 (both
# in the CLI's default s-list).  The referee decides each for the
# distribution the float components hold, read as Fractions and divided by
# their exact sum, whatever validate does with them.
EXACT_S = (-1, 2)


def _psi(x, s):
    u = (x + 1) / (2 * x)
    return (x * u**s - x - Fraction(s, 2) * (1 - x)) / (s * (s - 1))


def _exact_slacks(pair):
    """{(s, inequality_id): rhs - lhs} of the exact statements."""
    p = [Fraction(v) for v in pair.p.values]
    q = [Fraction(v) for v in pair.q.values]
    p_sum, q_sum = sum(p), sum(q)
    p = [v / p_sum for v in p]
    q = [v / q_sum for v in q]
    ratios = [a / b for a, b in zip(p, q)]
    r, R = min(ratios), max(ratios)
    moment = sum(abs(a - b) ** 3 / (b * b) for a, b in zip(p, q))
    interval = (1 - r) * (R - 1) / (R - r) * ((1 - r) ** 2 + (R - 1) ** 2)
    slacks = {(None, "abs_chi[m=3]_le_interval"): interval - moment}
    for s in EXACT_S:
        omega = sum(b * _psi(x, s) for b, x in zip(q, ratios))
        chord = ((R - 1) * _psi(r, s) + (1 - r) * _psi(R, s)) / (R - r)
        slacks[float(s), "omega_le_b"] = chord - omega
    return slacks


@pytest.mark.parametrize("n, count", [(2, 1000), (64, 100)])
def test_exact_slack_decides_rational_verdicts(n, count):
    """On the pairs ``divbounds gen --seed 7`` writes: no exact slack is
    negative (that would be a counterexample to the paper or a wrong
    formula), a positive one gets the verdict ``pass``, and every n = 2
    slack is exactly 0, since the chord and interval bounds are equalities
    on binary pairs.  A float ``fail`` at exact slack 0 (seed 7's pair-0648,
    abs_chi[m=3]) is not asserted on here."""
    for i in range(count):
        pair = random_pair(n, 7 + i)
        verdicts = {(e.s, e.inequality_id): e.verdict
                    for e in verify_all(pair, EXACT_S).records}
        for key, slack in _exact_slacks(pair).items():
            assert slack >= 0, (i, key, float(slack))
            if n == 2:
                assert slack == 0, (i, key, float(slack))
            if slack > 0:
                assert verdicts[key] == "pass", (i, key, float(slack))
