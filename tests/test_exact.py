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
