import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbounds import lp_power
from divbounds.means import (BRANCH_SWITCH, NonFiniteExponent,
                             NonPositiveEndpoint)

from closed_forms import lp_mean

endpoints = st.floats(min_value=1e-3, max_value=1e3)
exponents = st.floats(min_value=-5.0, max_value=5.0)


def test_arithmetic_mean_case():
    assert lp_mean(1.0, 1.0, 2.0) == 1.5


def test_logarithmic_mean_case():
    assert math.isclose(lp_mean(-1.0, 1.0, 2.0), 1.4426950408889634,
                        rel_tol=1e-15)


def test_identric_mean_case():
    assert math.isclose(lp_mean(0.0, 1.0, 2.0), 1.4715177646857693,
                        rel_tol=1e-14)


def test_power_p_zero_is_one():
    assert lp_power(0.0, 1.5, 2.5) == 1.0


def test_power_log_branch():
    assert math.isclose(lp_power(-1.0, 1.5, 2.5), 0.51082562376599068,
                        rel_tol=1e-15)


def test_power_reciprocal_product():
    # p = -2 collapses to 1/(ab)
    assert math.isclose(lp_power(-2.0, 1.0, 2.0), 0.5, rel_tol=1e-15)


def test_equal_endpoints_extension():
    assert lp_mean(2.5, 3.0, 3.0) == 3.0
    assert lp_power(3.0, 2.0, 2.0) == 8.0
    assert lp_power(0.0, 2.0, 2.0) == 1.0


@pytest.mark.parametrize("fn", [lp_mean, lp_power])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0),
                                  (1.0, float("inf"))])
def test_bad_endpoints(fn, a, b):
    with pytest.raises(NonPositiveEndpoint):
        fn(1.0, a, b)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("a, b", [(1.0, 2.0), (2.0, 2.0)])
def test_non_finite_exponent(p, a, b):
    """A NaN or infinite p is refused, on distinct and on equal endpoints:
    it used to pass through to a NaN, infinite or zero result."""
    with pytest.raises(NonFiniteExponent, match="exponent must be finite"):
        lp_power(p, a, b)


@given(p=exponents, a=endpoints, b=endpoints)
@settings(max_examples=400, deadline=None)
def test_swap_symmetry(p, a, b):
    assert lp_mean(p, a, b) == lp_mean(p, b, a)
    assert lp_power(p, a, b) == lp_power(p, b, a)


@given(p=exponents, a=endpoints, b=endpoints)
@settings(max_examples=400, deadline=None)
def test_mean_betweenness(p, a, b):
    mean = lp_mean(p, a, b)
    lo, hi = min(a, b), max(a, b)
    # one-ulp cushion: the comparison is mathematical, not bitwise
    assert lo * (1.0 - 1e-14) <= mean <= hi * (1.0 + 1e-14)


@given(p=exponents.filter(lambda p: abs(p) > 1e-6 and abs(p + 1.0) > 1e-6),
       a=endpoints, b=endpoints)
@settings(max_examples=400, deadline=None)
def test_power_mean_consistency(p, a, b):
    """lp_mean's generic branch is lp_power(p, a, b) ** (1/p), so this round
    trip guards the test helper lp_mean, which test_mean_betweenness and
    TestPinnedBits.test_moment_sums_and_lp_mean read, not lp_power."""
    assert math.isclose(lp_power(p, a, b), lp_mean(p, a, b) ** p,
                        rel_tol=1e-12)


@pytest.mark.parametrize("a, b", [(1.5, 2.5), (0.2, 7.0), (1.0, 1.5)])
def test_branch_continuity(a, b):
    """The generic branch at a float just outside BRANCH_SWITCH stays within
    1e-6 of the limit branch, at both removable exponents.  -1 - 1e-8 rounds
    inside the band, so the probe below -1 is the next float past it."""
    for p0, probes in ((-1.0, (-0.99999999, -1.0000000100000002)),
                       (0.0, (1e-8, -1e-8))):
        ref_power = lp_power(p0, a, b)
        ref_mean = lp_mean(p0, a, b)
        for p in probes:
            assert min(abs(p), abs(p + 1.0)) >= BRANCH_SWITCH
            assert abs(lp_power(p, a, b) - ref_power) <= 1e-6
            assert abs(lp_mean(p, a, b) - ref_mean) <= 1e-6


def test_near_equal_endpoints_route_to_extension():
    a = 2.0
    b = a * (1.0 + 5e-13)
    assert lp_mean(3.0, a, b) == 0.5 * (a + b)
    assert lp_power(0.0, a, b) == 1.0
