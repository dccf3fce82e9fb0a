import math
import sys

import pytest

import oracles
from closed_forms import close
from divbounds import (
    DistributionPair,
    ag_mean_divergence,
    bhattacharyya,
    chi_squared,
    hellinger,
    j_divergence,
    jensen_shannon,
    random_pair,
    relative_ag_divergence,
    relative_information,
    relative_j_divergence,
    relative_js_divergence,
    symmetric_chi_squared,
    total_variation,
    triangular_discrimination,
    validate,
    vajda_abs_chi,
)
from divbounds.bounds import _power_difference_sums
from divbounds.divergences import MOutOfRange


# Frozen from the extended-precision direct-summation oracle (tests/oracles.py)
# at the reference pair P=(1/2,1/2), Q=(1/4,3/4).
GOLDEN = {
    "chi2": 0.33333333333333333,
    "chi2_swapped": 0.25,
    "kl": 0.14384103622589046,
    "rel_j": 0.14694666622552975,
    "rel_j_swapped": 0.12770640594149767,
    "rel_js": 0.032269260568785586,
    "rel_js_swapped": 0.035374890568424874,
    "rel_ag": 0.03158394240196325,
    "rel_ag_swapped": 0.038098442544340002,
    "delta": 0.13333333333333333,
    "bhat": 0.96592582628906829,
    "hellinger": 0.034074173710931713,
    "vajda_1": 0.5,
    "vajda_3": 0.27777777777777778,
    "power_diff_2": 1.1666666666666667,
    "psi_sym": 0.58333333333333333,
    "j_sym": 0.27465307216702742,
    "t_sym": 0.034841192473151626,
}


@pytest.mark.parametrize("fn, key, swap", [
    (chi_squared, "chi2", False),
    (chi_squared, "chi2_swapped", True),
    (relative_information, "kl", False),
    (relative_j_divergence, "rel_j", False),
    (relative_j_divergence, "rel_j_swapped", True),
    (relative_js_divergence, "rel_js", False),
    (relative_js_divergence, "rel_js_swapped", True),
    (relative_ag_divergence, "rel_ag", False),
    (relative_ag_divergence, "rel_ag_swapped", True),
    (triangular_discrimination, "delta", False),
    (bhattacharyya, "bhat", False),
    (hellinger, "hellinger", False),
])
def test_golden_values(std_pair, fn, key, swap):
    pair = std_pair.swapped() if swap else std_pair
    assert close(fn(pair), GOLDEN[key])


def test_chi_squared_reversal():
    pair = DistributionPair(validate((0.1, 0.9)), validate((0.9, 0.1)))
    assert close(chi_squared(pair), 64.0 / 9.0)
    assert close(triangular_discrimination(pair), 1.28)
    assert close(bhattacharyya(pair), 0.6)
    assert close(hellinger(pair), 0.4)
    assert close(relative_information(pair), 0.8 * math.log(9.0))


def test_vajda_golden(std_pair):
    assert vajda_abs_chi(std_pair, 1.0) == GOLDEN["vajda_1"]
    assert close(vajda_abs_chi(std_pair, 3.0), GOLDEN["vajda_3"])


def test_vajda_m_below_one_rejected(std_pair):
    with pytest.raises(MOutOfRange):
        vajda_abs_chi(std_pair, 0.5)


@pytest.mark.parametrize("fn", [vajda_abs_chi])
@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
def test_moment_exponent_not_finite_rejected(std_pair, fn, m):
    with pytest.raises(MOutOfRange):
        fn(std_pair, m)


# q ** (m - 1) underflows for the smallest q of each pair: to zero for
# q = 0.0086 at m = 200, and to a subnormal for q = 1e-13 at m = 25, where
# the sums are near the largest float and (|p - q| / q) ** m overflows
LARGE_ORDER_CASES = {
    "random-5-1-m200": (random_pair(5, 1), 200.0),
    "near-overflow-m25": (
        DistributionPair(validate((0.63 + 1e-13, 0.37 - 1e-13)),
                         validate((1e-13, 1.0 - 1e-13))), 25.0),
    # the sums are 2.51e306: (|p - q| / q) ** (m - 1) alone passes the
    # largest float, and only the factor |p - q| (or p) brings it back
    "past-range-power-m19.2": (
        DistributionPair(validate((0.001, 0.999)),
                         validate((1e-20, 1.0))), 19.2),
}


@pytest.mark.parametrize("fn, oracle", [
    (vajda_abs_chi, oracles.vajda),
])
@pytest.mark.parametrize("case", sorted(LARGE_ORDER_CASES))
def test_moment_sums_at_large_order(fn, oracle, case):
    pair, m = LARGE_ORDER_CASES[case]
    assert min(pair.q.values) ** (m - 1.0) < sys.float_info.min
    expected = oracle(pair.p.values, pair.q.values, m)
    assert close(fn(pair, m), float(expected))


# |p - q|^m underflows while q^(m - 1) is still normal: from m = 32.5 on,
# |p - q|^m is zero, and at m = 32 it is a subnormal with few bits left
LOST_TERM_PAIR = DistributionPair(validate((1e-7 + 1e-10, 1 - 1e-7 - 1e-10)),
                                  validate((1e-7, 1 - 1e-7)))


@pytest.mark.parametrize("m", [32.0, 40.0, 44.9])
def test_vajda_keeps_a_term_whose_numerator_underflows(m):
    p, q = LOST_TERM_PAIR.p.values, LOST_TERM_PAIR.q.values
    assert abs(p[0] - q[0]) ** m < sys.float_info.min <= q[0] ** (m - 1.0)
    expected = float(oracles.vajda(p, q, m))
    assert close(vajda_abs_chi(LOST_TERM_PAIR, m), expected, abs_=0.0)


@pytest.mark.parametrize("fn", [vajda_abs_chi])
def test_moment_sum_past_the_float_range_overflows(fn):
    pair = random_pair(5, 1)
    true_sum = oracles.vajda(pair.p.values, pair.q.values, 400)
    assert true_sum > sys.float_info.max
    with pytest.raises(OverflowError):
        fn(pair, 400.0)


def test_total_variation_aliases(std_pair):
    assert total_variation(std_pair) == vajda_abs_chi(std_pair, 1.0)


def test_power_difference_golden(std_pair):
    power_diff2, power_diff3 = _power_difference_sums(std_pair)
    p, q = std_pair.p.values, std_pair.q.values
    assert close(power_diff2, GOLDEN["power_diff_2"])
    assert close(power_diff3, float(oracles.power_diff(p, q, 3)))


def test_symmetric_golden(std_pair):
    assert close(symmetric_chi_squared(std_pair), GOLDEN["psi_sym"])
    assert close(j_divergence(std_pair), GOLDEN["j_sym"])
    assert close(ag_mean_divergence(std_pair), GOLDEN["t_sym"])


def test_symmetry_exact(make_pairs):
    """The four symmetric measures are bit-identical under argument swap."""
    for pair in make_pairs(100, seed=9):
        sw = pair.swapped()
        assert symmetric_chi_squared(pair) == symmetric_chi_squared(sw)
        assert j_divergence(pair) == j_divergence(sw)
        assert jensen_shannon(pair) == jensen_shannon(sw)
        assert ag_mean_divergence(pair) == ag_mean_divergence(sw)
        assert triangular_discrimination(pair) == triangular_discrimination(sw)


def test_hellinger_two_forms_agree(make_pairs):
    for pair in make_pairs(300, seed=13):
        sq_form = 0.5 * math.fsum(
            (math.sqrt(p) - math.sqrt(q)) ** 2
            for p, q in zip(pair.p.values, pair.q.values))
        assert abs(hellinger(pair) - sq_form) <= 1e-14
        assert hellinger(pair) + bhattacharyya(pair) == 1.0


def test_identity_of_indiscernibles():
    for n, seed in ((2, 1), (5, 2), (33, 3)):
        base = random_pair(n, seed).p
        pair = DistributionPair(base, base)
        for fn in (chi_squared, relative_information, relative_j_divergence,
                   relative_js_divergence, relative_ag_divergence,
                   triangular_discrimination, hellinger):
            assert abs(fn(pair)) <= 1e-15
        assert abs(bhattacharyya(pair) - 1.0) <= 1e-15


def test_nonnegativity_bulk(make_pairs):
    """Every measure is nonnegative (coefficient in (0, 1]) over ten
    thousand pairs of dimensions 2 through 64."""
    measures = (chi_squared, relative_information, relative_j_divergence,
                relative_js_divergence, relative_ag_divergence,
                triangular_discrimination, hellinger, symmetric_chi_squared,
                j_divergence, jensen_shannon, ag_mean_divergence)
    for pair in make_pairs(10_000, seed=21):
        for fn in measures:
            assert fn(pair) >= 0.0
        assert 0.0 < bhattacharyya(pair) <= 1.0
        assert vajda_abs_chi(pair, 2.5) >= 0.0
