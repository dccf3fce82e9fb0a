import math

import pytest

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
from divbounds.divergences import MOutOfRange, power_difference_divergence


def close(a, b, rel=1e-12, abs_=1e-14):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


def self_pair(values):
    dist = validate(values, renormalize=True)
    return DistributionPair(dist, dist)


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


def test_vajda_m2_is_chi_squared(make_pairs):
    for pair in make_pairs(200, seed=5):
        assert close(vajda_abs_chi(pair, 2.0), chi_squared(pair), rel=1e-15,
                     abs_=0.0)


def test_vajda_m_below_one_rejected(std_pair):
    with pytest.raises(MOutOfRange):
        vajda_abs_chi(std_pair, 0.5)
    with pytest.raises(MOutOfRange):
        power_difference_divergence(std_pair, 0.99)


@pytest.mark.parametrize("fn", [vajda_abs_chi, power_difference_divergence])
@pytest.mark.parametrize("m", [math.inf, -math.inf, math.nan])
def test_moment_exponent_not_finite_rejected(std_pair, fn, m):
    with pytest.raises(MOutOfRange):
        fn(std_pair, m)


def test_total_variation_aliases(std_pair):
    assert total_variation(std_pair) == vajda_abs_chi(std_pair, 1.0)
    assert power_difference_divergence(std_pair, 1.0) == total_variation(std_pair)


def test_power_difference_golden(std_pair):
    assert close(power_difference_divergence(std_pair, 2.0),
                 GOLDEN["power_diff_2"])


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


def test_j_identities(make_pairs):
    """J equals the sum of the two directed J values and 4(I + T)."""
    for pair in make_pairs(500, seed=11):
        j = j_divergence(pair)
        via_directed = (relative_j_divergence(pair)
                        + relative_j_divergence(pair.swapped()))
        via_i_t = 4.0 * (jensen_shannon(pair) + ag_mean_divergence(pair))
        assert close(j, via_directed, rel=1e-12, abs_=1e-15)
        assert close(j, via_i_t, rel=1e-12, abs_=1e-15)


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
