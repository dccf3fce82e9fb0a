import hashlib
import json
import math
import random
import struct
import sys
from collections import namedtuple

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divbounds import (
    BoundEntry,
    DistributionPair,
    GapTarget,
    a_omega,
    b_omega,
    bound_a,
    bound_b,
    chi_squared,
    delta_omega,
    dragomir_e,
    dragomir_e_star,
    e_omega,
    e_star_omega,
    generator,
    lp_power,
    omega_s,
    phi_s,
    psi3_sup,
    psi_s_d3,
    random_pair,
    ratio_bounds,
    theorem33_bounds,
    theorem42_bounds,
    total_variation,
    vajda_abs_chi,
    validate,
    verify_all,
)
from divbounds import bounds, cli, csiszar, divergences, type_s
from divbounds.bounds import (
    InvalidTolerance,
    SOutOfRange,
    _entries,
    _family_at,
    _power_difference_sums,
    _s_key,
    b_omega_closed_form,
    e_omega_closed_form,
    e_star_omega_closed_form,
)
from divbounds.cli import DEFAULT_S_LIST, main
from divbounds.csiszar import _EvaluatedPair, _gap_sums
from divbounds.means import BRANCH_SWITCH
from divbounds.type_s import S_SWITCH, NonFiniteParameter, SParameter
from divbounds.simplex import InvalidRatioBounds, RatioBounds

import oracles
from closed_forms import close, lp_mean
from generators import S_GRID, hellinger_generator, kl_generator


def random_intervals(count, seed=17, r_max=0.98, big_r=50.0):
    rng = random.Random(seed)
    for _ in range(count):
        yield RatioBounds(rng.uniform(0.02, r_max), rng.uniform(1.02, big_r))


#: Each function of the ratio interval, called on (pair, rb).
INTERVAL_BOUNDS = {
    "bound_a": lambda pair, rb: bound_a(rb, kl_generator()),
    "bound_b": lambda pair, rb: bound_b(rb, kl_generator()),
    "theorem33_bounds": lambda pair, rb: theorem33_bounds(
        pair, rb, generator(1.0), GapTarget.HALF_E),
    "a_omega": lambda pair, rb: a_omega(rb, 1.0),
    "b_omega": lambda pair, rb: b_omega(rb, 1.0),
    "b_omega_closed_form": lambda pair, rb: b_omega_closed_form(rb, 1.0),
    "delta_omega": lambda pair, rb: delta_omega(rb, 1.0),
    "theorem42_bounds": lambda pair, rb: theorem42_bounds(
        pair, rb, 1.0, GapTarget.HALF_E),
}


def by_id(report, inequality_id):
    return [e for e in report.records if e.inequality_id == inequality_id]


class TestFunctionalGoldens:
    def test_e_omega(self, std_pair):
        assert close(e_omega(std_pair, 0.0), 0.061039739274831004)
        assert close(e_omega(std_pair, 1.0), 0.061146797029251165)

    def test_e_star_omega(self, std_pair):
        assert close(e_star_omega(std_pair, 1.0), 0.031962699591881731)

    def test_a_omega(self, std_rb):
        assert close(a_omega(std_rb, 1.0), 0.081529062705668219)

    def test_a_omega_braces_term(self, std_rb):
        # at s=1 the bracket is L^0 minus the logarithmic-mean form
        end_a = (std_rb.r + 1.0) / std_rb.r
        end_b = (std_rb.R + 1.0) / std_rb.R
        assert lp_power(0.0, end_a, end_b) == 1.0
        assert close(lp_power(-1.0, end_a, end_b), 0.51082562376599068)

    def test_b_omega(self, std_rb):
        assert close(b_omega(std_rb, 1.0), 0.03158394240196325)

    def test_b_omega_quarter_triangular_relation(self, std_rb):
        # at s=-1 the chord, scaled by four, is the triangular
        # discrimination bound 2(R-1)(1-r)/((R+1)(r+1))
        r, R = std_rb.r, std_rb.R
        expected = 2.0 * (R - 1.0) * (1.0 - r) / ((R + 1.0) * (r + 1.0))
        assert close(4.0 * b_omega(std_rb, -1.0), expected)

    def test_delta_omega(self, std_rb):
        assert close(delta_omega(std_rb, 1.0), 0.63333333333333333)
        assert close(delta_omega(std_rb, 2.0), 0.8125)

    def test_delta_omega_vanishes_with_interval(self):
        rb = RatioBounds(1.0 - 1e-9, 1.0 + 1e-9)
        value = delta_omega(rb, 1.0)
        assert 0.0 < value < 1e-6

    def test_a_omega_vanishes_with_interval(self):
        rb = RatioBounds(1.0 - 5e-7, 1.0 + 5e-7)
        assert 0.0 <= a_omega(rb, 1.0) < 1e-10

    def test_psi3_sup(self, std_rb):
        assert close(psi3_sup(std_rb, 1.0), 2.43)
        assert close(psi3_sup(RatioBounds(0.5, 2.0), -1.0),
                     1.1851851851851852)

    def test_psi3_sup_degenerate_edge(self):
        for s in (-1.0, 0.0, 2.0):
            assert close(abs(psi_s_d3(1.0, s)), (s + 4.0) / 8.0)


class TestDomainErrors:
    def test_s_out_of_range(self, std_pair, std_rb):
        with pytest.raises(SOutOfRange):
            delta_omega(std_rb, -1.5)
        with pytest.raises(SOutOfRange):
            psi3_sup(std_rb, -2.0)
        with pytest.raises(SOutOfRange):
            theorem42_bounds(std_pair, std_rb, -1.5, GapTarget.HALF_E)

    @pytest.mark.parametrize("r, R", [(1.0, 1.0), (1.0, 2.0), (0.5, 1.0),
                                      (0.5, 2.0)])
    @pytest.mark.parametrize("name", sorted(INTERVAL_BOUNDS))
    def test_interval_must_straddle_one(self, std_pair, name, r, R):
        """Every function of the ratio interval takes a RatioBounds, which
        holds r < 1 < R: an interval that does not straddle 1 meets the one
        InvalidRatioBounds before any of them runs."""
        call = INTERVAL_BOUNDS[name]
        if r < 1.0 < R:
            call(std_pair, RatioBounds(r, R))
        else:
            with pytest.raises(InvalidRatioBounds):
                call(std_pair, RatioBounds(r, R))

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf,
                                           -1.0, -1e-300])
    def test_bad_violation_tolerance(self, std_pair, tolerance):
        with pytest.raises(InvalidTolerance):
            verify_all(std_pair, (0.0,), violation_tolerance=tolerance)

    def test_zero_violation_tolerance(self, std_pair):
        report = verify_all(std_pair, (0.0,), violation_tolerance=0.0)
        checked = [e for e in report.records if e.verdict != "skip"]
        assert checked
        for entry in checked:
            assert (entry.verdict == "pass") is (entry.slack >= 0.0)


class TestClosedFormAgreement:
    def test_a_omega_matches_generic(self):
        for rb in random_intervals(1000):
            for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
                assert close(a_omega(rb, s), bound_a(rb, generator(s)),
                             rel=1e-12, abs_=1e-15)

    def test_b_omega_matches_generic(self):
        for rb in random_intervals(400, seed=19):
            for s in S_GRID:
                assert close(b_omega_closed_form(rb, s), b_omega(rb, s),
                             rel=1e-11, abs_=1e-14)

    def test_delta_omega_positive(self):
        for rb in random_intervals(1000, seed=23):
            for s in (-1.0, 0.0, 1e-6, 1.0 - 1e-6, 1.0, 2.0):
                assert delta_omega(rb, s) > 0.0

    def test_near_branch_parameters_canonicalized(self, std_pair, std_rb):
        """Parameters inside the switch band evaluate at the limit point on
        every route, so cross-checks stay consistent there."""
        for s, s0 in ((1e-6, 0.0), (1.0 - 1e-6, 1.0)):
            assert a_omega(std_rb, s) == a_omega(std_rb, s0)
            assert b_omega_closed_form(std_rb, s) == b_omega_closed_form(
                std_rb, s0)
            assert close(a_omega(std_rb, s), bound_a(std_rb, generator(s)))
            assert e_omega_closed_form(std_pair, s) == e_omega_closed_form(
                std_pair, s0)
            assert delta_omega(std_rb, s) == delta_omega(std_rb, s0)

    def test_e_closed_forms_match_generic(self, make_pairs):
        for pair in make_pairs(300, seed=67):
            for s in S_GRID:
                e_val = e_omega(pair, s)
                assert close(e_omega_closed_form(pair, s), e_val,
                             rel=1e-11, abs_=1e-13)
                e_star_val = e_star_omega(pair, s)
                assert close(e_star_omega_closed_form(pair, s), e_star_val,
                             rel=1e-11, abs_=1e-13)


class TestGapBundles:
    def test_golden_half_e(self, std_pair, std_rb):
        bundle = theorem42_bounds(std_pair, std_rb, 1.0, GapTarget.HALF_E)
        expected = (0.026388888888888889, 0.05625, 0.12229359405850233)
        for got, want in zip(bundle.candidates, expected):
            assert close(got, want)
        assert close(bundle.minimum, expected[0])
        assert close(bundle.observed, 0.0010105438873376673)
        assert bundle.curvature_sign == -1

    def test_golden_e_star(self, std_pair, std_rb):
        bundle = theorem42_bounds(std_pair, std_rb, 1.0, GapTarget.E_STAR)
        assert close(bundle.minimum, 0.026388888888888889)
        assert close(bundle.observed, 0.00037875718991848132)

    @pytest.mark.parametrize("value, target", [
        ("half_e", GapTarget.HALF_E), ("e_star", GapTarget.E_STAR)])
    def test_target_by_value(self, std_pair, std_rb, value, target):
        assert (theorem42_bounds(std_pair, std_rb, 0.5, value)
                == theorem42_bounds(std_pair, std_rb, 0.5, target))

    def test_unknown_target(self, std_pair, std_rb):
        with pytest.raises(ValueError):
            theorem42_bounds(std_pair, std_rb, 0.5, "bogus")

    def test_matches_generic_engine(self, make_pairs):
        """Dual route: the closed-form bundle is the grid-based generic
        engine's on the family generators, bit for bit in every bound term,
        since both read psi_s_d2 and build the curvature spread in
        _gap_bounds; only ``observed`` (closed-form omega_s against the
        Csiszar sum) differs by rounding.  The curvature candidate is also
        delta_omega's spread times chi2 / 8, bit for bit."""
        for pair in make_pairs(60, seed=71):
            rb = ratio_bounds(pair)
            chi2 = chi_squared(pair)
            for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, -1e-6, 1e-6,
                      1.0 - 1e-6, 1.0 + 1e-6):
                gen = generator(s)
                for target in GapTarget:
                    closed = theorem42_bounds(pair, rb, s, target)
                    grid = theorem33_bounds(pair, rb, gen, target)
                    assert grid.curvature_sign == -1
                    assert closed.curvature_sign == grid.curvature_sign
                    assert closed.candidates == grid.candidates
                    assert closed.candidates[0] == (
                        delta_omega(rb, s) * chi2 / 8.0)
                    assert closed.cap_candidates == grid.cap_candidates
                    assert closed.minimum == grid.minimum
                    assert close(closed.observed, grid.observed, rel=1e-11,
                                 abs_=1e-13)

    def test_terms_and_caps_match_mpmath(self, make_pairs):
        """An mpmath referee on the float r and R: each candidate is its
        coefficient times chi2, |chi|^3 or V, and each cap the same
        coefficient times (w/2)^2, (w/2)^3 or w/2, w = R - r.  The
        coefficients are (psi''(r) - psi''(R))/8, |psi'''(r)|/12 (HALF_E) or
        /24 (E_STAR), and psi'(R) - psi'(r) (HALF_E) or half of it
        (E_STAR)."""
        factors = {GapTarget.HALF_E: (mp.mpf(1) / 12, 1),
                   GapTarget.E_STAR: (mp.mpf(1) / 24, mp.mpf(1) / 2)}
        for pair in make_pairs(40, seed=81):
            rb = ratio_bounds(pair)
            r, R, p, q = rb.r, rb.R, pair.p.values, pair.q.values
            moments = (oracles.chi2(p, q), oracles.vajda(p, q, 3),
                       oracles.vajda(p, q, 1))
            half = (mp.mpf(R) - mp.mpf(r)) / 2
            moment_bounds = (half ** 2, half ** 3, half)
            for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                curvature = (oracles.psi_d2(r, s) - oracles.psi_d2(R, s)) / 8
                sup3 = oracles.psi3_sup(r, s)
                d1_spread = oracles.psi_d1(R, s) - oracles.psi_d1(r, s)
                for target, (third, first) in factors.items():
                    bundle = theorem42_bounds(pair, rb, s, target)
                    coefficients = (curvature, third * sup3, first * d1_spread)
                    for term, cap, c, moment, bound in zip(
                            bundle.candidates, bundle.cap_candidates,
                            coefficients, moments, moment_bounds):
                        assert math.isclose(term, float(c * moment),
                                            rel_tol=1e-12), (s, target)
                        assert math.isclose(cap, float(c * bound),
                                            rel_tol=1e-12), (s, target)

    def test_caps_dominate_and_hold(self, make_pairs):
        for pair in make_pairs(400, seed=73):
            rb = ratio_bounds(pair)
            for s in (-1.0, 0.0, 0.5, 2.0):
                for target in GapTarget:
                    bundle = theorem42_bounds(pair, rb, s, target)
                    assert bundle.observed <= bundle.minimum + 1e-10
                    for data_term, cap_term in zip(bundle.candidates,
                                                   bundle.cap_candidates):
                        assert data_term <= cap_term + 1e-10

    def test_gap_sums(self, make_pairs):
        """_gap_sums is (chi2, |chi|^3, V), V the m = 1 absolute moment,
        and the m = 2 absolute moment is the chi-square to the last bit,
        which lets verify_all's moment chain read all three from it."""
        for pair in make_pairs(70, seed=77):
            assert _gap_sums(pair) == (chi_squared(pair),
                                       vajda_abs_chi(pair, 3.0),
                                       vajda_abs_chi(pair, 1.0))
            assert _gap_sums(pair)[2] == total_variation(pair)
            assert vajda_abs_chi(pair, 2.0) == chi_squared(pair)


def digest(values):
    h = hashlib.sha256()
    for value in values:
        h.update(repr(value).encode() + b"\n")
    return h.hexdigest()


#: The gap sums with the repr the moment pin was frozen over, when they were
#: the fields of a public PairMoments dataclass.
FrozenSums = namedtuple("PairMoments", "chi2 abs_chi3 variation")


def frozen_tuple(bundle, target):
    """The 7-tuple the bundle pins were frozen over, when GapBounds also
    carried its target and the minimum of its caps."""
    return (target, bundle.observed, bundle.candidates, bundle.minimum,
            bundle.cap_candidates, min(bundle.cap_candidates),
            bundle.curvature_sign)


class TestPinnedBits:
    """SHA-256 over the repr of every value, frozen from the implementation
    in which theorem42_bounds and theorem33_bounds each had their own gap
    bound body and psi3_sup its own formula.  The other tests compare to
    1e-11; these catch a drift in the last bit.  test_theorem33_bundles was
    re-frozen when psi_s_d2 took delta_omega's rounding, since the bits of
    psi'' feed Theorem 3.3's curvature terms."""

    def test_theorem42_bundles(self, make_pairs):
        bundles = (frozen_tuple(theorem42_bounds(pair, rb, s, target), target)
                   for pair in make_pairs(126, seed=83)
                   for rb in (ratio_bounds(pair),)
                   for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
                   for target in GapTarget)
        assert digest(bundles) == (
            "82fca46ee93a02e7cd6fceee3a881741fd046e96768063d068c2235631c4f622")

    def test_theorem33_bundles(self, make_pairs):
        gens = [kl_generator(), hellinger_generator(), generator(-0.5),
                generator(2.0)]
        bundles = (frozen_tuple(theorem33_bounds(pair, rb, gen, target),
                                target)
                   for pair in make_pairs(63, seed=41)
                   for rb in (ratio_bounds(pair),)
                   for gen in gens
                   for target in GapTarget)
        assert digest(bundles) == (
            "2c5eaaedd416231fba43a65cc9cb052a21b937307635dddae41f2263a7fbd3fe")

    def test_psi3_sup(self):
        sups = (psi3_sup(rb, s) for rb in random_intervals(1000, seed=31)
                for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0))
        assert digest(sups) == (
            "715b2a4950ca884eee68fb3247519d370f652fe65c7c5017d84f5de667f6e040")

    def test_moment_sums_and_lp_mean(self, make_pairs):
        """Frozen from the implementation that wrote the m = 1 and m = 2
        sums out inside vajda_abs_chi and the L_p difference quotient out
        inside lp_mean.  The moments string was frozen again when the
        power-difference sums became _power_difference_sums; the public
        power_difference_divergence it replaced, at m = 2 and 3, gives the
        same string."""
        pairs = list(make_pairs(126, seed=89))
        pairs += [DistributionPair(pair.p, pair.p) for pair in pairs[:12]]
        moments = ([vajda_abs_chi(pair, m)
                    for m in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0)]
                   + [_power_difference_sums(pair),
                      FrozenSums(*_gap_sums(pair))] for pair in pairs)
        rng = random.Random(53)
        means = (lp_mean(p, rng.uniform(0.01, 10.0), rng.uniform(0.01, 10.0))
                 for p in (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0,
                           3.0, 4.0)
                 + tuple(rng.uniform(-5.0, 5.0) for _ in range(40))
                 for _ in range(25))
        assert digest(moments) == (
            "2564b3f3739e381d81e21af7257b7f68a9d516cb2e33bb35153e93e2436d44fc")
        assert digest(means) == (
            "2310e3ecc9c1f06c1fdbda9a5f11fdfa6cfe7ca6dc1ded4548db016331ec7eff")

    def test_lp_power(self):
        """Frozen from the implementation that tested |p| < BRANCH_SWITCH
        on both sides of the equal-endpoint branch: every branch of
        lp_power, on distinct, equal and nearly equal endpoints."""
        rng = random.Random(59)
        near = 0.5 * BRANCH_SWITCH
        exponents = ((-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 4.5,
                      near, -near, -1.0 + near, -1.0 - near,
                      2.0 * BRANCH_SWITCH, -1.0 - 2.0 * BRANCH_SWITCH)
                     + tuple(rng.uniform(-5.0, 5.0) for _ in range(24)))
        endpoints = []
        for _ in range(30):
            a, b = rng.uniform(0.01, 10.0), rng.uniform(0.01, 10.0)
            endpoints += [(a, b), (a, a), (a, a * (1.0 + 1e-13))]
        powers = (lp_power(p, a, b) for p in exponents for a, b in endpoints)
        assert digest(powers) == (
            "cc3049afeff3da54a9dbda8b2aee4214b3026a03e15143df2e95e224ee3e17a0")

    def test_family_sums(self, make_pairs):
        """Frozen from the implementation in which phi_s and omega_s each
        had their own log-ratio helper: phi_s, omega_s and the evaluated
        parameter in every regime, on random pairs and on pairs whose first
        component puts |q - p| just below, at and just above p/2 and p (the
        switch points of the log1p/log split of each family), or nearly
        zero."""
        pairs = list(make_pairs(63, seed=101))
        for a in (0.1, 0.3, 0.37):
            for target in (0.5 * a, 1.5 * a, 2.0 * a, a * (1.0 + 1e-12)):
                for q0 in (math.nextafter(target, 0.0), target,
                           math.nextafter(target, 1.0)):
                    pairs.append(DistributionPair(validate((a, 1.0 - a)),
                                                  validate((q0, 1.0 - q0))))
        s_values = (-3.0, -1.0, -0.5, -1e-6, 0.0, 2e-5, 0.5, 0.999999, 1.0,
                    1.00002, 2.0, 3.7)
        sums = [f(pair, s) for pair in pairs for s in s_values
                for f in (phi_s, omega_s)]
        sums += [SParameter(s).canonical for s in s_values]
        assert digest(sums) == (
            "40948ec9d5cc5a0f2e178d0cf3ba4be5ef7101d1c65cf3359c57874a7ac860e7")

    def test_verify_all_records(self, make_pairs):
        """Frozen from the implementation that read every Regime and
        GapTarget member through its class and built each checked record
        in its own call: every record of verify_all in every regime,
        including the limit bands away from s = 0 and 1 (where the
        evaluated parameter is not s), s < -1 (gap bounds skipped) and
        P = Q (interval checks skipped)."""
        pairs = list(make_pairs(63, seed=97))
        pairs += [DistributionPair(pair.p, pair.p) for pair in pairs[:4]]
        s_values = (-3.0, -1.5, -1.0, -0.5, -1e-6, 0.0, 1e-6, 2e-5, 0.5,
                    0.999999, 1.0, 1.000005, 1.00002, 2.0, 3.7)
        records = (rec for i, pair in enumerate(pairs)
                   for rec in verify_all(pair, s_values,
                                         pair_id=f"p{i}").records)
        assert digest(records) == (
            "a844cfd71fc13b27ee113bf4f27b5b19f47a9dc327e5bba59e529138b7d87695")


def bits(x):
    return struct.pack("<d", x)


class TestPassRule:
    """_entries is the one site of the pass rule: an entry passes exactly
    when slack = rhs - lhs >= -tolerance, so slack = -tolerance passes and
    a NaN slack (inf - inf, or a NaN side) fails."""

    @given(st.lists(st.tuples(st.floats(), st.floats()), max_size=6),
           st.one_of(st.just(-0.0), st.floats(min_value=0.0,
                                              allow_infinity=False)),
           st.sampled_from((None, -1.5, 0.0, 2.0)))
    @example([(1.0, 0.5), (0.5, 1.0)], 0.5, None)
    @example([(math.inf, math.inf), (-math.inf, -math.inf), (math.nan, 0.0),
              (0.0, -0.0), (-0.0, 0.0)], 0.0, 1.0)
    @example([(0.0, -math.inf), (-math.inf, 0.0), (math.inf, 0.0)],
             1e300, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_slack_and_verdict(self, sides, tolerance, s):
        checks = [(f"check_{i}", lhs, rhs) for i, (lhs, rhs) in
                  enumerate(sides)]
        records = _entries(checks, ("x", s), tolerance)
        assert len(records) == len(checks)
        for record, (inequality_id, lhs, rhs) in zip(records, checks):
            assert type(record) is BoundEntry
            pid, rs, rid, rlhs, rrhs, slack, verdict, reason = record
            assert (pid, rid, reason) == ("x", inequality_id, None)
            assert rs is s and rlhs is lhs and rrhs is rhs
            assert bits(slack) == bits(rhs - lhs)
            failed = math.isnan(slack) or slack < -tolerance
            assert verdict == ("fail" if failed else "pass")


class TestAbsoluteMomentChains:
    def test_tv_chain_factors_match_mpmath(self, make_pairs):
        """The floor of power_diff[m] is (1 - r^m)/(1 - r) V and its
        ceiling (R^m - 1)/(R - 1) V, against mpmath on the float r and R."""
        for pair in make_pairs(40, seed=83):
            rb = ratio_bounds(pair)
            r, R = mp.mpf(rb.r), mp.mpf(rb.R)
            variation = oracles.vajda(pair.p.values, pair.q.values, 1)
            report = verify_all(pair, (0.0,))
            for m in (1, 2, 3):
                (floor,) = by_id(report, f"power_diff[m={m}]_ge_tv_floor")
                (ceiling,) = by_id(report, f"power_diff[m={m}]_le_tv_ceiling")
                assert math.isclose(floor.lhs, float(
                    (1 - r ** m) / (1 - r) * variation), rel_tol=1e-12)
                assert math.isclose(ceiling.rhs, float(
                    (R ** m - 1) / (R - 1) * variation), rel_tol=1e-12)

    def test_interval_chain_fractional_exponent(self, make_pairs):
        """The interval chain also holds at the fractional exponent 2.5."""
        for pair in make_pairs(2000, seed=79):
            rb = ratio_bounds(pair)
            if rb is None:
                continue
            r, R = rb.r, rb.R
            moment = vajda_abs_chi(pair, 2.5)
            interval = ((1.0 - r) * (R - 1.0) / (R - r)) * (
                (1.0 - r) ** 1.5 + (R - 1.0) ** 1.5)
            assert moment <= interval + 1e-10
            assert interval <= (0.5 * (R - r)) ** 2.5 + 1e-10


class TestVerifyAll:
    def test_standard_pair_passes(self, std_pair):
        report = verify_all(std_pair, (-1.0, 0.0, 1.0, 2.0), pair_id="std")
        assert report.all_pass
        assert all(e.verdict != "skip" for e in report.records)

    def test_triangular_chain_entry_values(self, std_pair):
        report = verify_all(std_pair, (0.0,), pair_id="std")
        (lower,) = by_id(report, "tri_half_le_rel_j_swap")
        (upper,) = by_id(report, "rel_j_swap_le_chi2_swap")
        assert close(lower.lhs, 0.066666666666666667)
        assert close(lower.rhs, 0.12770640594149767)
        assert close(upper.rhs, 0.25)

    def test_moment_chain_tight_for_binary(self, std_pair):
        report = verify_all(std_pair, (0.0,), pair_id="std")
        (entry,) = by_id(report, "abs_chi[m=2]_le_interval")
        assert close(entry.lhs, 1.0 / 3.0)
        assert abs(entry.slack) <= 1e-12
        (cap,) = by_id(report, "abs_chi[m=2]_interval_le_cap")
        assert close(cap.rhs, 4.0 / 9.0)

    def test_identical_pair_skips_interval_entries(self):
        base = validate((0.3, 0.3, 0.4))
        report = verify_all(DistributionPair(base, base), (-2.0, 0.0, 1.0),
                            pair_id="same")
        assert report.all_pass
        assert all(e.slack >= 0.0 for e in report.records
                   if e.verdict != "skip")
        reasons = {e.reason for e in report.records if e.verdict == "skip"}
        assert any("degenerate" in reason for reason in reasons)

    def test_near_degenerate_pair_passes(self):
        p = validate((0.5 + 1e-12, 0.5 - 1e-12))
        q = validate((0.5, 0.5))
        report = verify_all(DistributionPair(p, q), (-1.0, 0.0, 1.0, 2.0),
                            pair_id="near")
        assert report.all_pass

    @pytest.mark.parametrize("s_list", [(0.0, -0.0), (-0.0, 0.0), (-0.0,)])
    def test_signed_zeros_are_one_s(self, std_pair, s_list):
        # -0.0 == 0.0, so the sign is compared on its own
        records = verify_all(std_pair, s_list, pair_id="std").records
        assert records == verify_all(std_pair, (0.0,), pair_id="std").records
        signs = {math.copysign(1.0, rec.s) for rec in records
                 if rec.s is not None}
        assert signs == {1.0}

    @given(st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=2,
                    max_size=64), st.data())
    @settings(max_examples=100, deadline=None)
    def test_pair_equal_up_to_ulps_skips_interval_entries(self, raw, data):
        """P is Q with a strict subset of its components moved 1-4 ulps,
        all up or all down, so r or R is exactly 1: the pair has no ratio
        interval, every interval entry is skipped and the rest pass."""
        q = validate(raw, renormalize=True)
        n = len(q.values)
        moved = data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                  max_size=n - 1))
        toward = data.draw(st.sampled_from((0.0, math.inf)))
        p = list(q.values)
        for i in moved:
            for _ in range(data.draw(st.integers(1, 4))):
                p[i] = math.nextafter(p[i], toward)
        pair = DistributionPair(validate(p), q)
        assert ratio_bounds(pair) is None
        report = verify_all(pair, DEFAULT_S_LIST)
        assert report.all_pass
        assert {(e.inequality_id, e.reason) for e in report.records
                if e.verdict == "skip"} == {
            (name, "ratio interval degenerate (P = Q)") for name in (
                "abs_chi[m=1]", "abs_chi[m=2]", "abs_chi[m=3]",
                "gap_bounds", "interval_bounds")}
        assert {e.inequality_id for e in report.records
                if e.verdict != "skip"} == {
            "tri_half_le_rel_j_swap", "rel_j_swap_le_chi2_swap",
            "omega_nonneg", "omega_le_e", "e_closed_form_agrees",
            "e_star_closed_form_agrees"}

    def test_gap_entries_skipped_below_minus_one(self, std_pair):
        report = verify_all(std_pair, (-2.0,), pair_id="std")
        assert report.all_pass
        assert any(item.inequality_id == "gap_bounds"
                   and "s >= -1" in item.reason for item in report.records)

    def test_deterministic_ordering(self, std_pair):
        first = verify_all(std_pair, (1.0, -1.0, 0.0), pair_id="std")
        second = verify_all(std_pair, (0.0, 1.0, -1.0), pair_id="std")
        assert first == second
        svals = [e.s for e in first.records]
        assert svals == sorted(svals, key=lambda s: (s is not None, s or 0.0))

    def test_inequality_ids_are_shared(self):
        """Each id is built once: records equal in id hold the same string
        object, across s-values, pairs and calls, P = Q skips included."""
        pair = random_pair(5, 11)
        pairs = (pair, DistributionPair(pair.p, pair.p))
        first = {}
        for each in pairs:
            for rec in verify_all(each, DEFAULT_S_LIST).records:
                kept = first.setdefault(rec.inequality_id, rec.inequality_id)
                assert kept is rec.inequality_id
        # a second call creates no id string of its own
        for each in pairs:
            for rec in verify_all(each, DEFAULT_S_LIST).records:
                assert first[rec.inequality_id] is rec.inequality_id

    def test_non_finite_s_rejected(self, std_pair):
        with pytest.raises(NonFiniteParameter):
            verify_all(std_pair, (0.5, math.nan))

    @given(st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=10**6),
           st.booleans(),
           st.lists(st.sampled_from((-1.5, -1.0, -0.5, 0.0, -0.0, 1e-6, 0.5,
                                     1.0, 1.0 + 1e-6, 2.0, 3.0)),
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_report_sorted_by_s_then_id(self, n, seed, same, s_values):
        """Records come out strictly increasing in (s, inequality_id),
        pair-level rows first, and entries and skips are their checked and
        skipped views: s-lists with duplicates, s = -1.5 (gap bounds
        skipped), s near 0 and 1 (limit regimes), and P = Q (interval
        checks skipped).  The one test that reads the entries, skipped
        and context views; every other test reads the records."""
        pair = random_pair(n, seed)
        if same:
            pair = DistributionPair(pair.p, pair.p)
        report = verify_all(pair, s_values, pair_id="x")

        def key(item):
            return _s_key(item.context.s), item.inequality_id

        keys = [key(rec) for rec in report.records]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert all(rec.context is rec for rec in report.records)
        assert report.entries == tuple(
            rec for rec in report.records if rec.verdict != "skip")
        assert report.skipped == tuple(
            rec for rec in report.records if rec.verdict == "skip")
        assert list(report.entries) == sorted(report.entries, key=key)
        assert list(report.skipped) == sorted(report.skipped, key=key)
        assert len({key(e) for e in report.entries}) == len(report.entries)


@st.composite
def pairs_with_equal_components(draw):
    """Pairs of dimension 2 to 64: a random pair; P made from Q by moving
    a share of one component's mass to another a few times, so the other
    components are equal; or P made from Q by moving a strict subset of its
    components 1-4 ulps, all up or all down, so that P equals Q up to
    rounding and ratio_bounds is None."""
    n = draw(st.integers(2, 64))
    pair = random_pair(n, draw(st.integers(0, 10**6)))
    kind = draw(st.sampled_from(("random", "moved", "ulps")))
    if kind == "random":
        return pair
    p = list(pair.q.values)
    if kind == "moved":
        for _ in range(draw(st.integers(1, max(1, n // 3)))):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2,
                                 max_size=2, unique=True))
            share = draw(st.floats(0.0, 0.9)) * p[j]
            p[i] += share
            p[j] -= share
    else:
        toward = draw(st.sampled_from((0.0, math.inf)))
        for i in draw(st.sets(st.integers(0, n - 1), min_size=1,
                              max_size=n - 1)):
            for _ in range(draw(st.integers(1, 4))):
                p[i] = math.nextafter(p[i], toward)
    return DistributionPair(validate(p), pair.q)


# The edges of both limit bands, the floats next to them, and the limit
# points themselves
_BAND_EDGES = tuple(
    x for edge in (-S_SWITCH, S_SWITCH, 1.0 - S_SWITCH, 1.0 + S_SWITCH)
    for x in (math.nextafter(edge, -math.inf), edge,
              math.nextafter(edge, math.inf))) + (0.0, -0.0, 1.0)

#: Generic s, s inside either band, and s at a band's edge.
S_VALUES = st.one_of(st.floats(-3.0, 4.0),
                     st.floats(-S_SWITCH, S_SWITCH),
                     st.floats(1.0 - S_SWITCH, 1.0 + S_SWITCH),
                     st.sampled_from(_BAND_EDGES))

#: The per-s functions that read the per-pair terms kept on an evaluated
#: pair.
PER_S = (omega_s, e_omega, e_star_omega, e_omega_closed_form,
         e_star_omega_closed_form)

#: The builders of the per-pair terms, read through their module names.
BUILDERS = ((csiszar, "_e_columns"), (type_s, "_omega_column"),
            (csiszar, "_gap_sums"), (bounds, "_e_cf_column"),
            (bounds, "_e_star_cf_column"), (bounds, "_swapped_sums"),
            (bounds, "_e_star_limit_sums"))


def record_calls(monkeypatch, fn):
    """Wrap fn at every divbounds module that holds it, as the benchmark's
    tracer does, and return the list that gets each call's arguments."""
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "divbounds" or name.startswith("divbounds."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)
    return calls


class TestPairTerms:
    """The terms of a pair, kept on a private evaluated pair
    (csiszar._EvaluatedPair): the same bits as a call on the plain pair,
    each s-independent term built once per pair, omega, E and E* once per
    s, and nothing kept on the caller's pair."""

    @given(pairs_with_equal_components(),
           st.lists(S_VALUES, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_evaluated_pair_has_the_same_bits(self, pair, s_values):
        """With one evaluated pair shared across the s-values, each per-s
        function, the two E engine sums and both gap bundles return what
        the same call on the plain pair returns, -0.0 included."""
        evaluated = _EvaluatedPair(pair.p, pair.q)
        rb = ratio_bounds(pair)
        for s in s_values:
            for fn in PER_S:
                assert repr(fn(evaluated, s)) == repr(fn(pair, s)), (
                    fn.__name__, s)
            gen = generator(s)
            for fn in (dragomir_e, dragomir_e_star):
                assert repr(fn(evaluated, gen)) == repr(fn(pair, gen)), (
                    fn.__name__, s)
            if rb is not None and s >= -1.0:
                for target in GapTarget:
                    alone = theorem42_bounds(pair, rb, s, target)
                    assert repr(theorem42_bounds(
                        evaluated, rb, s, target)) == repr(alone), (target, s)
        assert evaluated.terms
        assert evaluated == _EvaluatedPair(pair.p, pair.q)
        assert repr(evaluated) == repr(_EvaluatedPair(pair.p, pair.q))

    @given(pairs_with_equal_components(),
           st.lists(S_VALUES, min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_family_row_matches_calls_value_by_value(self, pair, s_values):
        """A sweep row (_family_at on one evaluated pair) equals omega, E,
        E*, A, B and both gap bundles made one call at a time."""
        rb = ratio_bounds(pair)
        evaluated = _EvaluatedPair(pair.p, pair.q)
        for s in s_values:
            alone = (omega_s(pair, s), e_omega(pair, s), e_star_omega(pair, s))
            if rb is None:
                alone += (None, None, None)
            else:
                alone += (a_omega(rb, s), b_omega(rb, s), None if s < -1.0
                          else tuple(theorem42_bounds(pair, rb, s, target)
                                     for target in GapTarget))
            assert repr(_family_at(evaluated, rb, SParameter(s))) == repr(
                alone), s

    def test_sweep_rows_match_calls_value_by_value(self, tmp_path):
        """The CLI's sweep rows over both limit bands carry the values of
        the same calls made one s at a time."""
        base = random_pair(7, 3)
        moved = list(base.q.values)
        moved[0], moved[1] = moved[0] + 0.5 * moved[1], 0.5 * moved[1]
        pairs = {"a": base, "b": DistributionPair(validate(moved), base.q),
                 "c": DistributionPair(base.q, base.q)}
        src, out = tmp_path / "pairs.json", tmp_path / "rows.jsonl"
        src.write_text(json.dumps({"pairs": [
            {"id": pid, "p": pair.p.values, "q": pair.q.values}
            for pid, pair in pairs.items()]}))
        assert main(["sweep", "--s-min=-2e-5", "--s-max=1.00002",
                     "--s-step=0.0625", "--input", str(src),
                     "--output", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3 * 17
        for row in rows:
            pair, s = pairs[row["pair_id"]], row["s"]
            rb = ratio_bounds(pair)
            expected = [omega_s(pair, s), e_omega(pair, s),
                        e_star_omega(pair, s)]
            if rb is not None:
                expected += [a_omega(rb, s), b_omega(rb, s), *(
                    theorem42_bounds(pair, rb, s, target).minimum
                    for target in GapTarget)]
            assert [row[key] for key in (
                "omega", "e", "e_star", "a", "b", "gap_half_e_bound",
                "gap_e_star_bound")] == expected + [None] * (7 - len(
                    expected)), (row["pair_id"], s)

    @pytest.mark.parametrize("s_values", [
        DEFAULT_S_LIST, tuple(-1.0 + 0.1 * k for k in range(30))],
        ids=["6-values", "30-values"])
    def test_each_term_built_once_per_pair(self, monkeypatch, s_values):
        """One verify_all call evaluates the triangular discrimination,
        J(Q||P), chi2(Q||P) and V once each (the parent of this rule
        evaluated them 3, 3, 2 and 2 times at the default s-list), and
        builds each per-pair column and limit sum once, however many
        s-values it checks."""
        pair = random_pair(16, 5)
        calls = {fn.__name__: record_calls(monkeypatch, fn) for fn in (
            divergences.triangular_discrimination,
            divergences.relative_j_divergence, divergences.chi_squared,
            divergences.total_variation)}
        built = {name: record_calls(monkeypatch, getattr(module, name))
                 for module, name in BUILDERS}
        assert 0.0 in s_values and 1.0 in s_values
        verify_all(pair, s_values)

        def swapped(name):
            return sum(args[0].p is pair.q for args in calls[name])

        assert len(calls["triangular_discrimination"]) == 1
        assert swapped("relative_j_divergence") == 1
        assert swapped("chi_squared") == 1
        assert len(calls["total_variation"]) == 1
        assert {name: len(args) for name, args in built.items()} == {
            name: 1 for name in built}

    def test_sweep_builds_each_term_once_per_pair(self, monkeypatch,
                                                  tmp_path):
        """sweep keeps one evaluated pair per pair across its grid of 13
        points: the omega and E columns and the gap sums, the ones its rows
        read, are built once for each of the three pairs."""
        src, out = tmp_path / "pairs.csv", tmp_path / "rows.jsonl"
        assert main(["gen", "--n", "9", "--count", "3", "--seed", "5",
                     "--output", str(src)]) == 0
        built = {name: record_calls(monkeypatch, getattr(module, name))
                 for module, name in BUILDERS[:3]}
        assert main(["sweep", "--s-min=-1", "--s-max=2", "--s-step=0.25",
                     "--input", str(src), "--output", str(out)]) == 0
        assert {name: len(args) for name, args in built.items()} == {
            name: 3 for name in built}

    def test_omega_and_e_made_once_per_s(self, monkeypatch):
        """One verify_all call at the default s-list makes omega, E and E*
        once at each s: both theorem42_bounds calls of an s read the two
        values they need from the evaluated pair."""
        calls = {fn.__name__: record_calls(monkeypatch, fn)
                 for fn in (omega_s, e_omega, e_star_omega)}
        verify_all(random_pair(16, 5), DEFAULT_S_LIST)
        assert {name: [sp.s for _, sp in args]
                for name, args in calls.items()} == {
            name: sorted(DEFAULT_S_LIST) for name in calls}

    def test_kept_terms_do_not_grow_with_s(self):
        """_family_at over 200 s-values on one evaluated pair keeps one
        value per term, the last: as many kept values as after the first
        s, and the last row the same bits as on a fresh pair."""
        pair = random_pair(9, 5)
        rb = ratio_bounds(pair)
        evaluated = _EvaluatedPair(pair.p, pair.q)
        grid = [SParameter(-1.0 + 0.015 * k) for k in range(200)]
        _family_at(evaluated, rb, grid[0])
        first = len(evaluated.terms)
        for sp in grid[1:]:
            last = _family_at(evaluated, rb, sp)
        assert len(evaluated.terms) == first
        assert repr(last) == repr(_family_at(
            _EvaluatedPair(pair.p, pair.q), rb, grid[-1]))

    def test_verify_all_keeps_nothing_on_the_pair(self):
        """verify_all evaluates a pair of its own: the caller's pair stays a
        plain DistributionPair with the attributes it had."""
        pair = random_pair(16, 5)
        before = dict(vars(pair))
        verify_all(pair, DEFAULT_S_LIST)
        assert type(pair) is DistributionPair
        assert vars(pair) == before

    def test_sweep_keeps_nothing_on_the_pairs(self, monkeypatch, tmp_path):
        """The pairs the CLI holds for the whole run stay plain
        DistributionPairs with the attributes they had: sweep keeps each
        pair's terms only on its own pair for the group."""
        src, out = tmp_path / "pairs.csv", tmp_path / "rows.jsonl"
        assert main(["gen", "--n", "9", "--count", "3", "--seed", "5",
                     "--output", str(src)]) == 0
        load_pairs, held = cli.load_pairs, []

        def load(*args):
            held.extend(load_pairs(*args))
            return held

        monkeypatch.setattr(cli, "load_pairs", load)
        assert main(["sweep", "--s-min=-1", "--s-max=2", "--s-step=0.25",
                     "--input", str(src), "--output", str(out)]) == 0
        assert len(held) == 3
        for _, pair in held:
            assert type(pair) is DistributionPair
            assert set(vars(pair)) == {"p", "q"}
