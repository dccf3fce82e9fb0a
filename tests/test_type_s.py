import dataclasses
import inspect
import math
import re
from math import fsum, sqrt

import mpmath
import pytest

from divbounds import (
    DistributionPair,
    Regime,
    SParameter,
    chi_squared,
    csiszar_divergence,
    generator,
    hellinger,
    omega_s,
    phi_s,
    psi_s,
    psi_s_d1,
    psi_s_d2,
    psi_s_d3,
    relative_ag_divergence,
    relative_information,
    relative_js_divergence,
    validate,
)
from divbounds.type_s import NonFiniteParameter, NonPositiveArgument

import oracles
from closed_forms import omega_special_cases

S_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


def close(a, b, rel=1e-12, abs_=1e-14):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


class TestSParameter:
    @pytest.mark.parametrize("s, regime", [
        (0.0, Regime.LIMIT_AT_ZERO),
        (1e-6, Regime.LIMIT_AT_ZERO),
        (-1e-5, Regime.LIMIT_AT_ZERO),
        (1.0, Regime.LIMIT_AT_ONE),
        (1.0 + 5e-6, Regime.LIMIT_AT_ONE),
        (0.5, Regime.GENERIC),
        (-2.0, Regime.GENERIC),
        (2e-5, Regime.GENERIC),
    ])
    def test_regimes(self, s, regime):
        assert SParameter(s).regime is regime

    def test_takes_s_alone_as_float(self):
        assert list(inspect.signature(SParameter).parameters) == ["s"]
        assert SParameter(1).s == 1.0 and type(SParameter(1).s) is float
        assert SParameter(" 0.5 ").s == 0.5
        zero = SParameter(-0.0)
        assert zero.s == 0.0 and math.copysign(1.0, zero.s) == 1.0
        assert zero == SParameter(0.0)
        # every other float is kept as the object it was
        s = 2.5
        assert SParameter(s).s is s

    def test_canonical(self):
        assert SParameter(1e-6).canonical == 0.0
        assert SParameter(1.0 - 1e-6).canonical == 1.0
        assert SParameter(0.5).canonical == 0.5

    def test_canonical_set_with_the_regime(self):
        """canonical is a field set with the regime: 0.0 and 1.0 up to the
        switch points, s itself (the same float) past them."""
        (field,) = (f for f in dataclasses.fields(SParameter)
                    if f.name == "canonical")
        assert not (field.init or field.repr or field.compare)
        for s, canonical in ((-1e-5, 0.0), (1e-5, 0.0), (1.0 - 1e-5, 1.0),
                             (1.0 + 5e-6, 1.0)):
            assert type(SParameter(s).canonical) is float
            assert SParameter(s).canonical == canonical
        for s in (2e-5, 1.00002, -3.7):
            sp = SParameter(s)
            assert sp.regime is Regime.GENERIC and sp.canonical is sp.s

    def test_repr_eq_hash_read_s_and_regime(self):
        """repr, == and hash read s and the regime, nothing more."""
        assert repr(SParameter(0.5)) == (
            "SParameter(s=0.5, regime=<Regime.GENERIC: 'generic'>)")
        assert repr(SParameter(1e-6)) == (
            "SParameter(s=1e-06, regime=<Regime.LIMIT_AT_ZERO: "
            "'limit_at_zero'>)")
        for a, b in ((1, 1.0), ("0.5", 0.5), (-0.0, 0.0), (1e-6, "1e-6")):
            assert SParameter(a) == SParameter(b)
            assert hash(SParameter(a)) == hash(SParameter(b))
        # equal canonical values, different s: different parameters
        assert SParameter(1e-6) != SParameter(0.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, "nan"])
    def test_non_finite_rejected(self, s, std_pair):
        with pytest.raises(NonFiniteParameter):
            SParameter(s)
        with pytest.raises(NonFiniteParameter):
            omega_s(std_pair, s)

    @pytest.mark.parametrize("s, regime, error", [
        (math.nan, Regime.GENERIC, NonFiniteParameter),
        (math.inf, Regime.GENERIC, NonFiniteParameter),
        (-math.inf, Regime.LIMIT_AT_ZERO, NonFiniteParameter),
        (None, Regime.GENERIC, NonFiniteParameter),
        ("x", Regime.GENERIC, NonFiniteParameter),
        ([1.0], Regime.GENERIC, NonFiniteParameter),
        (1j, Regime.GENERIC, NonFiniteParameter),
    ])
    def test_direct_construction_checked(self, s, regime, error):
        """SParameter(s) is the one constructor.  It raises a typed error
        for an s that is not a finite real, and it takes no regime: that
        follows from s, so a parameter that evaluates the wrong branch (the
        s = 0 value at s = 2) cannot be built."""
        with pytest.raises(error):
            SParameter(s)
        with pytest.raises(TypeError):
            SParameter(s, regime)

    @pytest.mark.parametrize("s, message", [
        (None, "not 'NoneType'"),
        ([1.0], "not 'list'"),
        ("x", "could not convert string to float: 'x'"),
        (10**400, "int too large to convert to float"),
    ], ids=["None", "list", "str", "huge-int"])
    def test_non_real_rejected(self, s, message, std_pair):
        """An s that float cannot read is a typed error with float's own
        message, from the constructor and from every evaluation."""
        with pytest.raises(NonFiniteParameter, match=re.escape(message)):
            SParameter(s)
        for fn in (omega_s, phi_s):
            with pytest.raises(NonFiniteParameter):
                fn(std_pair, s)
        for fn in (psi_s, psi_s_d1, psi_s_d2, psi_s_d3):
            with pytest.raises(NonFiniteParameter):
                fn(2.0, s)
        with pytest.raises(NonFiniteParameter):
            generator(s)


class TestPhi:
    def test_golden(self, std_pair):
        assert close(phi_s(std_pair, 2.0), 1.0 / 6.0)
        assert close(phi_s(std_pair, 0.5), 0.13629669484372685)
        assert close(phi_s(std_pair, 0.5), 4.0 * hellinger(std_pair))

    def test_special_cases(self, make_pairs):
        """The five closed special cases against their independent
        base-measure evaluations."""
        for pair in make_pairs(200, seed=51):
            swapped = pair.swapped()
            assert close(phi_s(pair, -1.0), 0.5 * chi_squared(swapped))
            assert close(phi_s(pair, 0.0), relative_information(swapped))
            assert close(phi_s(pair, 0.5), 4.0 * hellinger(pair))
            assert close(phi_s(pair, 1.0), relative_information(pair))
            assert close(phi_s(pair, 2.0), 0.5 * chi_squared(pair))

    def test_swap_dualities(self, make_pairs):
        for pair in make_pairs(100, seed=53):
            swapped = pair.swapped()
            assert close(phi_s(pair, 2.0), phi_s(swapped, -1.0))
            assert close(phi_s(pair, 1.0), phi_s(swapped, 0.0))

    def test_zero_at_equal(self):
        base = validate((0.1, 0.2, 0.7))
        pair = DistributionPair(base, base)
        for s in S_GRID:
            assert phi_s(pair, s) == 0.0


class TestOmega:
    def test_golden(self, std_pair):
        assert close(omega_s(std_pair, -1.0), 1.0 / 30.0)
        assert close(omega_s(std_pair, 2.0), 1.0 / 32.0)
        assert close(omega_s(std_pair, 0.5), 0.03188121493133301)
        assert close(omega_s(std_pair, 0.0), relative_js_divergence(std_pair))
        assert close(omega_s(std_pair, 1.0), relative_ag_divergence(std_pair))

    def test_special_case_table(self, std_pair):
        rows = omega_special_cases(std_pair)
        assert [row.s for row in rows] == [-1.0, 0.0, 0.5, 1.0, 2.0]
        for row in rows:
            assert close(row.family_value, row.reference_value)
        assert close(rows[1].family_value, 0.032269260568785586)
        assert close(rows[3].family_value, 0.03158394240196325)

    def test_special_case_table_bulk(self, make_pairs):
        for pair in make_pairs(300, seed=57):
            for row in omega_special_cases(pair):
                assert close(row.family_value, row.reference_value)

    def test_special_cases_zero_at_equal(self):
        base = validate((0.25, 0.3, 0.45))
        pair = DistributionPair(base, base)
        for row in omega_special_cases(pair):
            assert abs(row.family_value) <= 1e-15
            assert abs(row.reference_value) <= 1e-15

    def test_new_measure_closed_forms(self, make_pairs):
        """The two fractional-parameter members match their displayed
        closed forms."""
        for pair in make_pairs(200, seed=59):
            items = list(zip(pair.p.values, pair.q.values))
            half_neg = (4.0 / 3.0) * (
                fsum(p * sqrt(2.0 * p / (p + q)) for p, q in items) - 1.0)
            two_neg = (1.0 / 6.0) * (
                fsum(p * (2.0 * p / (p + q)) ** 2 for p, q in items) - 1.0)
            assert close(omega_s(pair, -0.5), half_neg, rel=1e-12, abs_=1e-13)
            assert close(omega_s(pair, -2.0), two_neg, rel=1e-12, abs_=1e-13)

    def test_csiszar_consistency(self, make_pairs):
        for pair in make_pairs(300, seed=61):
            for s in S_GRID:
                assert close(omega_s(pair, s),
                             csiszar_divergence(pair, generator(s)))

    def test_continuity_at_removable_points(self, std_pair):
        for s0 in (0.0, 1.0):
            base = omega_s(std_pair, s0)
            for eps in (1e-6, -1e-6):
                assert abs(omega_s(std_pair, s0 + eps) - base) <= (
                    1e-6 * (1.0 + base))

    def test_nonnegativity_bulk(self, make_pairs):
        """omega and phi stay nonnegative across sampled parameters."""
        samples = [-3.0 + 7.0 * (i % 29) / 28.0 for i in range(10_000)]
        for pair, s in zip(make_pairs(10_000, seed=63), samples):
            assert omega_s(pair, s) >= 0.0
            assert phi_s(pair, s) >= 0.0


class TestPsi:
    def test_normalization_exact(self):
        for s in S_GRID:
            assert psi_s(1.0, s) == 0.0

    def test_derivative_goldens(self):
        assert close(psi_s_d1(2.0, 1.0), 0.10615896377410954)
        assert close(psi_s_d2(2.0 / 3.0, 1.0), 0.675)
        assert psi_s_d1(1.0, 0.5) == 0.0

    def test_rejects_nonpositive(self):
        """0, negatives, +-inf and NaN raise with one message, from each
        kernel in every regime and from a generator's maps."""
        message = r"argument must be in \(0, inf\)"
        for s in (-1.0, 1e-6, 0.5, 1.0, 2.0):
            gen = generator(s)
            kernels = [lambda x, fn=fn: fn(x, s)
                       for fn in (psi_s, psi_s_d1, psi_s_d2, psi_s_d3)]
            for fn in (*kernels, gen.fn, gen.d1, gen.d2, gen.d3):
                for x in (0.0, -0.0, -1.0, math.inf, -math.inf, math.nan):
                    with pytest.raises(NonPositiveArgument, match=message):
                        fn(x)

    def test_derivative_chain(self):
        """d1/d2/d3 match central finite differences of the next lower
        order at the probe grid."""
        h = 1e-5
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            for x in (0.3, 0.7, 1.0, 1.6, 3.0):
                fd1 = (psi_s(x + h, s) - psi_s(x - h, s)) / (2.0 * h)
                fd2 = (psi_s_d1(x + h, s) - psi_s_d1(x - h, s)) / (2.0 * h)
                fd3 = (psi_s_d2(x + h, s) - psi_s_d2(x - h, s)) / (2.0 * h)
                assert close(psi_s_d1(x, s), fd1, rel=1e-6, abs_=1e-9)
                assert close(psi_s_d2(x, s), fd2, rel=1e-6, abs_=1e-9)
                assert close(psi_s_d3(x, s), fd3, rel=1e-6, abs_=1e-9)

    def test_convexity_witness(self):
        xs = [10.0 ** (-3 + 6 * i / 24) for i in range(25)]
        ss = [-3.0 + 7.0 * i / 14 for i in range(15)]
        for s in ss:
            for x in xs:
                assert psi_s_d2(x, s) > 0.0

    # psi'' = 0.25 ((1/(x x x)) pow((x + 1)/(2x), c - 2)) at c = canonical.
    # Each float operation is exact times (1 + d), |d| <= u = 2^-53; libm's
    # pow is within 1 ulp, two roundings.  The base carries x + 1 and the
    # quotient (2x is exact), and the power raises both to |c - 2|: 2|c - 2|
    # roundings; pow 2 more; the two products x x x 2, the reciprocal 1 and
    # the product with the power 1; 0.25 is exact.  A rounded divisor gives
    # a factor (1 + d)^-1, just over u from 1, and one spare rounding covers
    # that and the second-order terms: k = 2|c - 2| + 7, 11 at s = 0 and 9
    # at s = 1.
    X_GRID = [10.0 ** (-6 + 12 * i / 2100) for i in range(2101)]

    @pytest.mark.parametrize("s", (0.0, 1.0))
    def test_d2_limits_within_rounding_bound(self, s):
        k = 2 * abs(s - 2.0) + 7
        bound = (1 + mpmath.mpf(2) ** -53) ** k - 1
        for x in self.X_GRID:
            exact = oracles.psi_d2(x, s)
            assert abs(psi_s_d2(x, s) - exact) <= bound * abs(exact), x

    @pytest.mark.parametrize("s", (-1e-6, 1e-6, 1.0 - 1e-6, 1.0 + 1e-6))
    def test_d2_in_band_evaluates_canonical(self, s):
        canonical = SParameter(s).canonical
        for x in self.X_GRID:
            assert psi_s_d2(x, s) == psi_s_d2(x, canonical), x

    def test_third_derivative_sign(self):
        xs = (0.05, 0.3, 1.0, 2.0, 10.0)
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0):
            for x in xs:
                assert psi_s_d3(x, s) <= 0.0
        # below s = -1 the sign flips for small arguments
        assert psi_s_d3(0.1, -4.0) > 0.0

    def test_generator_wraps_family(self, std_pair):
        gen = generator(0.5)
        assert gen.label == "unified_ag_js[s=0.5]"
        assert close(csiszar_divergence(std_pair, gen),
                     omega_s(std_pair, 0.5))


def _psi_d1_reference(x, s):
    """psi_s' written out per call, as the generator evaluated it before
    the per-parameter kernel: the fast path must match it bit for bit."""
    sp = SParameter(s)
    u = (x + 1.0) / (2.0 * x)
    if sp.regime is Regime.LIMIT_AT_ZERO:
        return 0.5 * (1.0 - x) / (1.0 + x) - math.log(u)
    if sp.regime is Regime.LIMIT_AT_ONE:
        return 0.5 * (1.0 - 1.0 / x + math.log(u))
    sv = sp.s
    lu = math.log(u)
    power_term = math.expm1(sv * lu) / sv
    return (power_term + 0.5 * (1.0 - math.exp((sv - 1.0) * lu) / x)) / (sv - 1.0)


class TestFastD1:
    # Every regime, including parameters just inside and outside the limit
    # switch, and ratios at both extremes and on either side of one.
    S_VALUES = (-3.0, -1.0, -0.5, -1e-5, 0.0, 2e-6, 2e-5, 0.5, 1.0 - 2e-5,
                1.0, 1.0 + 1e-5, 2.0, 7.5)
    X_VALUES = (1e-300, 1e-200, 1e-12, 0.01, 0.5, 1.0 - 1e-12, 1.0,
                1.0 + 2.2e-16, 1.0 + 1e-9, 1.5, 100.0, 1e12, 1e200, 1e300)

    @staticmethod
    def outcome(fn, *args):
        # repr tells -0.0 from 0.0 and makes NaN equal to itself; an
        # overflow must happen on both paths alike.
        try:
            return repr(fn(*args))
        except ArithmeticError as exc:
            return type(exc)

    @pytest.mark.parametrize("s", S_VALUES)
    def test_generator_d1_matches_reference(self, s):
        d1 = generator(s).d1
        for x in self.X_VALUES:
            expected = self.outcome(_psi_d1_reference, x, s)
            assert self.outcome(d1, x) == expected, (s, x)
            assert self.outcome(psi_s_d1, x, s) == expected, (s, x)

    @pytest.mark.parametrize("s", (-0.5, 0.0, 1.0))
    @pytest.mark.parametrize("x", (0.0, -1.0, math.inf, math.nan))
    def test_generator_d1_rejects_nonpositive(self, s, x):
        with pytest.raises(NonPositiveArgument,
                           match=r"argument must be in \(0, inf\)"):
            generator(s).d1(x)
