import math

import pytest

from divbounds import (
    DistributionPair,
    GapTarget,
    GeneratorFunction,
    bound_a,
    bound_b,
    chi_squared,
    csiszar_divergence,
    dragomir_e,
    dragomir_e_star,
    generator,
    random_pair,
    ratio_bounds,
    relative_information,
    theorem33_bounds,
    validate,
)
from divbounds.csiszar import (
    GeneratorNotConvex,
    GeneratorNotNormalized,
    SUP_GRID,
    NonMonotoneSecondDerivative,
    _d3_scan,
)

from closed_forms import close
from generators import (
    builtin_generators,
    hellinger_generator,
    kl_generator,
    pearson_chi2_generator,
)


def leq(a, b, tol=1e-10):
    return a <= b + tol


def quartic_generator():
    # convex and normalized, but f''' = 24(x - 1) changes sign at 1
    return GeneratorFunction(
        fn=lambda x: (x - 1.0) ** 4,
        d1=lambda x: 4.0 * (x - 1.0) ** 3,
        d2=lambda x: 12.0 * (x - 1.0) ** 2,
        d3=lambda x: 24.0 * (x - 1.0),
        label="quartic",
    )


def lorentzian_generator(c, w, base, height, curvature):
    """f''' = base + height/(1 + t^2) with t = (x - c)/w, and its exact
    antiderivatives: f'' = curvature + base x + height w atan(t), and so on
    down to f, shifted so that f(1) = 0."""

    def lifts(x):
        # w^k G_k(t), where G_1 = atan and G_k' = G_(k-1)
        t = (x - c) / w
        at, lg = math.atan(t), math.log1p(t * t)
        return (w * at, w * w * (t * at - 0.5 * lg),
                w ** 3 * (0.5 * (t * t - 1.0) * at + 0.5 * t * (1.0 - lg)))

    def fn(x):
        return (0.5 * curvature * x * x + base * x ** 3 / 6.0
                + height * lifts(x)[2])

    shift = fn(1.0)
    return GeneratorFunction(
        fn=lambda x: fn(x) - shift,
        d1=lambda x: curvature * x + 0.5 * base * x * x + height * lifts(x)[1],
        d2=lambda x: curvature + base * x + height * lifts(x)[0],
        d3=lambda x: base + height / (1.0 + ((x - c) / w) ** 2),
        label="lorentzian",
    )


class TestGeneratorConstruction:
    def test_not_normalized(self):
        # f(1) = 1, f(1) = NaN, which is within no tolerance of zero, and an
        # f(1) that cannot be evaluated
        for fn, label, message in (
                (lambda x: x, "affine", r"f\(1\) = 1.0, must vanish"),
                (lambda x: math.nan, "nan", r"f\(1\) = nan, must vanish"),
                (lambda x: 1.0 / (x - 1.0), "pole-at-1",
                 r"^pole-at-1: f\(1\) cannot be evaluated "
                 r"\(ZeroDivisionError: float division by zero\)$")):
            with pytest.raises(GeneratorNotNormalized, match=message):
                GeneratorFunction(fn=fn, d1=lambda x: 1.0,
                                  d2=lambda x: 0.0, d3=lambda x: 0.0,
                                  label=label)

    def test_not_convex(self):
        # f'' < 0 at every probe, and f'' = NaN at the probe 5 alone
        for fn, d1, d2, label, message in (
                (lambda x: -(x - 1.0) ** 2, lambda x: -2.0 * (x - 1.0),
                 lambda x: -2.0, "concave",
                 r"f''\(0.1\) = -2.0, must be >= 0"),
                (lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0),
                 lambda x: math.nan if x == 5.0 else 2.0, "nan-at-5",
                 r"f''\(5.0\) = nan, must be >= 0"),
                # f'' = 1/(x - 2)^2 divides by zero at the probe 2 alone
                (lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0),
                 lambda x: 1.0 / (x - 2.0) ** 2, "pole-at-2",
                 r"^pole-at-2: f''\(2.0\) cannot be evaluated "
                 r"\(ZeroDivisionError: float division by zero\)$")):
            with pytest.raises(GeneratorNotConvex, match=message):
                GeneratorFunction(fn=fn, d1=d1, d2=d2, d3=lambda x: 0.0,
                                  label=label)

    def test_registry_builds(self):
        gens = builtin_generators()
        assert {"kl", "reverse_kl", "pearson_chi2", "hellinger"} <= set(gens)
        assert any(label.startswith("unified_ag_js") for label in gens)


class TestDivergenceAndFunctionals:
    def test_kl_generator_matches_direct(self, std_pair):
        assert close(csiszar_divergence(std_pair, kl_generator()),
                     relative_information(std_pair))

    def test_pearson_generator_matches_chi2(self, std_pair):
        assert close(csiszar_divergence(std_pair, pearson_chi2_generator()),
                     chi_squared(std_pair))

    def test_zero_at_equal_arguments(self):
        base = validate((0.2, 0.3, 0.5))
        pair = DistributionPair(base, base)
        for gen in builtin_generators().values():
            assert csiszar_divergence(pair, gen) == 0.0
            assert dragomir_e(pair, gen) == 0.0
            assert dragomir_e_star(pair, gen) == 0.0

    def test_e_golden(self, std_pair):
        assert close(dragomir_e(std_pair, pearson_chi2_generator()),
                     2.0 * chi_squared(std_pair))


class TestIntervalBounds:
    def test_bound_a_golden(self, std_rb):
        assert close(bound_a(std_rb, generator(1.0)), 0.081529062705668219)
        assert close(bound_a(std_rb, pearson_chi2_generator()), 8.0 / 9.0)

    def test_bound_b_golden(self, std_rb):
        assert close(bound_b(std_rb, pearson_chi2_generator()), 1.0 / 3.0)

    def test_inequality_chain_bulk(self, make_pairs):
        """0 <= C <= E <= A, C <= B, 0 <= B - C <= A for every registry
        generator over ten thousand pairs."""
        gens = list(builtin_generators().values())
        for pair in make_pairs(10_000, seed=31):
            rb = ratio_bounds(pair)
            for gen in gens:
                div = csiszar_divergence(pair, gen)
                e = dragomir_e(pair, gen)
                a = bound_a(rb, gen)
                b = bound_b(rb, gen)
                assert div >= -1e-10
                assert leq(div, e)
                assert leq(e, a)
                assert leq(div, a)
                assert leq(div, b)
                assert leq(0.0, b - div)
                assert leq(b - div, a)

    def test_binary_attainment(self):
        """For two-point pairs the chord bound interpolates the ratios, so
        C equals B."""
        gens = list(builtin_generators().values())
        for seed in range(60):
            pair = random_pair(2, seed=seed)
            rb = ratio_bounds(pair)
            for gen in gens:
                div = csiszar_divergence(pair, gen)
                chord = bound_b(rb, gen)
                assert close(div, chord, rel=1e-12, abs_=1e-15)


class TestGapBounds:
    def test_golden_half_e(self, std_pair, std_rb):
        bundle = theorem33_bounds(std_pair, std_rb, generator(1.0),
                                  GapTarget.HALF_E)
        expected = (0.026388888888888889, 0.05625, 0.12229359405850233)
        for got, want in zip(bundle.candidates, expected):
            assert close(got, want)
        assert close(bundle.minimum, expected[0])
        assert close(bundle.observed, 0.0010105438873376673)
        assert bundle.observed <= bundle.minimum
        assert bundle.curvature_sign == -1

    def test_golden_e_star(self, std_pair, std_rb):
        bundle = theorem33_bounds(std_pair, std_rb, generator(1.0),
                                  GapTarget.E_STAR)
        assert close(bundle.minimum, 0.026388888888888889)
        assert close(bundle.observed, 0.00037875718991848132)
        assert close(bundle.candidates[1], 0.028125)
        assert bundle.observed <= bundle.minimum

    def test_non_monotone_second_derivative(self, std_pair, std_rb):
        with pytest.raises(NonMonotoneSecondDerivative):
            theorem33_bounds(std_pair, std_rb, quartic_generator(),
                             GapTarget.HALF_E)

    def test_sign_change_between_coarse_points(self, std_pair, std_rb):
        """f''' < 0 at each of 33 equally spaced points of [r, R] but > 0
        within w of c, halfway between two of them: the scan over the
        SUP_GRID points, a superset of the 33, sees both signs."""
        r, R = std_rb.r, std_rb.R
        coarse, fine = (R - r) / 32, (R - r) / (SUP_GRID - 1)
        c = r + 15.5 * coarse + 0.3 * fine
        gen = lorentzian_generator(c, 4.0 * fine, -1.0, 2.0, 11.0)
        assert all(gen.d3(r + i * coarse) < -0.5 for i in range(33))
        assert gen.d3(c) == 1.0
        with pytest.raises(NonMonotoneSecondDerivative,
                           match="lorentzian: f''' changes sign on"):
            theorem33_bounds(std_pair, std_rb, gen, GapTarget.HALF_E)

    def test_pearson_gap_is_zero(self, std_pair, std_rb):
        # (x-1)^2 has constant f'', so the curvature candidate vanishes and
        # both gaps are identically zero: the bound is attained.
        for target in GapTarget:
            bundle = theorem33_bounds(std_pair, std_rb,
                                      pearson_chi2_generator(), target)
            assert bundle.candidates[0] == 0.0
            assert abs(bundle.observed) <= 1e-15

    def test_d3_sup_matches_closed_form(self, std_rb):
        # |psi'''| is decreasing for s >= -1, so the grid supremum sits at r
        from divbounds import psi3_sup
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            grid = _d3_scan(generator(s), std_rb.r, std_rb.R)[0]
            assert close(grid, psi3_sup(std_rb, s))

    def test_d3_sup_interior_peak(self, std_rb):
        # |f'''| = 1/(1 + t^2) peaks at c, off the grid: the grid falls
        # short of 1, and only a refinement that moves its lower end up
        # past the grid point below c reaches the peak.
        r, R = std_rb.r, std_rb.R
        step = (R - r) / (SUP_GRID - 1)
        gen = lorentzian_generator(r + 400.3 * step, 0.05, 0.0, -1.0, 1.0)
        grid = max(abs(gen.d3(r + i * step)) for i in range(SUP_GRID))
        assert grid < 1.0 - 1e-6
        assert math.isclose(_d3_scan(gen, r, R)[0], 1.0, rel_tol=1e-12)

    def test_gap_bounds_bulk(self, make_pairs):
        gens = [kl_generator(), hellinger_generator(), generator(-0.5),
                generator(2.0)]
        for pair in make_pairs(300, seed=41):
            rb = ratio_bounds(pair)
            if rb is None:
                continue
            for gen in gens:
                for target in GapTarget:
                    bundle = theorem33_bounds(pair, rb, gen, target)
                    assert bundle.observed <= bundle.minimum + 1e-10
                    for data_term, cap_term in zip(bundle.candidates,
                                                   bundle.cap_candidates):
                        assert data_term <= cap_term + 1e-10


class TestDerivativeConsistency:
    PROBES = (0.2, 0.5, 1.0, 1.5, 2.0, 5.0)
    H = 1e-5

    @staticmethod
    def cfd(fn, x, h):
        return (fn(x + h) - fn(x - h)) / (2.0 * h)

    def test_registry_derivatives(self):
        """Each analytic derivative matches the central finite difference
        of the next lower order."""
        for gen in builtin_generators().values():
            for x in self.PROBES:
                assert close(gen.d1(x), self.cfd(gen.fn, x, self.H),
                             rel=1e-6, abs_=1e-9)
                assert close(gen.d2(x), self.cfd(gen.d1, x, self.H),
                             rel=1e-6, abs_=1e-9)
                assert close(gen.d3(x), self.cfd(gen.d2, x, self.H),
                             rel=1e-6, abs_=1e-9)

    @pytest.mark.parametrize("args", [(1.3, 0.05, 0.0, -1.0, 1.0),
                                      (1.3, 0.005, -1.0, 2.0, 11.0)])
    def test_lorentzian_derivatives(self, args):
        gen = lorentzian_generator(*args)
        h = args[1] * 1e-4
        for x in self.PROBES + (args[0], args[0] + args[1]):
            assert close(gen.d1(x), self.cfd(gen.fn, x, h), rel=1e-6,
                         abs_=1e-9)
            assert close(gen.d2(x), self.cfd(gen.d1, x, h), rel=1e-6,
                         abs_=1e-9)
            assert close(gen.d3(x), self.cfd(gen.d2, x, h), rel=1e-6,
                         abs_=1e-9)
