import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divbounds import (
    Distribution,
    DistributionPair,
    RatioBounds,
    random_pair,
    ratio_bounds,
    validate,
)
from divbounds.simplex import (
    DimensionMismatch,
    DimensionTooSmall,
    InvalidRatioBounds,
    NonPositiveComponent,
    SimplexError,
    SumOutOfTolerance,
)


class TestValidate:
    def test_already_valid(self):
        dist = validate((0.5, 0.5))
        assert dist.values == (0.5, 0.5)
        assert dist.n == 2

    def test_renormalize(self):
        dist = validate((1.0, 3.0), renormalize=True)
        assert dist.values == (0.25, 0.75)

    def test_zero_component_rejected(self):
        with pytest.raises(NonPositiveComponent):
            validate((0.5, 0.0))

    def test_negative_component_rejected(self):
        with pytest.raises(NonPositiveComponent):
            validate((1.5, -0.5))

    def test_negative_rejected_before_renormalizing(self):
        # dividing by the negative sum would make both components positive
        with pytest.raises(NonPositiveComponent, match="component 0 is -1.0"):
            validate((-1.0, -3.0), renormalize=True)

    def test_nan_rejected(self):
        with pytest.raises(NonPositiveComponent):
            validate((0.5, float("nan")))

    def test_too_short(self):
        with pytest.raises(DimensionTooSmall):
            validate((1.0,))

    def test_sum_out_of_tolerance(self):
        with pytest.raises(SumOutOfTolerance):
            validate((0.6, 0.6))

    def test_sum_within_tolerance(self):
        dist = validate((0.5 + 4e-10, 0.5 + 4e-10))
        assert dist.n == 2

    @given(st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2,
                    max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, raw):
        """Re-validating a returned distribution succeeds and is equal."""
        dist = validate(raw, renormalize=True)
        again = validate(dist.values)
        assert again.values == dist.values

    # repr of 10**5000 raises on Python 3.11 and later, so the message must
    # not hold the value
    @pytest.mark.parametrize("raw", [
        [None, 1.0], ["x", "y"], [10**400, 1.0], [10**5000, 1], [0.5, {}],
        3, None,
    ])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_unconvertible_input_rejected(self, raw, renormalize):
        with pytest.raises(NonPositiveComponent, match="finite reals"):
            validate(raw, renormalize=renormalize)

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_overflowing_sum_rejected(self, renormalize):
        with pytest.raises(SumOutOfTolerance, match="overflows"):
            validate([1e308, 1e308], renormalize=renormalize)

    def test_overflowing_sum_rejected_on_construction(self):
        with pytest.raises(SumOutOfTolerance):
            Distribution((1e308, 1e308))

    @pytest.mark.parametrize("values", [
        ("a", "b"), (None, 1.0), (10**400, 1), (0.5, 10**5000), (0.5, 0.5j),
    ])
    def test_unconvertible_components_rejected_on_construction(self, values):
        with pytest.raises(NonPositiveComponent, match="finite reals"):
            Distribution(values)

    @given(st.lists(st.none() | st.booleans()
                    | st.integers(min_value=-10**400, max_value=10**400)
                    | st.floats() | st.text(max_size=8), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_any_components_give_distribution_or_simplex_error(self, raw):
        try:
            dist = Distribution(tuple(raw))
        except SimplexError:
            return
        assert isinstance(dist, Distribution)

    @given(st.lists(st.none() | st.booleans()
                    | st.integers(min_value=-10**400, max_value=10**400)
                    | st.floats() | st.text(max_size=8), max_size=6),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_raw_list_gives_distribution_or_simplex_error(
            self, raw, renormalize):
        try:
            dist = validate(raw, renormalize=renormalize)
        except SimplexError:
            return
        assert isinstance(dist, Distribution)


class TestPairsAndRatios:
    def test_pair_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DistributionPair(validate((0.5, 0.5)),
                             validate((0.3, 0.3, 0.4)))

    def test_swapped(self, std_pair):
        sw = std_pair.swapped()
        assert sw.p.values == std_pair.q.values
        assert sw.q.values == std_pair.p.values

    def test_ratio_bounds_standard(self, std_pair):
        rb = ratio_bounds(std_pair)
        assert math.isclose(rb.r, 2.0 / 3.0, rel_tol=1e-15)
        assert rb.R == 2.0

    def test_ratio_bounds_identical_exact(self):
        dist = validate((1 / 3, 1 / 3, 1 / 3), renormalize=True)
        assert ratio_bounds(DistributionPair(dist, dist)) is None

    def test_ratio_bounds_reversal(self):
        pair = DistributionPair(validate((0.1, 0.9)), validate((0.9, 0.1)))
        rb = ratio_bounds(pair)
        assert math.isclose(rb.r, 1.0 / 9.0, rel_tol=1e-15)
        assert math.isclose(rb.R, 9.0, rel_tol=1e-15)

    def test_ratio_bounds_invariant_bulk(self, make_pairs):
        """r <= 1 <= R over ten thousand generated pairs."""
        for pair in make_pairs(10_000, seed=77):
            rb = ratio_bounds(pair)
            assert rb.r <= 1.0 <= rb.R

    @pytest.mark.parametrize("r, R", [(0.0, 2.0), (1.5, 2.0), (0.5, 0.9),
                                      (-0.1, 1.0), (1.0, 1.0), (1.0, 2.0),
                                      (0.5, 1.0), (1.0, math.inf)])
    def test_ratio_bounds_type_invariant(self, r, R):
        with pytest.raises(InvalidRatioBounds):
            RatioBounds(r, R)


class TestRandomPair:
    def test_members_valid(self):
        pair = random_pair(3, seed=42)
        for dist in (pair.p, pair.q):
            assert validate(dist.values).values == dist.values

    def test_deterministic(self):
        first = random_pair(3, seed=42)
        second = random_pair(3, seed=42)
        assert first.p.values == second.p.values
        assert first.q.values == second.q.values

    def test_seeds_differ(self):
        a = random_pair(3, seed=42)
        b = random_pair(3, seed=43)
        assert a.p.values != b.p.values or a.q.values != b.q.values

    def test_invalid_dimension(self):
        for n in (1, 0, -3):
            with pytest.raises(DimensionTooSmall, match=f"got {n}$"):
                random_pair(n, seed=0)

    def test_direct_construction_checks(self):
        with pytest.raises(SumOutOfTolerance):
            Distribution((0.2, 0.2))
