from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferwatt import numerics
from inferwatt.errors import DimensionMismatch, RankDeficient, ZeroColumn
from inferwatt.numerics import DesignMatrix, ols_fit


def poly_design(s_values):
    s = np.asarray(s_values, dtype=float)
    return DesignMatrix.from_columns([s, s * s, np.ones_like(s)])


class TestOlsFit:
    def test_exact_line(self):
        x = np.arange(5.0)
        dm = DesignMatrix.from_columns([x, np.ones_like(x)])
        fit = ols_fit(dm, 3.0 * x + 5.0)
        assert fit.coefficients[0] == pytest.approx(3.0, abs=1e-9)
        assert fit.coefficients[1] == pytest.approx(5.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_zero_observations_give_zero_fit(self):
        x = np.arange(1.0, 6.0)
        dm = DesignMatrix.from_columns([x, np.ones_like(x)])
        fit = ols_fit(dm, np.zeros(5))
        assert fit.coefficients == (0.0, 0.0)
        assert fit.residual_norm == 0.0

    def test_recovers_quadratic_coefficients_to_1e6_relative(self, coeffs):
        # noiseless samples straight from the reference prefill polynomial
        c = coeffs.prefill_latency
        s = np.arange(100.0, 4001.0, 100.0)
        y = c.alpha * s + c.beta * s * s + c.gamma
        fit = ols_fit(poly_design(s), y)
        for got, want in zip(fit.coefficients, (c.alpha, c.beta, c.gamma)):
            assert abs(got - want) / abs(want) < 1e-6

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(1, 100, 50)
        y = rng.uniform(0, 10, 50)
        first = ols_fit(poly_design(s), y)
        second = ols_fit(poly_design(s), y)
        assert first == second

    def test_dimension_mismatch(self):
        dm = poly_design(np.arange(1.0, 6.0))
        with pytest.raises(DimensionMismatch):
            ols_fit(dm, np.zeros(4))

    def test_rank_deficient_on_duplicate_columns(self):
        s = np.arange(1.0, 9.0)
        dm = DesignMatrix.from_columns([s, s, np.ones_like(s)])
        with pytest.raises(RankDeficient):
            ols_fit(dm, s)

    def test_rank_deficient_when_a_coefficient_overflows(self):
        # s * s is subnormal here: its coefficient leaves the float range,
        # which raises instead of leaking an overflow RuntimeWarning
        s = np.array([0.0, 9.404803506569431e-156, 1.405887128983655e-160,
                      4.7055541223807295e-195, 2.002056214721409e-199,
                      7.176313623735461e-229, 4.0456443599639045e-229,
                      2.3447228984319303e-268])
        with pytest.raises(RankDeficient, match="overflow"):
            ols_fit(poly_design(s), np.arange(8.0))

    def test_condition_limit(self):
        s = np.arange(1.0, 9.0)
        dm = DesignMatrix.from_columns([s, np.ones_like(s)])
        ols_fit(dm, s)
        with mock.patch.object(numerics, "CONDITION_LIMIT", 1.0), pytest.raises(RankDeficient, match="exceeds 1.0e"):
            ols_fit(dm, s)

    def test_zero_column_rejected(self):
        dm = DesignMatrix.from_columns([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ZeroColumn, match=r"columns \[1\]"):
            ols_fit(dm, [1.0, 2.0])

    @pytest.mark.parametrize("column", [0, 1, 2])
    @pytest.mark.parametrize("factor", [2.0**-40, 0.5, 1.0, 2.0**30])
    def test_a_power_of_two_column_factor_divides_its_coefficient_exactly(self, column, factor):
        # columns are scaled to unit max magnitude before the solve, so a
        # column's scale shows only in its own coefficient
        rng = np.random.default_rng(11)
        s = np.arange(1.0, 13.0)
        y = np.sin(s) + rng.normal(0, 0.1, s.size)
        base = ols_fit(poly_design(s), y)
        columns = [s, s * s, np.ones_like(s)]
        columns[column] = columns[column] * factor
        scaled = ols_fit(DesignMatrix.from_columns(columns), y)
        want = list(base.coefficients)
        want[column] /= factor
        assert scaled.coefficients == tuple(want)
        assert (scaled.r_squared, scaled.residual_norm, scaled.condition_estimate) == \
            (base.r_squared, base.residual_norm, base.condition_estimate)

    def test_observations_near_the_float_range(self):
        # their squares overflow the float range; R^2 and the residual norm
        # are still reported, with no numpy warning (an error in this suite)
        rng = np.random.default_rng(5)
        s = np.arange(1.0, 21.0)
        y = 3.0 * s + 5.0 + rng.normal(0, 1, s.size)
        small, big = ols_fit(poly_design(s), y), ols_fit(poly_design(s), y * 2.0**531)  # 2**531 ~ 1.4e160
        assert big.coefficients == tuple(c * 2.0**531 for c in small.coefficients)
        assert big.residual_norm == small.residual_norm * 2.0**531
        assert big.r_squared == pytest.approx(small.r_squared, rel=1e-14)
        constant = ols_fit(poly_design(s), np.full(s.size, 2.0**531))
        assert constant.r_squared == 1.0 and np.isfinite(constant.residual_norm)
        # constant observations that c * s does not match: no skill, at any scale
        for c in (0.75, 0.75 * 2.0**512):
            assert ols_fit(DesignMatrix([[1.0], [2.0]]), [c, c]).r_squared == 0.0
        # observations that square within the float range are not rescaled:
        # these are within the absolute tolerance of a match
        assert ols_fit(DesignMatrix([[1.0], [2.0]]), [1e-20, 1e-20]).r_squared == 1.0
        fit = ols_fit(DesignMatrix([[1.0], [0.0]]), [1.7e308, 0.0])  # near the largest float
        assert (fit.coefficients, fit.r_squared, fit.residual_norm) == ((1.7e308,), 1.0, 0.0)

    def test_a_line_near_the_largest_float(self):
        # q.T @ y overflowed here (a numpy warning, an error in this suite)
        s = np.arange(1.0, 21.0)
        k = 1.5e308 / 61  # the largest observation, 61 * k, is 1.5e308
        fit = ols_fit(DesignMatrix.from_columns([s, np.ones_like(s)]), (3.0 * s + 1.0) * k)
        assert fit.coefficients == pytest.approx((3.0 * k, k), rel=1e-12)
        assert fit.r_squared == 1.0 and np.isfinite(fit.residual_norm)

    @pytest.mark.parametrize("factor", [1e-300, 1e-250, 1e250, 1e300])
    def test_far_from_unit_magnitude_the_fit_is_the_scaled_fit(self, factor):
        # squares of 1e-300 underflowed to 0: R^2 1.0 and residual norm 0.0
        rng = np.random.default_rng(5)
        s = np.arange(1.0, 21.0)
        dm = DesignMatrix.from_columns([s, np.ones_like(s)])
        y = 3.0 * s + 5.0 + rng.normal(0, 1, s.size)
        base, fit = ols_fit(dm, y), ols_fit(dm, y * factor)
        assert base.r_squared < 0.999
        assert fit.r_squared == pytest.approx(base.r_squared, rel=1e-12)
        assert fit.residual_norm == pytest.approx(base.residual_norm * factor, rel=1e-12)
        assert fit.coefficients == pytest.approx([c * factor for c in base.coefficients], rel=1e-12)

    @pytest.mark.parametrize("value", [0.1, 0.3, 1.0, 1 / 3, 0.7, 123.456, 1e-20, 2.0**-200, 6.02e23, 2.0**300])
    def test_constant_observations_the_fit_matches_have_r_squared_1(self, value):
        # the mean of 0.1 rounds, so ss_tot was rounding noise and R^2 0.40
        s = np.arange(1.0, 21.0)
        fit = ols_fit(poly_design(s), np.full(s.size, value))
        assert fit.r_squared == 1.0
        assert fit.coefficients[2] == pytest.approx(value, rel=1e-9)


class TestDesignMatrix:
    @pytest.mark.parametrize("values", [np.ones((1, 2)), np.ones((2, 0)), np.ones(3), np.ones((3, 2, 1)), 1.0])
    def test_shape_validation(self, values):
        with pytest.raises(ValueError, match="rows >= cols >= 1"):
            DesignMatrix(values)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DesignMatrix([[1.0], [float("nan")]])

    def test_array_is_a_read_only_copy(self):
        source = np.arange(6.0).reshape(3, 2)
        dm = DesignMatrix(source)
        source[0, 0] = 99.0
        assert dm.array.dtype == np.float64 and dm.array.shape == (3, 2) and dm.rows == 3
        assert dm.array[0, 0] == 0.0
        with pytest.raises(ValueError):
            dm.array[0, 0] = 1.0

    def test_from_columns_stacks_the_columns(self):
        dm = DesignMatrix.from_columns([[1, 2, 3], [4.0, 5.0, 6.0]])
        assert dm.array.tolist() == [[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]


# Points on a 0.1 grid in [-50, 50]: any 8 distinct ones give [s, s^2, 1] a
# column-scaled condition below 1e6. Arbitrary floats are not well
# conditioned: [0, 1, 1e-156, 1e-160, ...] makes s and s^2 collinear.
well_conditioned = st.lists(
    st.integers(min_value=-500, max_value=500).map(lambda i: i / 10),
    min_size=8, max_size=20, unique=True,
)
coefficients = st.tuples(
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
    st.floats(min_value=-10, max_value=10),
)


@settings(max_examples=60, deadline=None)
@given(xs=well_conditioned, beta=coefficients)
def test_scaling_round_trip_reproduces_unscaled_fit(xs, beta):
    s = np.asarray(xs)
    dm = poly_design(s)
    y = beta[0] * s + beta[1] * s * s + beta[2]
    direct = ols_fit(dm, y).coefficients
    scales = np.max(np.abs(dm.array), axis=0)
    unscaled = ols_fit(DesignMatrix(dm.array / scales), y).coefficients / scales
    for a, b in zip(direct, unscaled):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(xs=well_conditioned)
def test_residual_orthogonal_to_design_columns(xs):
    rng = np.random.default_rng(len(xs))
    s = np.asarray(xs)
    dm = poly_design(s)
    y = np.sin(s) + rng.normal(0, 0.1, s.size)
    fit = ols_fit(dm, y)
    residual = y - dm.array @ np.asarray(fit.coefficients)
    for col in dm.array.T:
        bound = 1e-6 * (np.linalg.norm(col) * np.linalg.norm(residual) + 1e-30)
        assert abs(col @ residual) <= bound


@settings(max_examples=40, deadline=None)
@given(xs=well_conditioned)
def test_duplicating_the_dataset_keeps_the_minimizer(xs):
    s = np.asarray(xs)
    y = np.cos(s)
    one = ols_fit(poly_design(s), y).coefficients
    two = ols_fit(poly_design(np.concatenate([s, s])), np.concatenate([y, y])).coefficients
    for a, b in zip(one, two):
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
