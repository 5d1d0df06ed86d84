import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferwatt.errors import DimensionMismatch, RankDeficient, ZeroColumn
from inferwatt.numerics import DesignMatrix, column_scale, ols_fit


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

    def test_condition_limit_configurable(self):
        s = np.arange(1.0, 9.0)
        dm = DesignMatrix.from_columns([s, np.ones_like(s)])
        with pytest.raises(RankDeficient):
            ols_fit(dm, s, condition_limit=1.0)


class TestColumnScale:
    def test_unit_columns_get_unit_scales(self):
        dm = DesignMatrix.from_columns([[1.0, -1.0], [0.5, 1.0]])
        _, scales = column_scale(dm)
        assert scales == (1.0, 1.0)

    def test_constant_column_normalized(self):
        dm = DesignMatrix.from_columns([[1000.0, 1000.0, 1000.0]])
        scaled, scales = column_scale(dm)
        assert scales == (1000.0,)
        assert all(v == 1.0 for v in scaled.values)

    def test_zero_column_rejected(self):
        dm = DesignMatrix.from_columns([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ZeroColumn):
            column_scale(dm)


class TestDesignMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            DesignMatrix(rows=1, cols=2, values=(1.0, 2.0))
        with pytest.raises(ValueError):
            DesignMatrix(rows=2, cols=1, values=(1.0,))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DesignMatrix(rows=2, cols=1, values=(1.0, float("nan")))

    def test_values_are_a_read_only_copy_and_as_array_a_view(self):
        source = np.arange(6.0)
        dm = DesignMatrix(rows=3, cols=2, values=source)
        source[0] = 99.0
        assert dm.values.dtype == np.float64 and dm.values.shape == (6,)
        assert dm.values[0] == 0.0
        assert np.shares_memory(dm.as_array(), dm.values)
        with pytest.raises(ValueError):
            dm.values[0] = 1.0
        with pytest.raises(ValueError):
            dm.as_array()[0, 0] = 1.0


well_conditioned = st.lists(
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
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
    scaled, scales = column_scale(dm)
    unscaled = tuple(c / sc for c, sc in zip(ols_fit(scaled, y).coefficients, scales))
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
    residual = y - dm.as_array() @ np.asarray(fit.coefficients)
    for col in dm.as_array().T:
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
