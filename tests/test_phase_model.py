import warnings
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferwatt.errors import (
    ConfigError,
    InferwattError,
    InsufficientSamples,
    ModelOutOfRangeWarning,
    RankDeficient,
)
from inferwatt.numerics import DesignMatrix, ols_fit
from inferwatt.phase_model import (
    CoefficientSet,
    DecodeEnergyCoeffs,
    DecodeLatencyCoeffs,
    FitSamples,
    PrefillEnergyCoeffs,
    PrefillLatencyCoeffs,
    eval_decode_energy,
    eval_decode_latency,
    eval_prefill_energy,
    eval_prefill_latency,
    fit_decode_energy,
    fit_decode_latency,
    fit_prefill_energy,
    fit_prefill_latency,
    format_coefficients,
    parse_coefficients,
)
from inferwatt.roofline import Phase, energy_from_power
from inferwatt.traces import RunKind, RunTable, decompose, synthesize_trace, to_fit_samples
from inferwatt.traces import _RunFields as Run


class TestPrefillLatencyEval:
    def test_intercept_at_zero(self, coeffs):
        assert eval_prefill_latency(coeffs.prefill_latency, 0) == pytest.approx(1.68e-2)

    def test_at_1000_tokens(self, coeffs):
        # 0.318 + 0.0117 + 0.0168
        assert eval_prefill_latency(coeffs.prefill_latency, 1000) == pytest.approx(0.3465, abs=1e-12)

    def test_quadratic_term_overtakes_linear_at_30k(self, coeffs):
        c = coeffs.prefill_latency
        assert c.beta * 30000**2 == pytest.approx(10.53, rel=1e-3)
        assert c.alpha * 30000 == pytest.approx(9.54, rel=1e-3)
        assert c.beta * 30000**2 > c.alpha * 30000

    def test_rejects_negative_s(self, coeffs):
        with pytest.raises(ValueError):
            eval_prefill_latency(coeffs.prefill_latency, -1)

    def test_linear_quadratic_crossover_at_27180(self, coeffs):
        c = coeffs.prefill_latency
        crossover = c.alpha / c.beta  # where beta*s^2 == alpha*s
        assert crossover == pytest.approx(27180, abs=1)
        assert crossover < 30000


class TestDecodeLatencyEval:
    def test_at_1000_by_100(self, coeffs):
        # eta*g + theta*s*g + phi*g^2 + rho with the reference values:
        # 2.61 + 0.0331 + 5.86e-4 - 0.0532 = 2.590486
        value = eval_decode_latency(coeffs.decode_latency, 1000, 100)
        assert value == pytest.approx(2.610 + 0.0331 + 5.86e-4 - 0.0532, abs=1e-12)
        assert value == pytest.approx(2.590486, abs=1e-6)

    def test_tiny_inputs_flagged_out_of_range(self, coeffs):
        with pytest.warns(ModelOutOfRangeWarning):
            value = eval_decode_latency(coeffs.decode_latency, 1, 1)
        assert value < 0

    def test_quadratic_term_negligible_for_short_outputs(self, coeffs):
        c = coeffs.decode_latency
        for g in range(1, 257):
            assert c.phi * g * g < 0.01 * c.eta * g


class TestEnergyEval:
    def test_prefill_intercept(self, coeffs):
        assert eval_prefill_energy(coeffs.prefill_energy, 0) == pytest.approx(5.00e-3)

    def test_prefill_at_1000(self, coeffs):
        assert eval_prefill_energy(coeffs.prefill_energy, 1000) == pytest.approx(6.55e-2)

    def test_prefill_linearity(self, coeffs):
        c = coeffs.prefill_energy
        for s in (10, 500, 1700):
            delta = eval_prefill_energy(c, 2 * s) - eval_prefill_energy(c, s)
            assert delta == pytest.approx(c.a * s)

    def test_decode_at_1000_by_100(self, coeffs):
        # 0.213 + 0.0287 - 0.00471
        assert eval_decode_energy(coeffs.decode_energy, 1000, 100) == pytest.approx(0.23699, abs=1e-12)

    def test_decode_weak_prompt_dependence(self, coeffs):
        assert eval_decode_energy(coeffs.decode_energy, 100, 100) == pytest.approx(0.21116, abs=1e-12)

    def test_decode_tiny_inputs_flagged(self, coeffs):
        with pytest.warns(ModelOutOfRangeWarning):
            assert eval_decode_energy(coeffs.decode_energy, 1, 1) < 0


class TestEnergyFromPower:
    def test_unit_conversion(self, hw):
        assert energy_from_power(Phase.PREFILL, 3600.0, hw) == pytest.approx(684.0)

    def test_zero_time(self, hw):
        assert energy_from_power(Phase.DECODE, 0.0, hw) == 0.0

    def test_linear_in_time(self, hw):
        one = energy_from_power(Phase.DECODE, 1.0, hw)
        assert energy_from_power(Phase.DECODE, 7.5, hw) == pytest.approx(7.5 * one)

    def test_cross_model_consistency_at_1000_tokens(self, coeffs, hw):
        t = eval_prefill_latency(coeffs.prefill_latency, 1000)
        from_power = energy_from_power(Phase.PREFILL, t, hw)
        from_fit = eval_prefill_energy(coeffs.prefill_energy, 1000)
        assert from_power == pytest.approx(6.58e-2, abs=5e-4)
        assert abs(from_power - from_fit) / from_fit < 0.01


class TestPowerScaledCoefficients:
    """Each fitted energy coefficient against the matching latency coefficient
    scaled by P_phase / 3600, and fitted energy against power times fitted
    latency, on the bundled coefficients and hardware."""

    def test_prefill_slope_pair_agrees(self, coeffs, hw):
        implied = hw.p_prefill / 3600 * coeffs.prefill_latency.alpha
        assert implied == pytest.approx(6.042e-5, rel=1e-3)
        assert abs(coeffs.prefill_energy.a / implied - 1) == pytest.approx(0.0013, abs=2e-4)

    def test_decode_slope_pair_agrees(self, coeffs, hw):
        implied = hw.p_decode / 3600 * coeffs.decode_latency.eta
        assert implied == pytest.approx(2.124e-3, rel=1e-3)
        assert abs(coeffs.decode_energy.c / implied - 1) == pytest.approx(0.0027, abs=3e-4)

    def test_decode_context_slope_pair_10x(self, coeffs, hw):
        implied = hw.p_decode / 3600 * coeffs.decode_latency.theta
        assert implied == pytest.approx(2.694e-8, rel=1e-3)
        assert coeffs.decode_energy.d / implied == pytest.approx(10.65, rel=1e-2)

    def test_prefill_intercept_pair_deviates(self, coeffs, hw):
        implied = hw.p_prefill / 3600 * coeffs.prefill_latency.gamma
        assert abs(coeffs.prefill_energy.b / implied - 1) == pytest.approx(0.566, abs=5e-3)

    def test_decode_intercept_pair_deviates(self, coeffs, hw):
        implied = hw.p_decode / 3600 * coeffs.decode_latency.rho
        assert abs(coeffs.decode_energy.g_intercept / implied - 1) == pytest.approx(0.088, abs=5e-3)

    @pytest.mark.parametrize("s,prefill,decode_82,decode_1000", [
        (900, 1.001, 1.112, 1.109),
        (9000, 0.756, 2.012, 1.989),
        (30000, 0.477, 3.709, 3.660),
    ])
    def test_energy_over_power_times_latency(self, coeffs, hw, s, prefill, decode_82, decode_1000):
        # agreement near the chat regime, growing apart with context
        def ratio(energy, latency, power, *args):
            return energy(*args) / (power * latency(*args) / 3600)

        assert ratio(coeffs.prefill_energy, coeffs.prefill_latency, hw.p_prefill, s) == pytest.approx(prefill, rel=1e-3)
        for g, expect in ((82, decode_82), (1000, decode_1000)):
            assert ratio(coeffs.decode_energy, coeffs.decode_latency, hw.p_decode, s, g) == \
                pytest.approx(expect, rel=1e-3)


NOISY_SEED = 42


def synth_samples(plan, coeffs, noise=0.0, seed=0):
    """Fit samples from a synthetic trace, selected as `inferwatt fit` selects
    them: prefill-only runs give the g = 0 samples, and the decompositions'
    subtracted decode costs give the g >= 1 ones."""
    records = synthesize_trace(plan, coeffs, noise=noise, seed=seed)
    return to_fit_samples(records, decompose(records)[0])


def rows(samples):
    """The samples as (s, g, t, energy_wh) tuples of Python floats."""
    return list(zip(samples.s.tolist(), samples.g.tolist(), samples.t.tolist(), samples.energy_wh.tolist()))


def prefill_plan(rng, n):
    return [(int(s), 0) for s in rng.integers(100, 4001, n)]


def decode_plan(rng, n):
    # g >= 3 keeps the decode polynomial positive (the negative intercept
    # makes g <= 2 predictions out of range)
    return [(int(s), int(g)) for s, g in zip(rng.integers(100, 4001, n), rng.integers(3, 257, n))]


class TestFits:
    def test_noiseless_prefill_latency_recovery(self, coeffs):
        samples = synth_samples(prefill_plan(np.random.default_rng(1), 200), coeffs)
        fitted, fit = fit_prefill_latency(samples)
        c = coeffs.prefill_latency
        for got, want in zip((fitted.alpha, fitted.beta, fitted.gamma), (c.alpha, c.beta, c.gamma)):
            assert abs(got - want) / abs(want) < 1e-6
        assert fit.r_squared == pytest.approx(1.0)

    def test_noiseless_decode_latency_recovery(self, coeffs):
        samples = synth_samples(decode_plan(np.random.default_rng(2), 200), coeffs)
        fitted, _ = fit_decode_latency(samples)
        c = coeffs.decode_latency
        for got, want in zip((fitted.eta, fitted.theta, fitted.phi, fitted.rho),
                             (c.eta, c.theta, c.phi, c.rho)):
            assert abs(got - want) / abs(want) < 1e-6

    def test_noiseless_energy_recovery(self, coeffs):
        rng = np.random.default_rng(3)
        pre = synth_samples(prefill_plan(rng, 100), coeffs)
        dec = synth_samples(decode_plan(rng, 100), coeffs)
        fitted_pre, _ = fit_prefill_energy(pre)
        fitted_dec, _ = fit_decode_energy(dec)
        assert abs(fitted_pre.a - coeffs.prefill_energy.a) / coeffs.prefill_energy.a < 1e-6
        assert abs(fitted_pre.b - coeffs.prefill_energy.b) / coeffs.prefill_energy.b < 1e-6
        assert abs(fitted_dec.c - coeffs.decode_energy.c) / coeffs.decode_energy.c < 1e-6
        assert abs(fitted_dec.d - coeffs.decode_energy.d) / coeffs.decode_energy.d < 1e-6
        assert abs(fitted_dec.g_intercept - coeffs.decode_energy.g_intercept) \
            / abs(coeffs.decode_energy.g_intercept) < 1e-6

    def test_noisy_recovery_within_5_percent(self, coeffs):
        rng = np.random.default_rng(7)
        pre = synth_samples(prefill_plan(rng, 500), coeffs, noise=0.01, seed=NOISY_SEED)
        dec = synth_samples(decode_plan(rng, 500), coeffs, noise=0.01, seed=NOISY_SEED + 1)
        alpha = fit_prefill_latency(pre)[0].alpha
        eta = fit_decode_latency(dec)[0].eta
        a = fit_prefill_energy(pre)[0].a
        c = fit_decode_energy(dec)[0].c
        assert abs(alpha / coeffs.prefill_latency.alpha - 1) < 0.05
        assert abs(eta / coeffs.decode_latency.eta - 1) < 0.05
        assert abs(a / coeffs.prefill_energy.a - 1) < 0.05
        assert abs(c / coeffs.decode_energy.c - 1) < 0.05

    def test_two_samples_insufficient(self):
        samples = FitSamples(s=[100, 200], g=[0, 0], t=[0.05, 0.08])
        with pytest.raises(InsufficientSamples):
            fit_prefill_latency(samples)

    def test_constant_prompt_length_is_rank_deficient(self):
        samples = FitSamples(s=[500] * 10, g=[0] * 10, t=[0.1 + 0.01 * i for i in range(10)])
        with pytest.raises(RankDeficient):
            fit_prefill_latency(samples)

    def test_shared_output_length_is_rank_deficient(self, coeffs):
        # one g value makes the g, g^2, and intercept columns collinear
        samples = synth_samples([(s, 64) for s in range(100, 1100, 100)], coeffs)
        with pytest.raises(RankDeficient):
            fit_decode_latency(samples)

    def test_constant_energy_gives_zero_slope(self):
        samples = FitSamples(s=[100 * i for i in range(1, 6)], g=[0] * 5, t=[0.1] * 5, energy_wh=[0.5] * 5)
        fitted, _ = fit_prefill_energy(samples)
        assert fitted.a == pytest.approx(0.0, abs=1e-12)
        assert fitted.b == pytest.approx(0.5)

    def test_raw_fit_keeps_unphysical_signs_but_flags_them(self):
        # decreasing latencies force a negative slope; the fit must return
        # it raw rather than clamping
        samples = FitSamples(s=[100, 200, 300, 400], g=[0] * 4, t=[1.0, 0.8, 0.6, 0.45])
        fitted, _ = fit_prefill_latency(samples)
        assert fitted.alpha < 0
        assert not fitted.is_physical


class TestSynthGenerate:
    def test_zero_noise_round_trips_exactly(self, coeffs):
        plan = [(100, 0), (200, 0), (400, 16), (800, 64)]
        samples = synth_samples(plan, coeffs)
        # every point has prefill-only runs; g >= 1 points add a decode sample
        assert [(s, g) for s, g, _, _ in rows(samples)] == [(s, 0) for s, _ in plan] + plan[2:]
        for s, g, t, energy_wh in rows(samples):
            if g == 0:
                assert t == eval_prefill_latency(coeffs.prefill_latency, s)
                assert energy_wh == eval_prefill_energy(coeffs.prefill_energy, s)
            else:  # decode values are full minus prefill-only: not bitwise
                assert t == pytest.approx(eval_decode_latency(coeffs.decode_latency, s, g), rel=1e-12)
                assert energy_wh == pytest.approx(eval_decode_energy(coeffs.decode_energy, s, g), rel=1e-12)

    def test_same_seed_identical(self, coeffs):
        plan = decode_plan(np.random.default_rng(5), 50)
        assert rows(synth_samples(plan, coeffs, 0.02, seed=9)) == rows(synth_samples(plan, coeffs, 0.02, seed=9))

    def test_noise_level_matches_request(self, coeffs):
        plan = [(1000, 0)] * 10000
        samples = synth_samples(plan, coeffs, noise=0.01, seed=123)
        truth = eval_prefill_latency(coeffs.prefill_latency, 1000)
        ratios = samples.t / truth - 1.0
        assert abs(float(np.std(ratios)) - 0.01) < 0.001


small = st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False)


@settings(max_examples=30, deadline=None)
@given(alpha=small, beta=st.floats(min_value=1e-10, max_value=1e-7),
       gamma=st.floats(min_value=0.0, max_value=0.5))
def test_any_prefill_polynomial_survives_refit(alpha, beta, gamma):
    coeffs = CoefficientSet(
        prefill_latency=PrefillLatencyCoeffs(alpha, beta, gamma + 1e-3),
        prefill_energy=PrefillEnergyCoeffs(1e-5, 1e-3),
    )
    samples = synth_samples([(s, 0) for s in range(100, 4100, 200)], coeffs)
    fitted, _ = fit_prefill_latency(samples)
    assert fitted.alpha == pytest.approx(alpha, rel=1e-6, abs=1e-15)
    assert fitted.beta == pytest.approx(beta, rel=1e-6, abs=1e-18)
    assert fitted.gamma == pytest.approx(gamma + 1e-3, rel=1e-6, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(s1=st.integers(min_value=0, max_value=5000), s2=st.integers(min_value=0, max_value=5000))
def test_prefill_latency_monotone_for_physical_coefficients(coeffs, s1, s2):
    lo, hi = sorted((s1, s2))
    c = coeffs.prefill_latency
    assert eval_prefill_latency(c, lo) <= eval_prefill_latency(c, hi)


@settings(max_examples=30, deadline=None)
@given(s=st.integers(min_value=1, max_value=4000),
       g1=st.integers(min_value=10, max_value=300), g2=st.integers(min_value=10, max_value=300))
def test_decode_latency_monotone_in_g(coeffs, s, g1, g2):
    lo, hi = sorted((g1, g2))
    c = coeffs.decode_latency
    assert eval_decode_latency(c, s, lo) <= eval_decode_latency(c, s, hi)


class TestCoefficientFiles:
    def test_round_trip(self, coeffs):
        text = format_coefficients(coeffs, header="round trip")
        parsed = parse_coefficients(text)
        assert parsed == coeffs

    def test_partial_set_allowed(self):
        parsed = parse_coefficients("prefill_energy.a = 1e-5\nprefill_energy.b = 2e-3\n")
        assert parsed.prefill_energy == PrefillEnergyCoeffs(1e-5, 2e-3)
        assert parsed.decode_latency is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_coefficients("prefill_latency.zeta = 1.0\n")

    def test_incomplete_group_rejected(self):
        with pytest.raises(ConfigError):
            parse_coefficients("prefill_latency.alpha = 1e-4\n")

    def test_bundled_reference_values(self, coeffs):
        assert coeffs.prefill_latency == PrefillLatencyCoeffs(3.18e-4, 1.17e-8, 1.68e-2)
        assert coeffs.decode_latency == DecodeLatencyCoeffs(2.61e-2, 3.31e-7, 5.86e-8, -5.32e-2)
        assert coeffs.prefill_energy == PrefillEnergyCoeffs(6.05e-5, 5.00e-3)
        assert coeffs.decode_energy == DecodeEnergyCoeffs(2.13e-3, 2.87e-7, -4.71e-3)


class TestSampleValidation:
    def test_sample_invariants(self):
        with pytest.raises(ValueError, match="s must be >= 1"):
            FitSamples([0], [0], [1.0])
        with pytest.raises(ValueError, match="g must be >= 0"):
            FitSamples([1], [-1], [1.0])
        with pytest.raises(ValueError, match="t must be positive"):
            FitSamples([1], [0], [0.0])

    @pytest.mark.parametrize("column", ["s", "g", "t"])
    def test_nan_rejected(self, column):
        values = {"s": [5.0, 6.0], "g": [0.0, 3.0], "t": [0.5, 0.7]}
        values[column][1] = float("nan")
        with pytest.raises(ValueError, match=f"{column} must be"):
            FitSamples(**values)

    @pytest.mark.parametrize("lengths", [(2, 2, 3, None), (2, 1, 2, None), (2, 2, 2, 1), (2, 2, 2, 3)])
    def test_unequal_lengths_rejected(self, lengths):
        s, g, t, e = ([1.0] * n if n is not None else None for n in lengths)
        with pytest.raises(ValueError, match="equal length"):
            FitSamples(s, g, t, e)

    def test_columns_are_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            FitSamples([[1.0, 2.0]], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ValueError, match="1-D"):
            FitSamples(1.0, 0.0, 1.0)

    def test_columns_are_read_only_float_copies(self):
        s = np.array([100, 200])
        samples = FitSamples(s, [0, 4], [0.5, 1.5], energy_wh=None)
        s[0] = 7
        assert samples.s.tolist() == [100.0, 200.0] and samples.s.dtype == np.float64
        assert samples.energy_wh is None
        with pytest.raises(ValueError):
            samples.t[0] = 1.0

    def test_nonfinite_coefficients_rejected(self):
        with pytest.raises(ValueError):
            PrefillLatencyCoeffs(float("nan"), 0.0, 0.0)
        with pytest.raises(ValueError):
            DecodeEnergyCoeffs(1.0, float("inf"), 0.0)


# --- the family classes against the hand-written polynomials they replaced ---

# The four polynomials as eval_* and fit_* wrote them out before the
# coefficient classes defined them; evaluation and fitting must match these
# bitwise.
_ORACLE_VALUE = {
    PrefillLatencyCoeffs: lambda c, s, g: c.alpha * s + c.beta * s * s + c.gamma,
    DecodeLatencyCoeffs: lambda c, s, g: c.eta * g + c.theta * s * g + c.phi * g * g + c.rho,
    PrefillEnergyCoeffs: lambda c, s, g: c.a * s + c.b,
    DecodeEnergyCoeffs: lambda c, s, g: c.c * g + c.d * s * g + c.g_intercept,
}
_ORACLE_COLUMNS = {
    PrefillLatencyCoeffs: lambda s, g: [s, s * s, np.ones_like(s)],
    DecodeLatencyCoeffs: lambda s, g: [g, s * g, g * g, np.ones_like(g)],
    PrefillEnergyCoeffs: lambda s, g: [s, np.ones_like(s)],
    DecodeEnergyCoeffs: lambda s, g: [g, s * g, np.ones_like(g)],
}
_OLD_IS_PHYSICAL = {
    PrefillLatencyCoeffs: lambda c: c.alpha >= 0 and c.beta >= 0,
    DecodeLatencyCoeffs: lambda c: c.eta >= 0 and c.theta >= 0 and c.phi >= 0,
    PrefillEnergyCoeffs: lambda c: c.a >= 0,
    DecodeEnergyCoeffs: lambda c: c.c >= 0 and c.d >= 0,
}
_EVAL = {
    PrefillLatencyCoeffs: lambda c, s, g: eval_prefill_latency(c, s),
    DecodeLatencyCoeffs: eval_decode_latency,
    PrefillEnergyCoeffs: lambda c, s, g: eval_prefill_energy(c, s),
    DecodeEnergyCoeffs: eval_decode_energy,
}
_FIT = {
    PrefillLatencyCoeffs: fit_prefill_latency,
    DecodeLatencyCoeffs: fit_decode_latency,
    PrefillEnergyCoeffs: fit_prefill_energy,
    DecodeEnergyCoeffs: fit_decode_energy,
}
FAMILIES = list(_ORACLE_VALUE)
N_COEFFS = {PrefillLatencyCoeffs: 3, DecodeLatencyCoeffs: 4, PrefillEnergyCoeffs: 2, DecodeEnergyCoeffs: 3}
GROUP = {
    PrefillLatencyCoeffs: "prefill_latency", DecodeLatencyCoeffs: "decode_latency",
    PrefillEnergyCoeffs: "prefill_energy", DecodeEnergyCoeffs: "decode_energy",
}


class TestFamiliesMatchTheOldFormulas:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_eval_bitwise_on_a_random_grid(self, coeffs, family):
        c = getattr(coeffs, GROUP[family])
        rng = np.random.default_rng(11)
        s_int = rng.integers(1, 40001, 5000).tolist()
        g_int = rng.integers(1, 5001, 5000).tolist()
        s_float = rng.uniform(1, 40000, 5000).tolist()
        g_float = rng.uniform(1, 5000, 5000).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelOutOfRangeWarning)
            for s, g in zip(s_int + s_float, g_int + g_float):
                assert _EVAL[family](c, s, g) == _ORACLE_VALUE[family](c, s, g)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_call_on_arrays_is_elementwise_bitwise(self, coeffs, family):
        c = getattr(coeffs, GROUP[family])
        rng = np.random.default_rng(12)
        s = rng.uniform(1, 40000, 2000)
        g = rng.uniform(1, 5000, 2000)
        values = c(s, g)
        assert np.array_equal(values, [_ORACLE_VALUE[family](c, a, b) for a, b in zip(s.tolist(), g.tolist())])

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_fit_bitwise_equal_to_hand_written_columns(self, coeffs, family):
        plan = [(s, g) for s in range(200, 4001, 400) for g in (0, 8, 40, 130, 256)]
        samples = synth_samples(plan, coeffs, noise=0.02, seed=5)
        decode = family in (DecodeLatencyCoeffs, DecodeEnergyCoeffs)
        sel = [row for row in rows(samples) if (row[1] >= 1) == decode]
        s = np.array([row[0] for row in sel], dtype=float)
        g = np.array([row[1] for row in sel], dtype=float)
        y = [row[3] if family in (PrefillEnergyCoeffs, DecodeEnergyCoeffs) else row[2] for row in sel]
        want = ols_fit(DesignMatrix.from_columns(_ORACLE_COLUMNS[family](s, g)), y)
        got_coeffs, got = _FIT[family](samples)
        assert got == want
        assert got_coeffs == family(*want.coefficients)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_is_physical_matches_the_old_sign_rules(self, data):
        family = data.draw(st.sampled_from(FAMILIES))
        n = N_COEFFS[family]
        values = data.draw(st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.5e-7]), min_size=n, max_size=n))
        c = family(*values)
        assert c.is_physical == _OLD_IS_PHYSICAL[family](c)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    def test_too_few_samples_is_insufficient(self, coeffs, family):
        plan = [(s, 64 if family in (DecodeLatencyCoeffs, DecodeEnergyCoeffs) else 0)
                for s in (100, 200, 300, 400)]
        with pytest.raises(InsufficientSamples):
            _FIT[family](synth_samples(plan[: N_COEFFS[family] - 1], coeffs))


class TestOutOfRangeWarnings:
    def test_decode_texts_unchanged(self, coeffs):
        with pytest.warns(ModelOutOfRangeWarning) as caught:
            t = eval_decode_latency(coeffs.decode_latency, 1, 1)
            e = eval_decode_energy(coeffs.decode_energy, 1, 1)
        assert [str(w.message) for w in caught] == [
            f"decode latency model returned {t:.4g} s at s=1, g=1; "
            "inputs are outside the fit's validity range",
            f"decode energy model returned {e:.4g} Wh at s=1, g=1; "
            "inputs are outside the fit's validity range",
        ]

    def test_prefill_evaluation_warns_too(self):
        with pytest.warns(ModelOutOfRangeWarning, match="prefill latency model returned -0.01 s at s=0;"):
            assert eval_prefill_latency(PrefillLatencyCoeffs(1e-4, 1e-8, -0.01), 0) == -0.01
        with pytest.warns(ModelOutOfRangeWarning, match="prefill energy model returned -0.002 Wh at s=10;"):
            eval_prefill_energy(PrefillEnergyCoeffs(-1e-4, -1e-3), 10)

    def test_warning_points_at_the_caller(self, coeffs):
        with pytest.warns(ModelOutOfRangeWarning) as caught:
            eval_decode_energy(coeffs.decode_energy, 1, 1)
        assert caught[0].filename == __file__

    def test_positive_values_do_not_warn(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModelOutOfRangeWarning)
            eval_prefill_latency(coeffs.prefill_latency, 900)
            eval_prefill_energy(coeffs.prefill_energy, 900)
            eval_decode_latency(coeffs.decode_latency, 900, 82)
            eval_decode_energy(coeffs.decode_energy, 900, 82)


# --- the fit sample selection before columnar samples, kept as the reference ---


class _OldSample(NamedTuple):
    s: int
    g: int
    t: float
    energy_wh: float | None = None


def _old_energy(energy, component):
    return energy.total if component == "total" else getattr(energy, component)


def _to_fit_samples_oracle(items, component):
    """The former `to_fit_samples`: records one to one; each decomposition a
    prefill sample and, for positive decode latency, a decode sample."""
    samples = []
    for item in items:
        if isinstance(item, Run):
            samples.append(_OldSample(
                item.input_tokens, 0 if item.run_kind is RunKind.PREFILL_ONLY else item.output_tokens,
                item.latency_s,
                item.gpu_wh + item.cpu_wh + item.ram_wh if component == "total" else getattr(item, f"{component}_wh"),
            ))
        else:
            samples.append(_OldSample(item.input_tokens, 0, item.prefill_mean_latency_s,
                                      _old_energy(item.prefill_mean_wh, component)))
            if item.decode_latency_s > 0:
                samples.append(_OldSample(item.input_tokens, item.output_tokens, item.decode_latency_s,
                                          _old_energy(item.decode_wh, component)))
    return samples


def _fit_selection_oracle(records, component):
    """The former selection of `inferwatt fit`: the prefill-only records, then
    the decode samples of the decompositions."""
    prefill = [r for r in records if r.run_kind is RunKind.PREFILL_ONLY]
    decode = [smp for smp in _to_fit_samples_oracle(decompose(records)[0], component) if smp.g >= 1]
    return _to_fit_samples_oracle(prefill, component) + decode


def _fit_oracle(family, samples):
    """The former `_fit`: the rows of the family's phase picked sample by sample."""
    energy = family.what == "energy"
    sel = [smp for smp in samples if (smp.g >= 1 if family.decode else smp.g == 0)
           and not (energy and smp.energy_wh is None)]
    n = len(fields(family))
    if len(sel) < n:
        phase = "decode" if family.decode else "prefill"
        raise InsufficientSamples(f"need >= {n} {phase} {family.what} samples, got {len(sel)}")
    s = np.array([smp.s for smp in sel], dtype=float)
    g = np.array([smp.g for smp in sel], dtype=float)
    y = np.array([smp.energy_wh if energy else smp.t for smp in sel], dtype=float)
    columns = [family(*unit)(s, g) for unit in np.eye(n).tolist()]
    fit = ols_fit(DesignMatrix.from_columns(columns), y)
    return family(*fit.coefficients), fit


def _outcome(fit, samples):
    """repr of the fitted coefficients and FitResult (every bit), or the error."""
    try:
        return repr(fit(samples))
    except InferwattError as exc:
        return type(exc), str(exc)


def _runs(max_latency):
    # repeated latencies give exactly zero decode estimates
    latency = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(min_value=1e-3, max_value=max_latency))
    energies = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=3, max_size=3)
    return st.lists(st.tuples(latency, energies), max_size=3)


# One prompt per group: (s, g, prefill-only runs, full runs); a list can be
# empty (a missing kind), and full runs are drawn longer, so that most but
# not all decode estimates are positive.
_fit_group = st.tuples(st.integers(1, 4000), st.integers(1, 300), _runs(5.0), _runs(20.0))


@settings(max_examples=150, deadline=None)
@given(st.lists(_fit_group, max_size=16))
def test_fit_matches_the_per_sample_selection(groups):
    records = []
    for i, (s, g, prefill, full) in enumerate(groups):
        prompt, model = f"p{i // 2}", f"m{i % 2}"
        records += [Run(prompt, RunKind.PREFILL_ONLY, s, 1, t, *e, model) for t, e in prefill]
        records += [Run(prompt, RunKind.FULL, s, g, t, *e, model) for t, e in full]
    records = records[1::2] + records[::2]  # interleave the groups
    decomps = decompose(records)[0]
    for component in ("gpu", "cpu", "ram", "total"):
        samples = to_fit_samples(RunTable.from_records(records), decomps, component)
        old = _fit_selection_oracle(records, component)
        assert repr(rows(samples)) == repr([(float(x.s), float(x.g), x.t, x.energy_wh) for x in old])
        for family in FAMILIES:
            assert _outcome(_FIT[family], samples) == _outcome(lambda o: _fit_oracle(family, o), old)
