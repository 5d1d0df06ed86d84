import copy
import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferwatt import estimator, phase_model, transformer_costs
from inferwatt.bundled import qwen_family, reference_trace_text
from inferwatt.errors import ModelOutOfRangeWarning
from inferwatt.estimator import (
    DEFAULT_CONTOUR_G,
    AnalyticSource,
    ContourPoint,
    EnergyBreakdown,
    FittedSource,
    ModelComparison,
    ModelComparisonRow,
    WorkloadEntry,
    WorkloadSpec,
    compare_models,
    estimate_interaction,
    estimate_workload,
    fleet_extrapolate,
    led_equivalent_minutes,
)
from inferwatt.phase_model import (
    CoefficientSet,
    DecodeEnergyCoeffs,
    PrefillEnergyCoeffs,
    eval_decode_energy,
    eval_prefill_energy,
)
from inferwatt.roofline import HardwareProfile, Phase, energy_from_power
from inferwatt.traces import aggregate, read_runs
from inferwatt.transformer_costs import (
    ModelSpec,
    decode_step_costs,
    predict_decode_latency,
    predict_prefill_latency,
)


# --- the per-entry scalar path, kept as the reference -----------------------


def _scalar_phase_energies(source, s, g):
    """One interaction's phase energies from the scalar evaluators."""
    if isinstance(source, FittedSource):
        return (eval_prefill_energy(source.coeffs.prefill_energy, s),
                eval_decode_energy(source.coeffs.decode_energy, s, g))
    t_prefill = predict_prefill_latency(source.model, source.hw, s).total_seconds
    t_decode = predict_decode_latency(source.model, source.hw, s, g).total_seconds
    return (energy_from_power(Phase.PREFILL, t_prefill, source.hw),
            energy_from_power(Phase.DECODE, t_decode, source.hw))


def _interaction_oracle(source, s, g):
    if s < 1 or g < 1:
        raise ValueError("need s >= 1 and g >= 1")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ModelOutOfRangeWarning)
        prefill_wh, decode_wh = _scalar_phase_energies(source, s, g)
    notes = tuple(str(w.message) for w in caught if issubclass(w.category, ModelOutOfRangeWarning))
    return EnergyBreakdown(prefill_wh, decode_wh, source.provenance, notes)


def _estimate_workload_oracle(source, workload):
    """estimate_workload as a per-entry loop: one scalar evaluation and one
    warnings block per entry, weighted means as Python sums."""
    per_entry = [(e, _interaction_oracle(source, e.s, e.g)) for e in workload.entries]
    total_weight = sum(e.weight for e in workload.entries)
    prefill = sum(e.weight * b.prefill_wh for e, b in per_entry) / total_weight
    decode = sum(e.weight * b.decode_wh for e, b in per_entry) / total_weight
    notes = tuple(dict.fromkeys(note for _, b in per_entry for note in b.warnings))
    return EnergyBreakdown(prefill, decode, source.provenance, notes), per_entry


def _outcome(fn, *args):
    """fn's result, or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


class TestEstimateInteraction:
    def test_fitted_breakdown_at_reference_point(self, coeffs):
        breakdown = estimate_interaction(FittedSource(coeffs), 1000, 100)
        assert breakdown.prefill_wh == pytest.approx(6.55e-2, abs=1e-12)
        assert breakdown.decode_wh == pytest.approx(0.23699, abs=1e-12)
        assert breakdown.total_wh == pytest.approx(0.30249, abs=1e-12)
        assert not breakdown.warnings

    def test_total_is_exactly_additive(self, coeffs, llama8b, hw):
        for source in (FittedSource(coeffs), AnalyticSource(llama8b, hw)):
            b = estimate_interaction(source, 512, 64)
            assert b.total_wh == b.prefill_wh + b.decode_wh

    def test_out_of_range_warning_propagates_with_totals(self, coeffs):
        breakdown = estimate_interaction(FittedSource(coeffs), 1, 1)
        assert breakdown.warnings
        assert breakdown.total_wh == breakdown.prefill_wh + breakdown.decode_wh

    def test_provenance_recorded(self, coeffs, llama8b, hw):
        assert "fitted" in estimate_interaction(FittedSource(coeffs), 100, 10).provenance
        assert "roofline" in estimate_interaction(AnalyticSource(llama8b, hw), 100, 10).provenance

    def test_analytic_and_fitted_sources_track_each_other(self, coeffs, llama8b, hw):
        # Cross-source agreement over the working grid. The worst corner
        # (s=4000, g=256) sits at ~30.3% because the fitted context slope d
        # is ~10x the power-implied value of theta (pinned in test_phase_model
        # as 10.65x); everywhere else is well inside 30%.
        ana, fit = AnalyticSource(llama8b, hw), FittedSource(coeffs)
        devs = {}
        for s, g in itertools.product([500, 1000, 2000, 4000], [16, 64, 128, 256]):
            a = estimate_interaction(ana, s, g).total_wh
            f = estimate_interaction(fit, s, g).total_wh
            devs[(s, g)] = abs(a - f) / f
        assert max(devs.values()) < 0.31
        assert devs[(4000, 256)] == max(devs.values())
        assert all(d < 0.30 for point, d in devs.items() if point != (4000, 256))
        assert sum(devs.values()) / len(devs) < 0.20


class TestEstimateWorkload:
    def test_single_entry_equals_interaction(self, coeffs):
        source = FittedSource(coeffs)
        mean, per_entry = estimate_workload(source, WorkloadSpec.single(800, 50))
        direct = estimate_interaction(source, 800, 50)
        assert mean.total_wh == pytest.approx(direct.total_wh)
        assert len(per_entry) == 1

    def test_two_equal_weights_average(self, coeffs):
        source = FittedSource(coeffs)
        workload = WorkloadSpec((WorkloadEntry(500, 20), WorkloadEntry(1500, 60)))
        mean, _ = estimate_workload(source, workload)
        a = estimate_interaction(source, 500, 20)
        b = estimate_interaction(source, 1500, 60)
        assert mean.prefill_wh == pytest.approx((a.prefill_wh + b.prefill_wh) / 2)
        assert mean.decode_wh == pytest.approx((a.decode_wh + b.decode_wh) / 2)

    def test_weights_respected(self, coeffs):
        source = FittedSource(coeffs)
        workload = WorkloadSpec((WorkloadEntry(500, 20, weight=3.0), WorkloadEntry(1500, 60, weight=1.0)))
        mean, _ = estimate_workload(source, workload)
        a = estimate_interaction(source, 500, 20)
        b = estimate_interaction(source, 1500, 60)
        assert mean.total_wh == pytest.approx((3 * a.total_wh + b.total_wh) / 4)

    def test_parametric_workload_matches_fixture_scale(self, coeffs):
        # a parametric workload shaped like the bundled reference trace
        # reproduces its measured mean interaction energy to ~10%
        runs, _ = read_runs(reference_trace_text())
        measured = aggregate(runs, phase="full").total_mean
        workload = WorkloadSpec.parametric(900, 50, 82, 6, count=500, seed=11)
        mean, _ = estimate_workload(FittedSource(coeffs), workload)
        assert abs(mean.total_wh - measured) / measured < 0.10

    def test_parametric_deterministic(self):
        a = WorkloadSpec.parametric(900, 50, 82, 6, count=50, seed=5)
        b = WorkloadSpec.parametric(900, 50, 82, 6, count=50, seed=5)
        assert a == b


class TestLedEquivalent:
    def test_reference_interaction(self):
        assert led_equivalent_minutes(0.245) == pytest.approx(2.94, abs=1e-12)

    def test_zero(self):
        assert led_equivalent_minutes(0.0) == 0.0

    def test_unit_identity(self):
        assert led_equivalent_minutes(5.0, led_watts=5.0) == pytest.approx(60.0)

    def test_linear(self):
        assert led_equivalent_minutes(0.490) == pytest.approx(2 * led_equivalent_minutes(0.245))

    def test_overflow_is_loud(self):
        with pytest.raises(OverflowError):
            led_equivalent_minutes(1e308)

    @pytest.mark.parametrize("wh,led_watts", [(math.inf, 5.0), (math.nan, 5.0), (-1.0, 5.0),
                                              (1.0, math.inf), (1.0, math.nan), (1.0, 0.0)])
    def test_nonfinite_or_out_of_range_input_is_rejected(self, wh, led_watts):
        # unchecked, inf W reads as 0.0 minutes and NaN Wh as an overflow
        with pytest.raises(ValueError):
            led_equivalent_minutes(wh, led_watts)


class TestFleetExtrapolate:
    def test_reference_scale(self):
        kwh_day, mwh_year = fleet_extrapolate(0.245, 1e9)
        assert kwh_day == pytest.approx(245000.0)
        assert mwh_year == pytest.approx(245000.0 * 365.25 / 1000)

    def test_zero_interactions(self):
        assert fleet_extrapolate(0.245, 0) == (0.0, 0.0)

    def test_unit_case(self):
        assert fleet_extrapolate(1.0, 1000)[0] == pytest.approx(1.0)

    def test_absurd_inputs_overflow_loudly(self):
        with pytest.raises(OverflowError):
            fleet_extrapolate(1e308, 1e9)

    @pytest.mark.parametrize("wh,per_day", [(math.inf, 0.0), (math.nan, 5.0), (0.245, math.inf),
                                            (0.245, math.nan), (-1.0, 5.0)])
    def test_nonfinite_or_negative_input_is_rejected(self, wh, per_day):
        # unchecked, (inf, 0) and (nan, 5) give (nan, nan)
        with pytest.raises(ValueError):
            fleet_extrapolate(wh, per_day)

    def test_linear_in_energy(self):
        one = fleet_extrapolate(0.1, 1e6)
        two = fleet_extrapolate(0.2, 1e6)
        assert two[0] == pytest.approx(2 * one[0])
        assert two[1] == pytest.approx(2 * one[1])


class TestCompareModels:
    def test_single_spec_single_row(self, llama8b, hw):
        comparison = compare_models([llama8b], hw, WorkloadSpec.single(900, 82))
        assert len(comparison.rows) == 1
        assert comparison.rows[0].n_params == llama8b.n_params

    def test_family_energy_strictly_increasing(self, hw):
        comparison = compare_models(qwen_family(), hw, WorkloadSpec.single(900, 82))
        totals = [r.mean_total_wh for r in comparison.rows]
        assert all(b > a for a, b in zip(totals, totals[1:]))
        params = [r.n_params for r in comparison.rows]
        assert params == sorted(params)

    def test_output_length_band_narrower_than_size_spread(self, hw):
        # varying g from 64 to 256 at fixed size moves energy less than
        # going from the smallest to the largest family member at fixed g
        family = qwen_family()
        comparison = compare_models(family, hw, WorkloadSpec.single(900, 82),
                                    contour_g=(64, 128, 256))
        by_model = {}
        for p in comparison.grid:
            by_model.setdefault(p.name, []).append(p.decode_wh)
        mid = family[2].name
        g_band = max(by_model[mid]) - min(by_model[mid])
        at_g64 = {p.name: p.decode_wh for p in comparison.grid if p.g == 64}
        size_spread = max(at_g64.values()) - min(at_g64.values())
        assert g_band < size_spread

    def test_grid_covers_all_models_and_lengths(self, hw):
        comparison = compare_models(qwen_family(), hw, WorkloadSpec.single(900, 82),
                                    contour_g=(16, 64))
        assert len(comparison.grid) == len(qwen_family()) * 2


class TestWorkloadValidation:
    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(())

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            WorkloadEntry(0, 10)
        with pytest.raises(ValueError):
            WorkloadEntry(10, 10, weight=0.0)
        with pytest.raises(ValueError):
            WorkloadEntry(10, 10, weight=float("inf"))

    def test_fitted_source_needs_energy_families(self, coeffs):
        from inferwatt.errors import InferwattError
        from inferwatt.phase_model import CoefficientSet
        with pytest.raises(InferwattError):
            FittedSource(CoefficientSet(prefill_latency=coeffs.prefill_latency))


# --- one array evaluation against the per-entry loop ------------------------


def _bits(breakdown):
    """Everything a breakdown reports, floats as their exact bit patterns."""
    return (breakdown.prefill_wh.hex(), breakdown.decode_wh.hex(), breakdown.total_wh.hex(),
            breakdown.provenance, breakdown.warnings)


def _assert_matches_oracle(source, workload, rel=None):
    """estimate_workload equals the per-entry loop: bitwise when rel is None,
    else within rel; entries, order and warning texts always exactly."""
    mean, per_entry = estimate_workload(source, workload)
    want_mean, want_entries = _estimate_workload_oracle(source, workload)
    assert [e for e, _ in per_entry] == [e for e, _ in want_entries]
    pairs = [(mean, want_mean)] + [(b, w) for (_, b), (_, w) in zip(per_entry, want_entries)]
    for got, want in pairs:
        if rel is None:
            assert _bits(got) == _bits(want)
        else:
            assert (got.provenance, got.warnings) == (want.provenance, want.warnings)
            for name in ("prefill_wh", "decode_wh", "total_wh"):
                assert getattr(got, name) == pytest.approx(getattr(want, name), rel=rel, abs=0), name
    return mean


workloads = st.lists(
    st.builds(WorkloadEntry, st.integers(1, 30_000), st.integers(1, 5000), st.floats(0.01, 100.0)),
    min_size=1, max_size=30,
).map(lambda entries: WorkloadSpec(tuple(entries)))


@st.composite
def fitted_sources(draw):
    # slopes and intercepts of either sign, so that both phases have rows <= 0
    prefill = PrefillEnergyCoeffs(a=draw(st.floats(-1e-5, 1e-4)), b=draw(st.floats(-0.05, 0.05)))
    decode = DecodeEnergyCoeffs(c=draw(st.floats(-1e-3, 3e-3)), d=draw(st.floats(-1e-7, 3e-7)),
                                g_intercept=draw(st.floats(-0.05, 0.05)))
    return FittedSource(CoefficientSet(prefill_energy=prefill, decode_energy=decode))


@st.composite
def small_models(draw):
    head_dim = draw(st.sampled_from([8, 16, 32, 64]))
    n_heads = draw(st.integers(1, 8))
    return ModelSpec(
        n_layers=draw(st.integers(1, 4)),
        hidden=n_heads * head_dim,
        n_heads=n_heads,
        head_dim=head_dim,
        ffn_dim=draw(st.integers(1, 1024)),
        vocab=draw(st.integers(1, 4000)),
        bytes_per_param=draw(st.sampled_from([0.5, 1.0, 2.0, 4.0])),
        kv_heads=draw(st.sampled_from([d for d in range(1, n_heads + 1) if n_heads % d == 0])),
        gated_ffn=draw(st.booleans()),
        tied_embeddings=draw(st.booleans()),
    )


def _attn_intensity(model, ctx):
    attn = next(c for c in decode_step_costs(model, ctx) if c.label == "attn")
    return attn.flops / attn.bytes


class TestArrayEstimatorMatchesPerEntryLoop:
    @settings(max_examples=60, deadline=None)
    @given(source=fitted_sources(), workload=workloads)
    def test_fitted_source_bitwise(self, source, workload):
        _assert_matches_oracle(source, workload)

    def test_bundled_coefficients_on_a_politeness_mix_bitwise(self, coeffs):
        rng = np.random.default_rng(3)
        s = np.concatenate([rng.integers(300, 1500, 300), rng.integers(1500, 9001, 100)])
        g = np.concatenate([rng.integers(20, 150, 300), rng.integers(1, 9, 100)])
        w = rng.uniform(0.5, 2.0, 400)
        workload = WorkloadSpec(tuple(WorkloadEntry(int(a), int(b), float(c)) for a, b, c in zip(s, g, w)))
        mean = _assert_matches_oracle(FittedSource(coeffs), workload)
        assert mean.warnings  # the short replies after long contexts are flagged

    @settings(max_examples=40, deadline=None)
    @given(model=small_models(), first=st.tuples(st.integers(1, 2000), st.integers(2, 5000)),
           where=st.floats(0.0, 1.0), mu=st.sampled_from([(1.0, 1.0), (0.675, 0.443)]),
           power=st.tuples(st.floats(50.0, 700.0), st.floats(50.0, 700.0)), workload=workloads)
    def test_analytic_source_across_a_crossover(self, model, first, where, mu, power, workload):
        # a device balance between the attention class's first- and last-step
        # intensity of the first entry makes that class change regime inside
        # its generation; the other entries fall on either side
        s, g = first
        lo, hi = _attn_intensity(model, s), _attn_intensity(model, s + g - 1)
        balance = lo + where * (hi - lo)
        b_max = 1e12
        hw = HardwareProfile(f_max=balance * b_max * mu[1] / mu[0], b_max=b_max, mu_comp=mu[0],
                             mu_mem=mu[1], p_prefill=power[0], p_decode=power[1])
        workload = WorkloadSpec((WorkloadEntry(s, g, 1.0),) + workload.entries)
        _assert_matches_oracle(AnalyticSource(model, hw), workload, rel=1e-12)

    def test_bundled_model_on_a_chat_mix(self, llama8b, hw):
        workload = WorkloadSpec.parametric(900, 200, 82, 30, count=200, seed=4)
        _assert_matches_oracle(AnalyticSource(llama8b, hw), workload, rel=1e-12)

    # The errors are pinned as the previous per-entry code raised them.
    @pytest.mark.parametrize("analytic,entries,error", [
        (True, [(900, 82)], "embed step cost is not finite; the model is implausibly large"),
        (True, [(1, 1), (900, 82), (5, 5)], "embed step cost is not finite; the model is implausibly large"),
        (False, [(900, 82)], "energy estimate inf Wh is not finite; inputs are implausibly large"),
        (False, [(1, 1), (900, 82), (5, 5)], "energy estimate inf Wh is not finite; inputs are implausibly large"),
    ])
    def test_overflowing_inputs_raise_the_previous_errors(self, coeffs, llama8b, hw, analytic, entries, error):
        if analytic:
            source = AnalyticSource(ModelSpec(**{**vars(llama8b), "bytes_per_param": 1e308}), hw)
        else:
            source = FittedSource(CoefficientSet(prefill_energy=PrefillEnergyCoeffs(a=1e308, b=0.0),
                                                 decode_energy=coeffs.decode_energy))
        workload = WorkloadSpec(tuple(WorkloadEntry(s, g) for s, g in entries))
        assert _outcome(estimate_workload, source, workload) == (OverflowError, error)

    # 10**300 layers of width 1: the prefill of a 10**4-token prompt
    # overflows while its decode steps do not; decode steps at a 10**8
    # context overflow too. Whichever entry comes first is reported.
    @pytest.mark.parametrize("entries,error", [
        ([(10**4, 1), (10**8, 1)], "energy estimate inf Wh is not finite; inputs are implausibly large"),
        # the previous code formed these counts as Python ints and raised
        # "int too large to convert to float" here
        ([(10**8, 1), (10**4, 1)], "attn step cost is not finite; the model is implausibly large"),
    ])
    def test_an_earlier_entry_that_overflows_is_reported_first(self, hw, entries, error):
        model = ModelSpec(n_layers=10**300, hidden=1, n_heads=1, head_dim=1, ffn_dim=1, vocab=1)
        workload = WorkloadSpec(tuple(WorkloadEntry(s, g) for s, g in entries))
        assert _outcome(estimate_workload, AnalyticSource(model, hw), workload) == (OverflowError, error)

    @pytest.mark.parametrize("s,g", [(0, 5), (5, 0)])
    def test_bad_lengths_raise_the_previous_error(self, coeffs, llama8b, hw, s, g):
        for source in (FittedSource(coeffs), AnalyticSource(llama8b, hw)):
            got = _outcome(estimate_interaction, source, s, g)
            assert got == (ValueError, "need s >= 1 and g >= 1")


@st.composite
def hardware_profiles(draw):
    return HardwareProfile(f_max=draw(st.floats(1e9, 1e16)), b_max=draw(st.floats(1e8, 1e13)),
                           mu_comp=draw(st.floats(0.05, 1.0)), mu_mem=draw(st.floats(0.05, 1.0)),
                           p_prefill=draw(st.floats(1.0, 1000.0)), p_decode=draw(st.floats(1.0, 1000.0)))


def _totals(source, pairs):
    _, entries = estimate_workload(source, WorkloadSpec(tuple(WorkloadEntry(s, g) for s, g in pairs)))
    return [breakdown.total_wh for _, breakdown in entries]


class TestThePapersFindingsOnTheAnalyticSource:
    """Energy per interaction grows with input length, output length and
    model size, on models and devices no fixture pins."""

    @settings(max_examples=80, deadline=None)
    @given(model=small_models(), hw=hardware_profiles(),
           s=st.lists(st.integers(1, 40_000), min_size=2, max_size=10, unique=True),
           g=st.lists(st.integers(1, 4000), min_size=2, max_size=10, unique=True))
    def test_total_is_nondecreasing_in_s_and_in_g(self, model, hw, s, g):
        source = AnalyticSource(model, hw)
        s, g = sorted(s), sorted(g)
        for pairs in ([(x, g[0]) for x in s], [(s[0], y) for y in g]):
            totals = _totals(source, pairs)
            assert totals == sorted(totals), pairs

    @settings(max_examples=80, deadline=None)
    @given(model=small_models(), hw=hardware_profiles(), s=st.integers(1, 40_000), g=st.integers(1, 4000),
           more=st.integers(1, 4))
    def test_total_rises_with_n_layers(self, model, hw, s, g, more):
        deeper = ModelSpec(**{**vars(model), "n_layers": model.n_layers + more})
        [shallow_wh], [deep_wh] = (_totals(AnalyticSource(spec, hw), [(s, g)]) for spec in (model, deeper))
        assert deep_wh > shallow_wh

    @settings(max_examples=80, deadline=None)
    @given(model=small_models(), hw=hardware_profiles(),
           s=st.lists(st.integers(1, 40_000), min_size=2, max_size=10, unique=True))
    def test_a_one_token_reply_costs_more_after_a_longer_prompt(self, model, hw, s):
        # the "thank you" case: at g = 1 the prompt's length alone sets the cost
        totals = _totals(AnalyticSource(model, hw), [(x, 1) for x in sorted(s)])
        assert all(a < b for a, b in zip(totals, totals[1:])), totals

    @settings(max_examples=80, deadline=None)
    @given(model=small_models(), hw=hardware_profiles(), s=st.integers(1, 40_000), g=st.integers(1, 4000),
           more=st.integers(1, 4), wider_heads=st.booleans())
    def test_total_rises_with_hidden(self, model, hw, s, g, more, wider_heads):
        # hidden is n_heads * head_dim: grow the heads' width or their number
        n_heads, head_dim = ((model.n_heads, model.head_dim + more) if wider_heads
                             else (model.n_heads * (1 + more), model.head_dim))
        wider = ModelSpec(**{**vars(model), "n_heads": n_heads, "head_dim": head_dim, "hidden": n_heads * head_dim})
        [narrow_wh], [wide_wh] = (_totals(AnalyticSource(spec, hw), [(s, g)]) for spec in (model, wider))
        assert wide_wh > narrow_wh

    @settings(max_examples=80, deadline=None)
    @given(model=small_models(), hw=hardware_profiles(), s=st.integers(1, 40_000),
           g=st.lists(st.integers(1, 4000), min_size=2, max_size=10, unique=True))
    def test_prefill_share_falls_as_the_reply_grows(self, model, hw, s, g):
        workload = WorkloadSpec(tuple(WorkloadEntry(s, y) for y in sorted(g)))
        _, entries = estimate_workload(AnalyticSource(model, hw), workload)
        shares = [b.prefill_wh / b.total_wh for _, b in entries]
        assert all(a > b for a, b in zip(shares, shares[1:])), shares


class TestPinnedAnalyticEnergies:
    # Figures of the per-token and per-entry scalar code this closed form
    # and array path replaced; any change to the counting rules moves them.
    @pytest.mark.parametrize("s,g,prefill_wh,decode_wh", [
        (900, 82, 0.05882857733028402, 0.1456044100214533),
        (9000, 1, 0.7476919501379602, 0.0018915318295864541),
        (1, 1, 0.004113703721788349, 0.0017621567112338983),
        (30000, 5000, 3.8901876564442075, 11.146874946202022),
    ])
    def test_llama_on_the_reference_profile(self, llama8b, hw, s, g, prefill_wh, decode_wh):
        b = estimate_interaction(AnalyticSource(llama8b, hw), s, g)
        assert (b.prefill_wh, b.decode_wh) == (prefill_wh, decode_wh)

    def test_qwen_family_at_the_reference_point(self, hw):
        want = [(0.004034426782939478, 0.009002129952842261),
                (0.012266069443503926, 0.028032293555751715),
                (0.024351450158701746, 0.05585477603644681),
                (0.05513031794598116, 0.13751942038279932),
                (0.10958710036518986, 0.26741625380200273)]
        got = [estimate_interaction(AnalyticSource(spec, hw), 900, 82) for spec in qwen_family()]
        assert [(b.prefill_wh, b.decode_wh) for b in got] == want


class TestOneEvaluationPerWorkload:
    @pytest.mark.parametrize("n", [1, 10, 2000])
    def test_phase_energies_called_once_and_no_scalar_evaluator(self, coeffs, llama8b, hw,
                                                                 monkeypatch, n):
        calls = []
        for cls in (FittedSource, AnalyticSource):
            real = cls.phase_energies

            def counting(self, s, g, real=real):
                calls.append(len(s))
                return real(self, s, g)

            monkeypatch.setattr(cls, "phase_energies", counting)

        def forbidden(*args, **kwargs):
            raise AssertionError("a per-entry evaluator was called")

        for module in (phase_model, transformer_costs, estimator):
            for name in ("eval_prefill_latency", "eval_decode_latency", "eval_prefill_energy",
                         "eval_decode_energy", "predict_prefill_latency", "predict_decode_latency"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, forbidden)
        # one-token replies: the fitted source flags their decode energy
        workload = WorkloadSpec.parametric(900, 300, 1, 0, count=n, seed=n)
        for source in (FittedSource(coeffs), AnalyticSource(llama8b, hw)):
            calls.clear()
            _, per_entry = estimate_workload(source, workload)
            assert calls == [n]
            assert len(per_entry) == n
        assert all(b.warnings for _, b in estimate_workload(FittedSource(coeffs), workload)[1])


class TestThePerEntryTable:
    """The rows are built from the checked columns, after the one finiteness
    check: the same rows EnergyBreakdown's own check builds."""

    @staticmethod
    def _count_checked_builds(monkeypatch):
        calls = []
        real = EnergyBreakdown.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(EnergyBreakdown, "__new__", counting)
        return calls

    def test_one_checked_build_for_the_mean(self, coeffs, monkeypatch):
        # one-token replies after long prompts: the flagged rows are built too
        workload = WorkloadSpec.parametric(5000, 2000, 1, 3, count=2000, seed=17)
        calls = self._count_checked_builds(monkeypatch)
        mean, per_entry = estimate_workload(FittedSource(coeffs), workload)
        assert len(calls) == 1 and len(per_entry) == 2000
        assert any(b.warnings for _, b in per_entry) and mean.warnings

    @settings(max_examples=60, deadline=None)
    @given(chat=st.lists(st.tuples(st.integers(1, 30_000), st.integers(1, 5000) | st.integers(1, 8)), max_size=20),
           polite=st.lists(st.integers(1500, 8989), min_size=1, max_size=20), data=st.data())
    def test_each_row_is_the_checked_breakdown(self, coeffs, chat, polite, data):
        # the bundled decode energy is < 0 at g = 1 for s up to 8989 (+1.3e-7 Wh at 8990)
        pairs = data.draw(st.permutations(chat + [(s, 1) for s in polite]))
        source = FittedSource(coeffs)
        _, per_entry = estimate_workload(source, WorkloadSpec(tuple(WorkloadEntry(s, g) for s, g in pairs)))
        assert any(b.warnings for _, b in per_entry)  # g = 1 after a long prompt is flagged
        for (entry, row), (s, g) in zip(per_entry, pairs):
            want = _interaction_oracle(source, s, g)  # EnergyBreakdown(p, d, provenance, notes)
            assert (entry.s, entry.g) == (s, g)
            assert type(row) is EnergyBreakdown and row == want and _bits(row) == _bits(want)
            assert row.total_wh.hex() == (row.prefill_wh + row.decode_wh).hex()

    def test_a_non_finite_row_raises_before_any_row_is_built(self, coeffs, monkeypatch):
        # 1e305 Wh per prompt token: the second and fourth prompts overflow
        source = FittedSource(CoefficientSet(prefill_energy=PrefillEnergyCoeffs(a=1e305, b=0.0),
                                             decode_energy=coeffs.decode_energy))
        workload = WorkloadSpec(tuple(WorkloadEntry(s, g) for s, g in [(1, 1), (5000, 1), (900, 82), (9000, 5)]))
        calls = self._count_checked_builds(monkeypatch)
        assert _outcome(estimate_workload, source, workload) == \
            (OverflowError, "energy estimate inf Wh is not finite; inputs are implausibly large")
        assert calls == []

    def test_a_breakdown_built_by_hand_is_checked(self):
        b = EnergyBreakdown(0.1, 0.2, "p", ("w",))
        assert tuple(b) == (0.1, 0.2, "p", ("w",), 0.1 + 0.2)
        assert b._fields == ("prefill_wh", "decode_wh", "provenance", "warnings", "total_wh")
        assert b == EnergyBreakdown(0.1, 0.2, "p", ("w",)) != EnergyBreakdown(0.1, 0.2, "p")
        assert copy.deepcopy(b) == b and pickle.loads(pickle.dumps(b)) == b
        replaced = b._replace(decode_wh=0.5)
        assert replaced == EnergyBreakdown(0.1, 0.5, "p", ("w",)) and replaced.total_wh == 0.1 + 0.5
        assert EnergyBreakdown._make([0.1, 0.2, "p", ("w",)]) == b
        for build in (lambda: EnergyBreakdown(1e308, 1e308), lambda: EnergyBreakdown(math.nan, 0.0),
                      lambda: b._replace(prefill_wh=math.inf), lambda: EnergyBreakdown._make([math.inf, 0.0])):
            with pytest.raises(OverflowError, match="is not finite"):
                build()
        with pytest.raises(TypeError):
            b._replace(total_wh=1.0)  # the total follows prefill and decode


class TestWorkloadColumns:
    def test_columns_hold_the_entries(self):
        workload = WorkloadSpec((WorkloadEntry(500, 20, 3.0), WorkloadEntry(1500, 60)))
        assert workload.s.dtype == np.int64 and workload.s.tolist() == [500, 1500]
        assert workload.g.dtype == np.int64 and workload.g.tolist() == [20, 60]
        assert workload.weight.dtype == np.float64 and workload.weight.tolist() == [3.0, 1.0]

    def test_columns_are_read_only(self):
        workload = WorkloadSpec.single(10, 5)
        for column in (workload.s, workload.g, workload.weight):
            with pytest.raises(ValueError):
                column[0] = 2

    def test_equality_and_hash_follow_the_entries(self):
        a = WorkloadSpec.parametric(900, 50, 82, 6, count=20, seed=1)
        b = WorkloadSpec(a.entries)
        assert a == b and hash(a) == hash(b)
        assert "array" not in repr(a)

    def test_means_are_the_entry_loop_sums(self):
        workload = WorkloadSpec.parametric(900, 200, 82, 30, count=300, seed=2)
        entries = workload.entries
        total = sum(e.weight for e in entries)
        assert workload.mean_s == sum(e.s * e.weight for e in entries) / total
        assert workload.mean_g == sum(e.g * e.weight for e in entries) / total

    @pytest.mark.parametrize("entry", [WorkloadEntry(2.5, 3), WorkloadEntry(3, 1.5)])
    def test_fractional_token_counts_rejected(self, entry):
        with pytest.raises(ValueError, match="whole numbers"):
            WorkloadSpec((entry,))

    @pytest.mark.parametrize("s", [2**63, 2**64, 10**30])
    def test_counts_beyond_int64_overflow(self, s):
        with pytest.raises(OverflowError, match="implausibly large"):
            WorkloadSpec.single(s, 1)

    def test_whole_float_counts_become_integers(self):
        workload = WorkloadSpec((WorkloadEntry(3.0, 4.0),))
        assert workload.s.dtype == np.int64 and workload.s.tolist() == [3]


class TestCompareModelsGrid:
    def test_grid_and_rows_match_the_scalar_path(self, hw):
        family = qwen_family()
        workload = WorkloadSpec((WorkloadEntry(900, 82, 2.0), WorkloadEntry(3000, 7, 0.5)))
        comparison = compare_models(family, hw, workload, contour_g=(1, 16, 4096))
        specs = {spec.name: spec for spec in family}
        grid_s = round(workload.mean_s)
        assert len(comparison.grid) == 3 * len(family)
        for point in comparison.grid:
            t = predict_decode_latency(specs[point.name], hw, grid_s, point.g).total_seconds
            want = energy_from_power(Phase.DECODE, t, hw)
            assert point.decode_wh == pytest.approx(want, rel=1e-12, abs=0)
        for row in comparison.rows:
            want, _ = _estimate_workload_oracle(AnalyticSource(specs[row.name], hw), workload)
            assert row.mean_total_wh == pytest.approx(want.total_wh, rel=1e-12, abs=0)

    def test_contour_lengths_must_be_positive(self, llama8b, hw):
        with pytest.raises(ValueError, match="need s >= 1 and g >= 1"):
            compare_models([llama8b], hw, WorkloadSpec.single(900, 82), contour_g=(16, 0))


# --- compare_models as the per-model loop, kept as the reference -------------


def _compare_oracle(specs, hw, workload, contour_g):
    """compare_models as one source evaluation per model, smallest first, each
    followed by the checks `estimate_workload` makes."""
    mean_tokens = workload.mean_s + workload.mean_g
    grid_s = max(1, int(round(workload.mean_s)))
    n = len(workload.entries)
    s = np.concatenate([workload.s, np.full(len(contour_g), grid_s)])
    g = np.concatenate([workload.g, np.array(contour_g, dtype=np.int64)])
    rows, grid = [], []
    for spec in sorted(specs, key=lambda m: m.n_params):
        source = AnalyticSource(spec, hw)
        prefill, decode, _ = source.phase_energies(s, g)
        estimator._check_finite(prefill[:n], decode[:n])
        mean = estimator._mean_breakdown(source, workload, prefill[:n], decode[:n])
        name = spec.name or "model"
        rows.append(ModelComparisonRow(name, spec.n_params, mean.total_wh, mean.total_wh / mean_tokens))
        grid.extend(ContourPoint(name, spec.n_params, c, wh) for c, wh in zip(contour_g, decode[n:].tolist()))
    return ModelComparison(tuple(rows), tuple(grid))


def _assert_compare_matches_oracle(specs, hw, workload, contour_g):
    """Rows and grid bitwise (repr writes every float exactly), or the same error."""
    got = _outcome(compare_models, specs, hw, workload, contour_g)
    assert repr(got) == repr(_outcome(_compare_oracle, specs, hw, workload, contour_g))
    return got


@st.composite
def sweep_models(draw):
    """GQA, gated, tied and untied models whose integer dimension products run
    from a few to past 2**53, and vocabularies past 2**63."""
    n_heads = draw(st.sampled_from([1, 2, 3, 7, 8, 64, 96]))
    head_dim = draw(st.integers(1, 64) | st.integers(2**20, 2**28))
    return ModelSpec(
        n_layers=draw(st.integers(1, 2**10)),
        hidden=n_heads * head_dim,
        n_heads=n_heads,
        head_dim=head_dim,
        ffn_dim=draw(st.integers(1, 2**30)),
        vocab=draw(st.integers(1, 2**40) | st.integers(2**63, 2**70)),
        bytes_per_param=draw(st.sampled_from([0.5, 1.0, 2.0, 3.3, 4.0])),
        kv_heads=draw(st.sampled_from([d for d in range(1, n_heads + 1) if n_heads % d == 0])),
        gated_ffn=draw(st.booleans()),
        tied_embeddings=draw(st.booleans()),
        name=draw(st.sampled_from(["", "m"])),
    )


_CONTOUR = st.lists(st.integers(1, 5000), max_size=5).map(tuple)


class TestOneEvaluationPerSweep:
    @settings(max_examples=60, deadline=None)
    @given(specs=st.lists(sweep_models(), min_size=1, max_size=6), hw=hardware_profiles(),
           workload=workloads, contour_g=_CONTOUR)
    def test_matches_the_per_model_loop_bitwise(self, specs, hw, workload, contour_g):
        got = _assert_compare_matches_oracle(specs, hw, workload, contour_g)
        assert isinstance(got, ModelComparison)
        assert len(got.rows) == len(specs) and len(got.grid) == len(specs) * len(contour_g)

    @pytest.mark.parametrize("contour_g", [DEFAULT_CONTOUR_G, (1, 16, 4096), ()])
    def test_bundled_models_match_the_per_model_loop_bitwise(self, llama8b, hw, contour_g):
        specs = qwen_family() + [llama8b, qwen_family()[0]]
        for workload in (WorkloadSpec.single(900, 82),
                         WorkloadSpec.parametric(900, 200, 82, 30, count=50, seed=18)):
            got = _assert_compare_matches_oracle(specs, hw, workload, contour_g)
            assert [row.name for row in got.rows][-1] == "qwen25-14b-fp32"

    @pytest.mark.parametrize("count", [1, 2, 6])
    def test_one_class_cost_evaluation_per_sweep(self, llama8b, hw, monkeypatch, count):
        calls = []
        real = transformer_costs._class_costs

        def counting(dims, tokens, span):
            calls.append(np.shape(span))
            return real(dims, tokens, span)

        monkeypatch.setattr(transformer_costs, "_class_costs", counting)
        specs = (qwen_family() + [llama8b])[:count]
        workload = WorkloadSpec.parametric(900, 200, 82, 30, count=7, seed=1)
        compare_models(specs, hw, workload, contour_g=(16, 64))
        assert calls == [(3, count * (7 + 2))]

    # Errors are pinned as the per-model loop raised them: the smallest
    # model's first, whatever a larger one meets.
    _WIDE = ModelSpec(n_layers=10**300, hidden=1, n_heads=1, head_dim=1, ffn_dim=1, vocab=1, name="wide")

    @pytest.mark.parametrize("specs,s,error", [
        # the prefill of the smaller model's row overflows; the larger one's
        # decode step cost is not finite
        ([ModelSpec(**{**vars(_WIDE), "n_layers": 2 * 10**300, "bytes_per_param": 1e308}), _WIDE], 10**4,
         "energy estimate inf Wh is not finite; inputs are implausibly large"),
        ([ModelSpec(**{**vars(_WIDE), "n_layers": 10**299, "bytes_per_param": 1e308}), _WIDE], 10**4,
         "embed step cost is not finite; the model is implausibly large"),
        # a larger model's width does not convert to a float at all
        ([ModelSpec(n_layers=1, hidden=2**1100, n_heads=1, head_dim=2**1100, ffn_dim=1, vocab=1), _WIDE], 10**4,
         "energy estimate inf Wh is not finite; inputs are implausibly large"),
        ([ModelSpec(n_layers=1, hidden=2**1100, n_heads=1, head_dim=2**1100, ffn_dim=1, vocab=1), _WIDE], 5,
         "int too large to convert to float"),
    ])
    def test_a_smaller_models_error_is_reported_first(self, hw, specs, s, error):
        workload = WorkloadSpec.single(s, 1)
        assert _assert_compare_matches_oracle(specs, hw, workload, (16,)) == (OverflowError, error)


class TestWeightTotal:
    @settings(max_examples=100, deadline=None)
    @given(workload=workloads, data=st.data())
    def test_means_are_the_resummed_formula_bitwise(self, workload, data):
        def resummed(x):
            return sum((workload.weight * x).tolist()) / sum(workload.weight.tolist())

        x = np.array(data.draw(st.lists(st.floats(0, 1e6), min_size=len(workload.entries),
                                        max_size=len(workload.entries))))
        assert workload.weight_total == sum(workload.weight.tolist())
        assert workload.mean_s.hex() == resummed(workload.s).hex()
        assert workload.mean_g.hex() == resummed(workload.g).hex()
        assert estimator._weighted_mean(x, workload).hex() == resummed(x).hex()

    def test_weight_total_is_derived_and_read_only(self):
        workload = WorkloadSpec((WorkloadEntry(5, 1, 0.1), WorkloadEntry(6, 2, 0.2)))
        assert workload.weight_total == 0.1 + 0.2
        with pytest.raises(AttributeError):
            workload.weight_total = 1.0
        assert "weight_total" not in repr(workload)
        assert workload == WorkloadSpec(workload.entries)
